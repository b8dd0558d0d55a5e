// Builds model-checked verifier systems for every stack level and
// abstraction (paper section 4): the unit-under-test layers, the lower stack
// (or the behaviour specification replacing it), the input-space and observer
// glue processes, and the Electrical combiner.

#ifndef SRC_I2C_VERIFY_H_
#define SRC_I2C_VERIFY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/check/checker.h"
#include "src/i2c/stack.h"
#include "src/ir/compile.h"
#include "src/support/diagnostics.h"

namespace efeu::i2c {

enum class VerifyLevel {
  kSymbol,
  kByte,
  kTransaction,
  kEepDriver,
};

enum class VerifyAbstraction {
  kNone,         // full stack below the unit under test
  kSymbol,       // Symbol behaviour spec replaces Symbol+Electrical
  kByte,         // Byte behaviour spec replaces Byte and below
  kTransaction,  // Transaction behaviour spec replaces Transaction and below
};

struct VerifyConfig {
  VerifyLevel level = VerifyLevel::kEepDriver;
  VerifyAbstraction abstraction = VerifyAbstraction::kNone;
  // Number of EEPROM responders (paper section 4.4). More than one is
  // supported for the EepDriver verifier with kNone or kTransaction
  // abstraction.
  int num_eeproms = 1;
  // Maximum payload length for Transaction/EepDriver verifiers (>= 1).
  int max_len = 4;
  // Operations the input space issues.
  int num_ops = 2;
  // First payload byte nondeterministically chosen from two values
  // (the "variable payload" configuration, paper section 4.4).
  bool variable_payload = false;
  // Include clock stretching in the Symbol verifier's input space.
  bool stretch_input = false;
  // Controller quirks under test.
  bool no_clock_stretching = false;      // Raspberry Pi bug
  bool ks0127_compat_controller = false;  // I2C_M_NO_RD_ACK behaviour
  // Responder quirk: the KS0127 Byte layer (implies the KS0127 input space
  // for the Byte verifier).
  bool ks0127_responder = false;
  int mem_size = 32;
  // Fault budget per execution: the checker additionally explores every
  // schedule in which up to this many acknowledged bus events fail with NACK
  // (the transaction-level shadow of the simulator's electrical faults).
  // Only supported by the EepDriver verifier with the Transaction
  // abstraction; implies the EEP_FAULTS relaxation of the CWorld oracle.
  int fault_events = 0;
  // Soft-reset budget per execution: the checker additionally explores every
  // schedule in which up to this many supervision soft resets (watchdog or
  // SOFT_RESET pulse) strike mid-transaction. Each reset aborts the in-flight
  // transaction with CT_RES_FAIL and returns the stack below the EepDriver to
  // its initial state; proving the oracle plus valid end states under this
  // budget is the reset convergence property. Same support constraints as
  // fault_events; implies the EEP_RESET relaxation of the CWorld oracle.
  int reset_events = 0;
  // Run the static lint pass (src/analysis) over every compilation before
  // handing the system to the checker. Findings at error severity fail the
  // build fast — BuildVerifier returns nullptr with the lint diagnostics —
  // instead of waiting for the model checker to stumble on the bug. The pass
  // never mutates the compiled modules, so enabling it cannot perturb the
  // checker's state counts.
  bool analyze_before_check = false;
};

// Owns everything a verification run needs: compilations (whose channel and
// module objects the processes reference) and the checked system itself.
class VerifierSystem {
 public:
  check::CheckedSystem& system() { return system_; }
  const std::vector<std::unique_ptr<ir::Compilation>>& compilations() const {
    return compilations_;
  }

  // Internal; used by BuildVerifier.
  std::vector<std::unique_ptr<ir::Compilation>> compilations_;
  check::CheckedSystem system_;
};

// Returns nullptr (with diagnostics) if the specifications fail to compile or
// the configuration is unsupported.
std::unique_ptr<VerifierSystem> BuildVerifier(const VerifyConfig& config,
                                              DiagnosticEngine& diag);

struct VerifyRunResult {
  check::CheckResult safety;
  check::CheckResult liveness;
  double total_seconds = 0;
  bool ok = false;
};

// Runs the verification the way the paper runs SPIN (section 4.3): one pass
// checking assertions + invalid end states, one pass checking non-progress
// cycles, with the runtimes summed. Both passes derive their options from
// `base_options`, so callers can set budgets, hash compaction, or toggle
// the state-space reductions (por/collapse, on by default; see DESIGN.md
// "State-space reduction").
VerifyRunResult RunVerification(const VerifyConfig& config, DiagnosticEngine& diag,
                                const check::CheckerOptions& base_options = {});

// One configuration of a verification suite and its outcome.
struct VerifySuiteItem {
  VerifyConfig config;
  VerifyRunResult result;
  // Rendered compile/build diagnostics when the verifier could not be built;
  // empty on success.
  std::string error;
};

// Runs every configuration through RunVerification on a pool of
// `pool_threads` threads (0 = one per hardware thread). Each run gets its own
// DiagnosticEngine, verifier system and checker tables, so the combos share
// nothing; results come back in input order. This pool is the checker's only
// parallelism: each check runs single-threaded.
std::vector<VerifySuiteItem> RunVerificationSuite(const std::vector<VerifyConfig>& configs,
                                                  const check::CheckerOptions& base_options = {},
                                                  int pool_threads = 0);

}  // namespace efeu::i2c

#endif  // SRC_I2C_VERIFY_H_
