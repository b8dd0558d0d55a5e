// Verifier builders for the SPI subsystem (the paper's future-work protocol,
// section 7). Same architecture as the I2C verifiers: unit-under-test layers
// plus the full lower stack, input-space and observer glue, model-checked
// for assertions, invalid end states and non-progress cycles.

#ifndef SRC_SPI_VERIFY_H_
#define SRC_SPI_VERIFY_H_

#include <memory>

#include "src/check/checker.h"
#include "src/ir/compile.h"
#include "src/support/diagnostics.h"

namespace efeu::spi {

enum class SpiVerifyLevel {
  kByte,    // byte exchange integrity in both directions
  kDriver,  // register read/write semantics over the full stack
};

struct SpiVerifyConfig {
  SpiVerifyLevel level = SpiVerifyLevel::kDriver;
  int num_ops = 2;
  // The CPHA-mismatch quirk: the controller shifts data on the leading edge
  // (mode 1) while the device samples mode-0 style.
  bool mode1_controller = false;
  // Run the static lint pass over the compilation before model checking;
  // lint errors make BuildSpiVerifier return nullptr with the diagnostics.
  // Mirrors i2c::VerifyConfig::analyze_before_check.
  bool analyze_before_check = false;
};

class SpiVerifierSystem {
 public:
  check::CheckedSystem& system() { return system_; }

  std::unique_ptr<ir::Compilation> compilation_;
  check::CheckedSystem system_;
};

std::unique_ptr<SpiVerifierSystem> BuildSpiVerifier(const SpiVerifyConfig& config,
                                                    DiagnosticEngine& diag);

struct SpiVerifyResult {
  check::CheckResult safety;
  check::CheckResult liveness;
  double total_seconds = 0;
  bool ok = false;
};

// Runs a safety pass (assertions + invalid end states) and a liveness pass
// (non-progress cycles), both derived from `base_options` — so callers can
// set budgets, hash compaction, or toggle the state-space reductions
// (por/collapse, on by default) exactly like i2c::RunVerification.
SpiVerifyResult RunSpiVerification(const SpiVerifyConfig& config, DiagnosticEngine& diag,
                                   const check::CheckerOptions& base_options = {});

}  // namespace efeu::spi

#endif  // SRC_SPI_VERIFY_H_
