// Four-way differential harness: runs one accepted fuzz spec through the
// model checker's transition relation, the VM interpreter, the cycle-accurate
// RTL simulator (clocked per edge and again skipping idle edges), and the
// dlopen'd generated C, feeding every target the same deterministic event
// schedule (a fixed sequence of Env commands) and asserting agreement step
// for step.
//
// What makes the comparison well-defined: fuzz systems are closed trees of
// layers connected by rendezvous channels (a Kahn network), so the sequence
// of messages on every channel and the reply to every Env command are
// schedule-independent. Any disagreement between targets is therefore a real
// semantics bug in sema, lowering, a backend, or one of the executors — not
// scheduling noise.
//
// Per-target observations (a TargetTrace):
//   - verdict: ok / assertion failed / runtime error / stuck / reject
//   - the reply message for each completed Env command
//   - the full message sequence on every internal channel (checker, VM, RTL)
//   - final values of every named ESM variable after the schedule (ok only)
//
// Comparison policy: the checker is compared against the VM on everything,
// so even failing runs must agree on the verdict and the failing step. The
// RTL simulator and the generated C are compared only when the VM verdict is
// ok — by design the RTL treats asserts as non-synthesizable no-ops and
// guards division, and the C would SIGFPE on division by zero, so failing
// runs are meaningful only on the deterministic software targets.

#ifndef SRC_FUZZ_DIFFERENTIAL_H_
#define SRC_FUZZ_DIFFERENTIAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/fuzz/spec_model.h"

namespace efeu::fuzz {

enum class Verdict {
  kOk,            // schedule completed, system at a valid end state
  kAssertFailed,  // an ESM assert tripped
  kRuntimeError,  // division by zero, runaway loop, ...
  kStuck,         // deadlock / no reply / cycle budget exhausted
  kReject,        // target could not run the spec at all (e.g. cc failed)
};

const char* VerdictName(Verdict verdict);

// Everything one execution target observed while running the schedule.
struct TargetTrace {
  Verdict verdict = Verdict::kReject;
  // Number of fully completed Env commands when the verdict was reached
  // (== stimuli count iff the whole schedule ran).
  int failed_step = 0;
  // Reply message per completed Env command.
  std::vector<std::vector<int32_t>> replies;
  // "From->To" -> every message carried on that internal channel, in order.
  // Empty for the C target (its internal calls are not observable).
  std::map<std::string, std::vector<std::vector<int32_t>>> channel_msgs;
  // Layer -> flattened values of its kVar frame slots after the schedule.
  // Filled only on kOk; empty for the C target (locals are static-hidden).
  std::map<std::string, std::vector<int32_t>> final_vars;
  std::string error;
};

struct DifferentialOptions {
  // Compile + dlopen the generated C (skipped automatically when the VM
  // verdict is not kOk or no C compiler is available).
  bool run_c = true;
  // Run the symbolic executor (src/analysis/sym) over the spec with
  // unconstrained external words and cross-check its verdict against the
  // execution targets (see DifferentialResult::sym_consistent).
  bool run_sym = true;
  uint64_t max_rtl_cycles = 200000;
  uint64_t max_checker_transitions = 100000;
  // Where temporary C build directories are created.
  std::string scratch_dir = "/tmp";
};

struct DifferentialResult {
  // False when the frontend (parse/sema/lower) rejected the spec; the four
  // traces are then meaningless.
  bool accepted = false;
  std::string reject_reason;

  TargetTrace vm;  // the reference trace
  TargetTrace checker;
  // The per-edge RTL clock's trace. The RTL leg runs a second time skipping
  // idle edges, and must match this run in every reply, channel message,
  // final frame and the cycle each reply landed at.
  TargetTrace rtl;
  // Cycles the skipping RTL run covered, and how many it actually ticked.
  uint64_t rtl_cycles = 0;
  uint64_t rtl_cycles_ticked = 0;
  TargetTrace c;
  bool c_ran = false;

  bool agree = true;
  // Human-readable description of the first disagreement found.
  std::string divergence;

  // Symbolic-executor soundness cross-check (run_sym). The executor runs
  // with unconstrained external words (fuzz stimuli are raw int32), so its
  // proofs are unconditional: if every assert/divisor/index obligation of
  // every module is proved, NO schedule may fail an assert or hit a runtime
  // fault — a tripped obligation after a full proof is an executor soundness
  // bug, and sym_consistent goes false. Partial proofs assert nothing a
  // single schedule could falsify, so only the all-proved case checks.
  bool sym_ran = false;
  bool sym_all_proved = false;
  int sym_obligations = 0;
  int sym_proved = 0;
  bool sym_consistent = true;
  std::string sym_error;
};

// True when a C compiler (`cc`) is on PATH; probed once per process.
bool HaveCCompiler();

// Runs the spec through all targets. The SpecModel overload renders the
// model; the text overload runs corpus entries and minimized repros.
DifferentialResult RunDifferential(const SpecModel& model,
                                   const DifferentialOptions& options = {});
DifferentialResult RunDifferential(const std::string& esi_text, const std::string& esm_text,
                                   const std::vector<std::vector<int32_t>>& stimuli,
                                   const DifferentialOptions& options = {});

}  // namespace efeu::fuzz

#endif  // SRC_FUZZ_DIFFERENTIAL_H_
