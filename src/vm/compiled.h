// The compiled execution tier: ahead-of-time translation of an IR module into
// a C step function, compiled with the host C compiler into a shared object
// and loaded with dlopen. The generated function advances the canonical
// machine state (frame, block, inst_index, steps) exactly like the
// interpreter — same step counts, same blocking points, same failure points —
// and returns a small status code; error *strings* are formatted host-side by
// the shared IrExecutor::Fail* helpers so they are byte-identical across
// tiers (the differential harness compares them).
//
// Artifacts are content-addressed: the cache key is the emitted C source, so
// structurally identical modules (the fuzzer generates thousands) share one
// shared object, and a recycled ir::Module address can never alias a stale
// artifact. The cache is bounded; evicted artifacts stay alive as long as an
// executor still holds them (shared_ptr).
//
// Environment knobs:
//   EFEU_CC                overrides the compiler (default: cc)
//   EFEU_NO_COMPILED_TIER  disables the tier; kCompiled degrades to kInterp

#ifndef SRC_VM_COMPILED_H_
#define SRC_VM_COMPILED_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "src/ir/ir.h"

namespace efeu::vm {

// True when a host C compiler is available and the tier is not disabled.
// Probed once per process; when false, ExecMode::kCompiled silently runs the
// interpreter instead (IrExecutor::effective_mode reports the truth).
bool CompiledTierAvailable();

class CompiledModule {
 public:
  // Return codes of the generated step function. The function syncs the
  // canonical pc before returning, so the host can locate the current
  // instruction for ports, message spans, and error formatting.
  enum : int32_t {
    kStopBudget = 0,   // step budget exhausted; still runnable
    kStopSend = 1,     // blocked at kSend
    kStopRecv = 2,     // blocked at kRecv
    kStopNondet = 3,   // blocked at kNondet
    kStopHalt = 4,     // executed kHalt
    kStopDivZero = 5,  // division/modulo by zero at the current instruction
    kStopOob = 6,      // array index out of bounds; *fail_aux holds the index
    kStopAssert = 7,   // assertion failed at the current instruction
  };

  using StepFn = int32_t (*)(int32_t* frame, int32_t* block, int32_t* inst_index,
                             uint64_t* steps_io, uint64_t max_steps,
                             int32_t* fail_aux, int32_t* progress);

  StepFn step() const { return step_; }

  // Returns the compiled artifact for `module`, compiling on first use.
  // Returns nullptr when compilation fails (caller falls back to interp).
  static std::shared_ptr<const CompiledModule> Get(const ir::Module& module);

  // Batch-compiles every not-yet-cached module in one compiler invocation and
  // seeds the cache (the per-iteration cost matters to the fuzzer). Returns
  // the number of modules now available compiled.
  static int Precompile(std::span<const ir::Module* const> modules);

  // Emits the C source of the step function named `symbol` (exposed for
  // tests and inspection; Get/Precompile use it internally).
  static std::string EmitC(const ir::Module& module, const std::string& symbol);

  CompiledModule(std::shared_ptr<void> handle, StepFn step_fn)
      : handle_(std::move(handle)), step_(step_fn) {}

 private:
  std::shared_ptr<void> handle_;  // dlopen handle (shared by batch artifacts)
  StepFn step_;
};

}  // namespace efeu::vm

#endif  // SRC_VM_COMPILED_H_
