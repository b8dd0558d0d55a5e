// Execution tiers for the IR data path. Both tiers implement identical
// semantics — same blocking points, same step counts, same error strings —
// and differ only in dispatch cost:
//
//   kInterp    one switch per instruction over the CFG (the reference tier;
//              the model checker always uses it).
//   kCompiled  IR lowered to a C step function, compiled with the system
//              compiler, and dlopen'd; falls back to kInterp when no
//              compiler is available.
//
// The equivalence obligation is enforced by tests/test_exec_modes.cc and the
// four-way differential fuzz harness (src/fuzz).

#ifndef SRC_VM_EXEC_MODE_H_
#define SRC_VM_EXEC_MODE_H_

namespace efeu::vm {

enum class ExecMode {
  kInterp,
  kCompiled,
};

inline const char* ExecModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kInterp:
      return "interp";
    case ExecMode::kCompiled:
      return "compiled";
  }
  return "?";
}

}  // namespace efeu::vm

#endif  // SRC_VM_EXEC_MODE_H_
