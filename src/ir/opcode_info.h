// Shared per-opcode metadata and scalar evaluation for the Efeu IR. Before
// this table existed, every execution substrate (interpreter, RTL simulator,
// static analyzer) carried its own opcode/operator switch; they agreed only by
// convention, which the differential fuzzer repeatedly showed to be fragile.
// This header is the single source of truth consumed by:
//
//   - the IR interpreter (src/vm),
//   - the cycle-accurate RTL simulator (src/rtl) via the *total* evaluators,
//   - esmlint's interval dataflow (src/analysis) for singleton folding,
//   - esmsym's value domain and solver (src/analysis/sym),
//   - the C/Verilog backends via the operator spellings (src/codegen).

#ifndef SRC_IR_OPCODE_INFO_H_
#define SRC_IR_OPCODE_INFO_H_

#include <cstdint>

#include "src/esm/ast.h"
#include "src/ir/ir.h"

namespace efeu::ir {

struct OpcodeInfo {
  const char* name;     // mnemonic used by dumps
  bool blocking;        // stops the executor (kSend/kRecv/kNondet)
  bool terminator;      // ends a basic block (kJump/kBranch/kHalt)
  bool writes_dst;      // Inst::dst is a single-slot destination
  bool reads_a;         // Inst::a is a single-slot operand
  bool may_fail;        // can raise a runtime error / assertion failure
};

const OpcodeInfo& GetOpcodeInfo(Opcode op);

// Operator spellings shared by the IR dump and the C, shadow-checker,
// Promela and Verilog printers (Verilog overrides only the right shift).
const char* UnaryOpSpelling(esm::UnaryOp op);
const char* BinaryOpSpelling(esm::BinaryOp op);

// Scalar evaluation, VM/checker semantics: operands widen to int64, the
// result truncates to int32; shifts outside [0, 32) yield 0. Inline: these
// sit on the interpreter's hot path.
inline int32_t EvalUnOp(esm::UnaryOp op, int32_t a) {
  switch (op) {
    case esm::UnaryOp::kPlus:
      return a;
    case esm::UnaryOp::kNegate:
      return static_cast<int32_t>(-static_cast<int64_t>(a));
    case esm::UnaryOp::kBitNot:
      return ~a;
    case esm::UnaryOp::kLogicalNot:
      return a == 0 ? 1 : 0;
  }
  return 0;
}

// Partial binary evaluation: returns false (leaving *out untouched) on
// division/modulo by zero, which the VM and the model checker surface as a
// runtime error.
inline bool EvalBinOp(esm::BinaryOp op, int32_t a, int32_t b, int32_t* out) {
  int64_t wa = a;
  int64_t wb = b;
  int64_t result = 0;
  switch (op) {
    case esm::BinaryOp::kMul:
      result = wa * wb;
      break;
    case esm::BinaryOp::kDiv:
      if (b == 0) {
        return false;
      }
      result = wa / wb;
      break;
    case esm::BinaryOp::kMod:
      if (b == 0) {
        return false;
      }
      result = wa % wb;
      break;
    case esm::BinaryOp::kAdd:
      result = wa + wb;
      break;
    case esm::BinaryOp::kSub:
      result = wa - wb;
      break;
    case esm::BinaryOp::kShl:
      result = wb >= 0 && wb < 32 ? (wa << wb) : 0;
      break;
    case esm::BinaryOp::kShr:
      result = wb >= 0 && wb < 32 ? (wa >> wb) : 0;
      break;
    case esm::BinaryOp::kLt:
      result = wa < wb ? 1 : 0;
      break;
    case esm::BinaryOp::kGt:
      result = wa > wb ? 1 : 0;
      break;
    case esm::BinaryOp::kLe:
      result = wa <= wb ? 1 : 0;
      break;
    case esm::BinaryOp::kGe:
      result = wa >= wb ? 1 : 0;
      break;
    case esm::BinaryOp::kEq:
      result = wa == wb ? 1 : 0;
      break;
    case esm::BinaryOp::kNe:
      result = wa != wb ? 1 : 0;
      break;
    case esm::BinaryOp::kBitAnd:
      result = wa & wb;
      break;
    case esm::BinaryOp::kBitXor:
      result = wa ^ wb;
      break;
    case esm::BinaryOp::kBitOr:
      result = wa | wb;
      break;
    case esm::BinaryOp::kLogicalAnd:
      result = (wa != 0 && wb != 0) ? 1 : 0;
      break;
    case esm::BinaryOp::kLogicalOr:
      result = (wa != 0 || wb != 0) ? 1 : 0;
      break;
  }
  *out = static_cast<int32_t>(result);
  return true;
}

// Total binary evaluation, hardware semantics: division/modulo by zero yield
// 0 (the generated Verilog emits the same guard), everything else agrees
// with the partial evaluation.
inline int32_t EvalBinOpTotal(esm::BinaryOp op, int32_t a, int32_t b) {
  int32_t out = 0;
  if (!EvalBinOp(op, a, b, &out)) {
    return 0;
  }
  return out;
}

}  // namespace efeu::ir

#endif  // SRC_IR_OPCODE_INFO_H_
