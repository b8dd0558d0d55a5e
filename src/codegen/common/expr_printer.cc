#include "src/codegen/common/expr_printer.h"

#include <cassert>

#include "src/ir/opcode_info.h"

namespace efeu::codegen {

namespace {

// Parenthesization is conservative: nested binary/unary operands always get
// parentheses, which keeps the printer simple and the output unambiguous.
// `lvalue` marks assignment targets, which must not pick up rvalue casts.
std::string Print(const esm::Expr& expr, bool parenthesize, const ExprPrintOptions& options,
                  bool lvalue = false) {
  // C promotes an all-non-negative enum as unsigned; read it back as int so
  // arithmetic and comparisons match the interpreters' signed semantics.
  auto enum_read = [&](std::string text) {
    if (options.cast_enum_reads_to_int && !lvalue && !expr.IsStruct() &&
        expr.type.IsEnum() && !expr.type.IsArray()) {
      return "(int)" + text;
    }
    return text;
  };
  switch (expr.kind) {
    case esm::ExprKind::kIntLiteral: {
      const auto& node = static_cast<const esm::IntLiteralExpr&>(expr);
      return std::to_string(node.value);
    }
    case esm::ExprKind::kVarRef:
      return enum_read(static_cast<const esm::VarRefExpr&>(expr).name);
    case esm::ExprKind::kIndex: {
      const auto& node = static_cast<const esm::IndexExpr&>(expr);
      return enum_read(Print(*node.base, true, options, /*lvalue=*/true) + "[" +
                       Print(*node.index, false, options) + "]");
    }
    case esm::ExprKind::kMember: {
      const auto& node = static_cast<const esm::MemberExpr&>(expr);
      return enum_read(Print(*node.base, true, options, /*lvalue=*/true) + "." + node.field);
    }
    case esm::ExprKind::kUnary: {
      const auto& node = static_cast<const esm::UnaryExpr&>(expr);
      std::string text =
          std::string(ir::UnaryOpSpelling(node.op)) + Print(*node.operand, true, options);
      return parenthesize ? "(" + text + ")" : text;
    }
    case esm::ExprKind::kBinary: {
      const auto& node = static_cast<const esm::BinaryExpr&>(expr);
      if (options.guard_shifts &&
          (node.op == esm::BinaryOp::kShl || node.op == esm::BinaryOp::kShr)) {
        std::string a = Print(*node.lhs, true, options);
        std::string b = Print(*node.rhs, true, options);
        return "(" + b + " >= 0 && " + b + " < 32 ? " + a + " " + ir::BinaryOpSpelling(node.op) +
               " " + b + " : 0)";
      }
      std::string text = Print(*node.lhs, true, options) + " " + ir::BinaryOpSpelling(node.op) +
                         " " + Print(*node.rhs, true, options);
      return parenthesize ? "(" + text + ")" : text;
    }
    case esm::ExprKind::kAssign: {
      const auto& node = static_cast<const esm::AssignExpr&>(expr);
      return Print(*node.lhs, false, options, /*lvalue=*/true) + " = " +
             Print(*node.rhs, false, options);
    }
    case esm::ExprKind::kCall: {
      assert(false && "communication calls are printed by the statement printers");
      return "<call>";
    }
  }
  return "<expr>";
}

}  // namespace

std::string PrintExpr(const esm::Expr& expr) { return Print(expr, false, ExprPrintOptions{}); }

std::string PrintExpr(const esm::Expr& expr, const ExprPrintOptions& options) {
  return Print(expr, false, options);
}

std::string PrintLvalue(const esm::Expr& expr, const ExprPrintOptions& options) {
  return Print(expr, false, options, /*lvalue=*/true);
}

}  // namespace efeu::codegen
