// Prints ESM expressions back to C-like source text. ESM expressions are a
// common subset of C and Promela, so both backends share this printer;
// talk/read/post/nondet calls never nest (sema guarantees it) and are handled
// by the statement-level printers of each backend.

#ifndef SRC_CODEGEN_COMMON_EXPR_PRINTER_H_
#define SRC_CODEGEN_COMMON_EXPR_PRINTER_H_

#include <string>

#include "src/esm/ast.h"

namespace efeu::codegen {

struct ExprPrintOptions {
  // Guard shift amounts the way the interpreters do —
  //   ((b) >= 0 && (b) < 32 ? (a) << (b) : 0)
  // — so out-of-range shifts evaluate to 0 instead of hitting C's undefined
  // behaviour (found by differential fuzzing: the VM/RTL/checker all guard,
  // raw C shifts diverge on x86's masked shift count). The C backend turns
  // this on; Promela output is left untouched (SPIN shifts are bounded by
  // the model's variable widths and the golden files pin the old spelling).
  bool guard_shifts = false;

  // Read enum-typed variables/fields through an (int) cast. C gives an enum
  // whose enumerators are all non-negative an unsigned underlying type, so
  // `x - e` silently becomes unsigned arithmetic and flips comparisons
  // (found by differential fuzzing: `(cmd.c0 - r.r0) >= 0` was true in the
  // generated C, false in VM/checker/RTL, which compute in signed int32).
  // Assignment targets are exempt — a cast is not an lvalue. Promela output
  // leaves this off; SPIN's arithmetic is signed already.
  bool cast_enum_reads_to_int = false;
};

std::string PrintExpr(const esm::Expr& expr);
std::string PrintExpr(const esm::Expr& expr, const ExprPrintOptions& options);

// Prints an assignment target: same as PrintExpr but without the
// rvalue-context enum cast at the outermost node.
std::string PrintLvalue(const esm::Expr& expr, const ExprPrintOptions& options);

}  // namespace efeu::codegen

#endif  // SRC_CODEGEN_COMMON_EXPR_PRINTER_H_
