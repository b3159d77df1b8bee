//===- opt/Cse.h - Common subexpression elimination -------------*- C++ -*-===//
///
/// \file
/// §4.3: common sub-expression elimination "can be expressed as a
/// source-level transformation using lambda-expressions". The paper left
/// it unimplemented ("its contribution to program speed will be smaller
/// than the other techniques"); we implement it as specified: repeated
/// duplicable subexpressions are hoisted into a LET introduced around the
/// smallest enclosing body, and it runs as a separate optional phase so
/// the thrashing problem with substitution (§4.3's introduction/
/// elimination cycle) cannot arise.
///
/// Only duplicable (side-effect-free, allocation-free) expressions are
/// eliminated. Hoisting may evaluate an expression a conditional branch
/// would have skipped; like the paper's compiler, we accept the cost-only
/// consequence and never hoist anything whose evaluation can be observed.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_OPT_CSE_H
#define S1LISP_OPT_CSE_H

#include "ir/Ir.h"
#include "opt/MetaEval.h"

namespace s1lisp {
namespace opt {

struct CseOptions {
  /// Minimum complexity (object-code size estimate) worth a variable.
  unsigned MinComplexity = 4;
  unsigned MaxRounds = 8;
};

/// Eliminates common subexpressions in \p F; returns the number of
/// expressions hoisted. Run after metaEvaluate (it will not reverse these
/// introductions, per §4.3's phase separation). When it hoists anything,
/// a tree that then fails ir::verify is reported as in ir::verifyAfter:
/// to \p Diags when given, else by aborting.
unsigned eliminateCommonSubexpressions(ir::Function &F,
                                       const CseOptions &Opts = {},
                                       stats::RemarkStream *Remarks = nullptr,
                                       DiagEngine *Diags = nullptr);

} // namespace opt
} // namespace s1lisp

#endif // S1LISP_OPT_CSE_H
