//===- frontend/Convert.h - Preliminary conversion --------------*- C++ -*-===//
///
/// \file
/// The paper's preliminary phase (§4.1): syntax checking, resolution of
/// variable references (with alpha renaming, so every distinct variable
/// gets its own ir::Variable), expansion of macro calls, and conversion to
/// the internal tree form. All constructs outside Table 2's basic set —
/// let, let*, cond, and, or, when, unless, prog, do, dotimes, dolist,
/// case, catch, prog1, prog2 — are re-expressed in terms of the basic set.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_FRONTEND_CONVERT_H
#define S1LISP_FRONTEND_CONVERT_H

#include "ir/Ir.h"
#include "support/Diag.h"

#include <string_view>
#include <vector>

namespace s1lisp {
namespace frontend {

/// Converts one top-level form. (defun ...) produces a Function in \p M;
/// (defvar sym [literal]) proclaims a special and returns null;
/// (proclaim (special ...)) likewise. Returns the new Function for defun,
/// null otherwise (including on error — check \p Diags).
ir::Function *convertTopLevel(ir::Module &M, sexpr::Value Form, DiagEngine &Diags);

/// The specials \p Form proclaims, in order: the symbol of (defvar sym
/// ...) or (defparameter sym ...), the symbols of (proclaim (special
/// ...)), quoted or not; none for any other form. convertTopLevel adds
/// exactly these to the module, and the front cache keys each defun by
/// the ones proclaimed before it (driver::compileSource).
std::vector<const sexpr::Symbol *> proclaimedSpecials(sexpr::Value Form);

/// Reads (timed as frontend.read) and converts every form in \p Source.
/// Returns false if any diagnostics were errors.
bool convertSource(ir::Module &M, std::string_view Source, DiagEngine &Diags);

/// Convenience for tests: converts the single defun in \p Source and
/// asserts success.
ir::Function *convertDefun(ir::Module &M, std::string_view Source);

} // namespace frontend
} // namespace s1lisp

#endif // S1LISP_FRONTEND_CONVERT_H
