//===- ir/Primitives.h - Known primitive operations -------------*- C++ -*-===//
///
/// \file
/// The table of primitive functions the compiler knows about: arities,
/// side-effect classes, foldability (compile-time expression evaluation,
/// §5), associativity/commutativity with identity elements (the paper's
/// "table-driven … manipulations of associative and commutative
/// operators"), and representation signatures for the type-specific
/// operators of §6.2 ("+$f", "*&", …).
///
/// Generic arithmetic (+, *, <, …) works on any numbers via the runtime;
/// the $f/& type-specific operators are the MACLISP-style operators the
/// paper uses while awaiting declaration-driven type inference.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_IR_PRIMITIVES_H
#define S1LISP_IR_PRIMITIVES_H

#include "ir/Ir.h"
#include "sexpr/Value.h"

#include <optional>

namespace s1lisp {
namespace ir {

/// Every primitive operation, one enumerator each.
enum class Prim : uint8_t {
  // Generic arithmetic.
  Add, Sub, Mul, Div, Add1, Sub1, Neg, Abs, Max, Min,
  Floor, Ceiling, Truncate, Round, Mod, Rem, Expt, Sqrt, ToFloat,
  // Generic numeric comparison / predicates.
  NumEq, NumNe, Lt, Gt, Le, Ge, Zerop, Oddp, Evenp, Plusp, Minusp,
  // Single-float type-specific operators (raw SWFLO world).
  FAdd, FSub, FMul, FDiv, FNeg, FAbs, FMax, FMin, FSqrt,
  FSin, FCos, FExp, FLog, FAtan, FSinc, FCosc,
  FLt, FGt, FLe, FGe, FEq,
  // Fixnum type-specific operators (raw SWFIX world).
  XAdd, XSub, XMul, XNeg, XLt, XGt, XLe, XGe, XEq,
  // Type predicates and equality.
  Null, Not, Atom, Consp, Listp, Symbolp, Numberp, Floatp, Integerp, Stringp,
  Eq, Eql, Equal,
  // Lists.
  Cons, Car, Cdr, Caar, Cadr, Cddr, Cdar, List, Append, Reverse,
  Nth, NthCdr, Length, Rplaca, Rplacd, Member, Assoc, Last,
  // Float arrays (1-D or 2-D, row-major) — the §6.1 subscripting substrate.
  MakeArrayF, ArefF, AsetF, ArrayDim,
  // Control and miscellany.
  Funcall, Apply, Throw, Error, Identity, FunctionRef, Print,
};

/// Static description of one primitive.
struct PrimInfo {
  const char *Name;
  Prim Op;
  int MinArgs;
  int MaxArgs; ///< -1 = variadic.
  EffectInfo Effects;
  /// May be evaluated at compile time on constant operands.
  bool Foldable = false;
  /// N-ary calls may be re-associated into two-argument compositions.
  bool Assoc = false;
  /// Arguments may be reordered (constants hoisted to the front).
  bool Commut = false;
  /// Identity element for Assoc ops ((+ x 0) => x), when meaningful.
  std::optional<double> FloatIdentity;
  std::optional<int64_t> FixIdentity;
  /// Representation the operator wants for its arguments, and delivers.
  Rep ArgRep = Rep::POINTER;
  Rep ResultRep = Rep::POINTER;
  /// Result is a boolean usable directly as a conditional jump.
  bool CompareLike = false;
  /// "Immutable mathematical function" (§7): motion past unknown calls OK.
  /// Encoded via Effects.pure(), but listed here for documentation.

  bool acceptsArgCount(size_t N) const {
    return N >= static_cast<size_t>(MinArgs) &&
           (MaxArgs < 0 || N <= static_cast<size_t>(MaxArgs));
  }
};

/// Looks up a primitive by name ("+$f", "car", …); null when unknown.
/// The symbol form hashes a symbol's name only on its first lookup and
/// answers from the symbol's PrimIndex slot after that.
const PrimInfo *lookupPrim(const sexpr::Symbol *Name);
const PrimInfo *lookupPrim(const std::string &Name);

/// Looks up by operation.
const PrimInfo &primInfo(Prim Op);

} // namespace ir
} // namespace s1lisp

#endif // S1LISP_IR_PRIMITIVES_H
