//===- ir/Primitives.cpp --------------------------------------------------===//

#include "ir/Primitives.h"

#include <unordered_map>
#include <vector>

using namespace s1lisp;
using namespace s1lisp::ir;

namespace {

constexpr EffectInfo pureFx() { return {EffectNone}; }
constexpr EffectInfo readsFx() { return {EffectReads}; }
constexpr EffectInfo writesFx() { return {static_cast<uint8_t>(EffectWrites | EffectReads)}; }
constexpr EffectInfo allocFx() { return {EffectAllocates}; }
constexpr EffectInfo allocReadsFx() {
  return {static_cast<uint8_t>(EffectAllocates | EffectReads)};
}
constexpr EffectInfo controlFx() { return {EffectControl}; }
constexpr EffectInfo unknownFx() {
  return {static_cast<uint8_t>(EffectUnknownCall | EffectWrites | EffectReads |
                               EffectAllocates | EffectControl)};
}

struct TableBuilder {
  std::vector<PrimInfo> Table;

  PrimInfo &add(const char *Name, Prim Op, int MinArgs, int MaxArgs,
                EffectInfo Effects) {
    Table.push_back(PrimInfo{Name, Op, MinArgs, MaxArgs, Effects,
                             /*Foldable=*/false, /*Assoc=*/false,
                             /*Commut=*/false, std::nullopt, std::nullopt,
                             Rep::POINTER, Rep::POINTER,
                             /*CompareLike=*/false});
    return Table.back();
  }

  /// Generic foldable arithmetic.
  PrimInfo &num(const char *Name, Prim Op, int MinArgs, int MaxArgs) {
    PrimInfo &P = add(Name, Op, MinArgs, MaxArgs, pureFx());
    P.Foldable = true;
    return P;
  }

  /// Single-float raw operator: SWFLO in, SWFLO out.
  PrimInfo &flo(const char *Name, Prim Op, int MinArgs, int MaxArgs) {
    PrimInfo &P = num(Name, Op, MinArgs, MaxArgs);
    P.ArgRep = Rep::SWFLO;
    P.ResultRep = Rep::SWFLO;
    return P;
  }

  /// Fixnum raw operator: SWFIX in, SWFIX out.
  PrimInfo &fix(const char *Name, Prim Op, int MinArgs, int MaxArgs) {
    PrimInfo &P = num(Name, Op, MinArgs, MaxArgs);
    P.ArgRep = Rep::SWFIX;
    P.ResultRep = Rep::SWFIX;
    return P;
  }

  PrimInfo &cmp(const char *Name, Prim Op, int MinArgs, int MaxArgs,
                Rep ArgRep = Rep::POINTER) {
    PrimInfo &P = num(Name, Op, MinArgs, MaxArgs);
    P.ArgRep = ArgRep;
    P.ResultRep = Rep::BIT;
    P.CompareLike = true;
    return P;
  }
};

std::vector<PrimInfo> buildTable() {
  TableBuilder B;

  // --- generic arithmetic ---
  {
    PrimInfo &P = B.num("+", Prim::Add, 0, -1);
    P.Assoc = P.Commut = true;
    P.FixIdentity = 0;
  }
  B.num("-", Prim::Sub, 1, -1);
  {
    PrimInfo &P = B.num("*", Prim::Mul, 0, -1);
    P.Assoc = P.Commut = true;
    P.FixIdentity = 1;
  }
  B.num("/", Prim::Div, 1, -1);
  B.num("neg", Prim::Neg, 1, 1);
  B.num("1+", Prim::Add1, 1, 1);
  B.num("1-", Prim::Sub1, 1, 1);
  B.num("abs", Prim::Abs, 1, 1);
  {
    PrimInfo &P = B.num("max", Prim::Max, 1, -1);
    P.Assoc = P.Commut = true;
  }
  {
    PrimInfo &P = B.num("min", Prim::Min, 1, -1);
    P.Assoc = P.Commut = true;
  }
  B.num("floor", Prim::Floor, 2, 2);
  B.num("ceiling", Prim::Ceiling, 2, 2);
  B.num("truncate", Prim::Truncate, 2, 2);
  B.num("round", Prim::Round, 2, 2);
  B.num("mod", Prim::Mod, 2, 2);
  B.num("rem", Prim::Rem, 2, 2);
  B.num("expt", Prim::Expt, 2, 2);
  B.num("sqrt", Prim::Sqrt, 1, 1);
  B.num("float", Prim::ToFloat, 1, 1).ResultRep = Rep::SWFLO;

  // --- generic comparisons and numeric predicates ---
  B.cmp("=", Prim::NumEq, 1, -1);
  B.cmp("/=", Prim::NumNe, 1, -1);
  B.cmp("<", Prim::Lt, 1, -1);
  B.cmp(">", Prim::Gt, 1, -1);
  B.cmp("<=", Prim::Le, 1, -1);
  B.cmp(">=", Prim::Ge, 1, -1);
  B.cmp("zerop", Prim::Zerop, 1, 1);
  B.cmp("oddp", Prim::Oddp, 1, 1);
  B.cmp("evenp", Prim::Evenp, 1, 1);
  B.cmp("plusp", Prim::Plusp, 1, 1);
  B.cmp("minusp", Prim::Minusp, 1, 1);

  // --- single-float type-specific operators (§6.2) ---
  {
    PrimInfo &P = B.flo("+$f", Prim::FAdd, 1, -1);
    P.Assoc = P.Commut = true;
    P.FloatIdentity = 0.0;
  }
  B.flo("-$f", Prim::FSub, 1, -1);
  {
    PrimInfo &P = B.flo("*$f", Prim::FMul, 1, -1);
    P.Assoc = P.Commut = true;
    P.FloatIdentity = 1.0;
  }
  B.flo("/$f", Prim::FDiv, 1, -1);
  B.flo("neg$f", Prim::FNeg, 1, 1);
  B.flo("abs$f", Prim::FAbs, 1, 1);
  {
    PrimInfo &P = B.flo("max$f", Prim::FMax, 1, -1);
    P.Assoc = P.Commut = true;
  }
  {
    PrimInfo &P = B.flo("min$f", Prim::FMin, 1, -1);
    P.Assoc = P.Commut = true;
  }
  B.flo("sqrt$f", Prim::FSqrt, 1, 1);
  B.flo("sin$f", Prim::FSin, 1, 1);
  B.flo("cos$f", Prim::FCos, 1, 1);
  B.flo("exp$f", Prim::FExp, 1, 1);
  B.flo("log$f", Prim::FLog, 1, 1);
  B.flo("atan$f", Prim::FAtan, 2, 2);
  B.flo("sinc$f", Prim::FSinc, 1, 1);
  B.flo("cosc$f", Prim::FCosc, 1, 1);
  B.cmp("<$f", Prim::FLt, 2, 2, Rep::SWFLO);
  B.cmp(">$f", Prim::FGt, 2, 2, Rep::SWFLO);
  B.cmp("<=$f", Prim::FLe, 2, 2, Rep::SWFLO);
  B.cmp(">=$f", Prim::FGe, 2, 2, Rep::SWFLO);
  B.cmp("=$f", Prim::FEq, 2, 2, Rep::SWFLO);

  // --- fixnum type-specific operators ---
  {
    PrimInfo &P = B.fix("+&", Prim::XAdd, 1, -1);
    P.Assoc = P.Commut = true;
    P.FixIdentity = 0;
  }
  B.fix("-&", Prim::XSub, 1, -1);
  {
    PrimInfo &P = B.fix("*&", Prim::XMul, 1, -1);
    P.Assoc = P.Commut = true;
    P.FixIdentity = 1;
  }
  B.fix("neg&", Prim::XNeg, 1, 1);
  B.cmp("<&", Prim::XLt, 2, 2, Rep::SWFIX);
  B.cmp(">&", Prim::XGt, 2, 2, Rep::SWFIX);
  B.cmp("<=&", Prim::XLe, 2, 2, Rep::SWFIX);
  B.cmp(">=&", Prim::XGe, 2, 2, Rep::SWFIX);
  B.cmp("=&", Prim::XEq, 2, 2, Rep::SWFIX);

  // --- type predicates and equality ---
  B.cmp("null", Prim::Null, 1, 1);
  B.cmp("not", Prim::Not, 1, 1);
  B.cmp("atom", Prim::Atom, 1, 1);
  B.cmp("consp", Prim::Consp, 1, 1);
  B.cmp("listp", Prim::Listp, 1, 1);
  B.cmp("symbolp", Prim::Symbolp, 1, 1);
  B.cmp("numberp", Prim::Numberp, 1, 1);
  B.cmp("floatp", Prim::Floatp, 1, 1);
  B.cmp("integerp", Prim::Integerp, 1, 1);
  B.cmp("stringp", Prim::Stringp, 1, 1);
  B.cmp("eq", Prim::Eq, 2, 2);
  B.cmp("eql", Prim::Eql, 2, 2);
  B.cmp("equal", Prim::Equal, 2, 2).Effects = readsFx();

  // --- lists ---
  // cons allocates: eliminable when unused but never duplicable (§5).
  B.add("cons", Prim::Cons, 2, 2, allocFx());
  // car/cdr observe mutable cells (rplaca exists), hence EffectReads, but
  // they ARE foldable on literal (immutable, quoted) operands.
  B.add("car", Prim::Car, 1, 1, readsFx()).Foldable = true;
  B.add("cdr", Prim::Cdr, 1, 1, readsFx()).Foldable = true;
  B.add("caar", Prim::Caar, 1, 1, readsFx()).Foldable = true;
  B.add("cadr", Prim::Cadr, 1, 1, readsFx()).Foldable = true;
  B.add("cddr", Prim::Cddr, 1, 1, readsFx()).Foldable = true;
  B.add("cdar", Prim::Cdar, 1, 1, readsFx()).Foldable = true;
  B.add("list", Prim::List, 0, -1, allocFx());
  B.add("append", Prim::Append, 0, -1, allocReadsFx());
  B.add("reverse", Prim::Reverse, 1, 1, allocReadsFx());
  B.add("nth", Prim::Nth, 2, 2, readsFx()).Foldable = true;
  B.add("nthcdr", Prim::NthCdr, 2, 2, readsFx()).Foldable = true;
  B.add("length", Prim::Length, 1, 1, readsFx()).Foldable = true;
  B.add("rplaca", Prim::Rplaca, 2, 2, writesFx());
  B.add("rplacd", Prim::Rplacd, 2, 2, writesFx());
  B.add("member", Prim::Member, 2, 2, readsFx());
  B.add("assoc", Prim::Assoc, 2, 2, readsFx());
  B.add("last", Prim::Last, 1, 1, readsFx());

  // --- float arrays ---
  B.add("make-array$f", Prim::MakeArrayF, 1, 2, allocFx());
  {
    PrimInfo &P = B.add("aref$f", Prim::ArefF, 2, 3, readsFx());
    P.ResultRep = Rep::SWFLO; // delivers a raw machine number
  }
  {
    PrimInfo &P = B.add("aset$f", Prim::AsetF, 3, 4, writesFx());
    P.ResultRep = Rep::SWFLO;
  }
  B.add("array-dimension", Prim::ArrayDim, 2, 2, pureFx()).ResultRep = Rep::SWFIX;

  // --- control and miscellany ---
  B.add("funcall", Prim::Funcall, 1, -1, unknownFx());
  B.add("apply", Prim::Apply, 2, -1, unknownFx());
  B.add("throw", Prim::Throw, 2, 2, controlFx());
  B.add("error", Prim::Error, 0, -1, controlFx());
  B.add("identity", Prim::Identity, 1, 1, pureFx()).Foldable = true;
  B.add("function", Prim::FunctionRef, 1, 1, pureFx());
  B.add("print", Prim::Print, 1, 1, writesFx());

  return B.Table;
}

const std::vector<PrimInfo> &table() {
  static const std::vector<PrimInfo> Table = buildTable();
  return Table;
}

const std::unordered_map<std::string, const PrimInfo *> &nameIndex() {
  static const std::unordered_map<std::string, const PrimInfo *> Index = [] {
    std::unordered_map<std::string, const PrimInfo *> M;
    for (const PrimInfo &P : table())
      M.emplace(P.Name, &P);
    return M;
  }();
  return Index;
}

} // namespace

const PrimInfo *ir::lookupPrim(const sexpr::Symbol *Name) {
  int32_t Index = Name->PrimIndex.load(std::memory_order_relaxed);
  if (Index == -2) {
    const PrimInfo *P = lookupPrim(Name->name());
    Index = P ? static_cast<int32_t>(P - table().data()) : -1;
    Name->PrimIndex.store(Index, std::memory_order_relaxed);
  }
  return Index < 0 ? nullptr : &table()[Index];
}

const PrimInfo *ir::lookupPrim(const std::string &Name) {
  auto It = nameIndex().find(Name);
  return It == nameIndex().end() ? nullptr : It->second;
}

const PrimInfo &ir::primInfo(Prim Op) {
  for (const PrimInfo &P : table())
    if (P.Op == Op)
      return P;
  assert(false && "primitive not in table");
  return table().front();
}
