//===- opt/Fold.cpp -------------------------------------------------------===//

#include "opt/Fold.h"

#include "sexpr/Numbers.h"

#include <cmath>

using namespace s1lisp;
using namespace s1lisp::opt;
using namespace s1lisp::ir;
using sexpr::Value;

namespace {

Value boolValue(bool B, const sexpr::SymbolTable &Syms) {
  return B ? Value::symbol(Syms.t()) : Value::nil();
}

std::optional<Value> foldArithChain(sexpr::ArithOp Op, Value Unit,
                                    bool UnitIsInverse,
                                    const std::vector<Value> &Args,
                                    sexpr::Heap &H) {
  if (Args.empty())
    return Unit;
  if (Args.size() == 1) {
    // (+ nil) must still trap at run time, so it does not fold.
    if (!Args[0].isNumber())
      return std::nullopt;
    return UnitIsInverse ? sexpr::arith(H, Op, Unit, Args[0])
                         : std::optional<Value>(Args[0]);
  }
  Value Acc = Args[0];
  for (size_t I = 1; I < Args.size(); ++I) {
    auto R = sexpr::arith(H, Op, Acc, Args[I]);
    if (!R)
      return std::nullopt;
    Acc = *R;
  }
  return Acc;
}

std::optional<Value> foldCompareChain(sexpr::CompareOp Op,
                                      const std::vector<Value> &Args,
                                      const sexpr::SymbolTable &Syms) {
  for (size_t I = 0; I + 1 < Args.size(); ++I) {
    auto R = sexpr::compare(Op, Args[I], Args[I + 1]);
    if (!R)
      return std::nullopt;
    if (!*R)
      return Value::nil();
  }
  // Single-argument comparisons are vacuously true but still require
  // numeric arguments.
  if (Args.size() == 1 && !Args[0].isNumber())
    return std::nullopt;
  return boolValue(true, Syms);
}

std::optional<Value> foldFloat(Prim Op, const std::vector<Value> &Args) {
  std::vector<double> Xs;
  Xs.reserve(Args.size());
  for (Value A : Args) {
    auto D = sexpr::toDouble(A);
    if (!D)
      return std::nullopt;
    Xs.push_back(*D);
  }
  auto One = [&](double R) { return Value::flonum(R); };
  switch (Op) {
  case Prim::FAdd: {
    double Acc = Xs[0];
    for (size_t I = 1; I < Xs.size(); ++I)
      Acc += Xs[I];
    return One(Acc);
  }
  case Prim::FSub: {
    if (Xs.size() == 1)
      return One(-Xs[0]);
    double Acc = Xs[0];
    for (size_t I = 1; I < Xs.size(); ++I)
      Acc -= Xs[I];
    return One(Acc);
  }
  case Prim::FMul: {
    double Acc = Xs[0];
    for (size_t I = 1; I < Xs.size(); ++I)
      Acc *= Xs[I];
    return One(Acc);
  }
  case Prim::FDiv: {
    if (Xs.size() == 1)
      return Xs[0] == 0 ? std::nullopt : std::optional<Value>(One(1.0 / Xs[0]));
    double Acc = Xs[0];
    for (size_t I = 1; I < Xs.size(); ++I) {
      if (Xs[I] == 0)
        return std::nullopt;
      Acc /= Xs[I];
    }
    return One(Acc);
  }
  case Prim::FNeg:
    return One(-Xs[0]);
  case Prim::FAbs:
    return One(std::fabs(Xs[0]));
  case Prim::FMax: {
    double Acc = Xs[0];
    for (double X : Xs)
      Acc = std::max(Acc, X);
    return One(Acc);
  }
  case Prim::FMin: {
    double Acc = Xs[0];
    for (double X : Xs)
      Acc = std::min(Acc, X);
    return One(Acc);
  }
  case Prim::FSqrt:
    return Xs[0] < 0 ? std::nullopt : std::optional<Value>(One(std::sqrt(Xs[0])));
  case Prim::FSin:
    return One(std::sin(Xs[0]));
  case Prim::FCos:
    return One(std::cos(Xs[0]));
  case Prim::FExp:
    return One(std::exp(Xs[0]));
  case Prim::FLog:
    return Xs[0] <= 0 ? std::nullopt : std::optional<Value>(One(std::log(Xs[0])));
  case Prim::FSinc:
    return One(std::sin(Xs[0] * 2.0 * M_PI));
  case Prim::FCosc:
    return One(std::cos(Xs[0] * 2.0 * M_PI));
  case Prim::FAtan:
    return One(std::atan2(Xs[0], Xs[1]));
  default:
    return std::nullopt;
  }
}

} // namespace

std::optional<Value> opt::foldPrim(const PrimInfo &Info,
                                   const std::vector<Value> &Args,
                                   sexpr::Heap &H,
                                   const sexpr::SymbolTable &Syms) {
  using sexpr::ArithOp;
  using sexpr::CompareOp;
  if (!Info.acceptsArgCount(Args.size()))
    return std::nullopt;

  auto Bool = [&Syms](std::optional<bool> B) -> std::optional<Value> {
    if (!B)
      return std::nullopt;
    return boolValue(*B, Syms);
  };

  switch (Info.Op) {
  case Prim::Add:
    return foldArithChain(ArithOp::Add, Value::fixnum(0), false, Args, H);
  case Prim::Sub:
    return foldArithChain(ArithOp::Sub, Value::fixnum(0), true, Args, H);
  case Prim::Mul:
    return foldArithChain(ArithOp::Mul, Value::fixnum(1), false, Args, H);
  case Prim::Div:
    return foldArithChain(ArithOp::Div, Value::fixnum(1), true, Args, H);
  case Prim::Neg:
    return sexpr::negate(H, Args[0]);
  case Prim::Add1:
    return sexpr::add1(H, Args[0]);
  case Prim::Sub1:
    return sexpr::sub1(H, Args[0]);
  case Prim::Abs:
    return sexpr::numAbs(H, Args[0]);
  case Prim::Max:
    return foldArithChain(ArithOp::Max, Value::fixnum(0), false, Args, H);
  case Prim::Min:
    return foldArithChain(ArithOp::Min, Value::fixnum(0), false, Args, H);
  case Prim::Floor:
  case Prim::Ceiling:
  case Prim::Truncate:
  case Prim::Round:
  case Prim::Mod:
  case Prim::Rem:
  case Prim::Expt: {
    ArithOp Op = Info.Op == Prim::Floor      ? ArithOp::Floor
                 : Info.Op == Prim::Ceiling  ? ArithOp::Ceiling
                 : Info.Op == Prim::Truncate ? ArithOp::Truncate
                 : Info.Op == Prim::Round    ? ArithOp::Round
                 : Info.Op == Prim::Mod      ? ArithOp::Mod
                 : Info.Op == Prim::Rem      ? ArithOp::Rem
                                             : ArithOp::Expt;
    return sexpr::arith(H, Op, Args[0], Args[1]);
  }
  case Prim::Sqrt: {
    auto D = sexpr::toDouble(Args[0]);
    if (!D || *D < 0)
      return std::nullopt;
    return Value::flonum(std::sqrt(*D));
  }
  case Prim::ToFloat: {
    auto D = sexpr::toDouble(Args[0]);
    if (!D)
      return std::nullopt;
    return Value::flonum(*D);
  }

  case Prim::NumEq:
    return foldCompareChain(CompareOp::Eq, Args, Syms);
  case Prim::NumNe:
    return foldCompareChain(CompareOp::Ne, Args, Syms);
  case Prim::Lt:
    return foldCompareChain(CompareOp::Lt, Args, Syms);
  case Prim::Gt:
    return foldCompareChain(CompareOp::Gt, Args, Syms);
  case Prim::Le:
    return foldCompareChain(CompareOp::Le, Args, Syms);
  case Prim::Ge:
    return foldCompareChain(CompareOp::Ge, Args, Syms);
  case Prim::Zerop:
    return Bool(sexpr::isZero(Args[0]));
  case Prim::Oddp:
    return Bool(sexpr::isOdd(Args[0]));
  case Prim::Evenp:
    return Bool(sexpr::isEven(Args[0]));
  case Prim::Plusp:
    return Bool(sexpr::isPlus(Args[0]));
  case Prim::Minusp:
    return Bool(sexpr::isMinus(Args[0]));

  case Prim::FAdd:
  case Prim::FSub:
  case Prim::FMul:
  case Prim::FDiv:
  case Prim::FNeg:
  case Prim::FAbs:
  case Prim::FMax:
  case Prim::FMin:
  case Prim::FSqrt:
  case Prim::FSin:
  case Prim::FCos:
  case Prim::FExp:
  case Prim::FLog:
  case Prim::FSinc:
  case Prim::FCosc:
  case Prim::FAtan:
    return foldFloat(Info.Op, Args);

  case Prim::FLt:
  case Prim::FGt:
  case Prim::FLe:
  case Prim::FGe:
  case Prim::FEq: {
    auto A = sexpr::toDouble(Args[0]), B = sexpr::toDouble(Args[1]);
    if (!A || !B)
      return std::nullopt;
    switch (Info.Op) {
    case Prim::FLt:
      return boolValue(*A < *B, Syms);
    case Prim::FGt:
      return boolValue(*A > *B, Syms);
    case Prim::FLe:
      return boolValue(*A <= *B, Syms);
    case Prim::FGe:
      return boolValue(*A >= *B, Syms);
    default:
      return boolValue(*A == *B, Syms);
    }
  }

  case Prim::XAdd:
  case Prim::XSub:
  case Prim::XMul:
  case Prim::XNeg:
  case Prim::XLt:
  case Prim::XGt:
  case Prim::XLe:
  case Prim::XGe:
  case Prim::XEq: {
    std::vector<int64_t> Xs;
    for (Value A : Args) {
      if (!A.isFixnum())
        return std::nullopt;
      Xs.push_back(A.fixnum());
    }
    auto Fix = [](uint64_t X) { return Value::fixnum(static_cast<int64_t>(X)); };
    switch (Info.Op) {
    case Prim::XNeg:
      return Fix(-static_cast<uint64_t>(Xs[0]));
    case Prim::XLt:
      return boolValue(Xs[0] < Xs[1], Syms);
    case Prim::XGt:
      return boolValue(Xs[0] > Xs[1], Syms);
    case Prim::XLe:
      return boolValue(Xs[0] <= Xs[1], Syms);
    case Prim::XGe:
      return boolValue(Xs[0] >= Xs[1], Syms);
    case Prim::XEq:
      return boolValue(Xs[0] == Xs[1], Syms);
    default: {
      uint64_t Acc = static_cast<uint64_t>(Xs[0]);
      if (Xs.size() == 1 && Info.Op == Prim::XSub)
        return Fix(-Acc);
      for (size_t I = 1; I < Xs.size(); ++I) {
        uint64_t B = static_cast<uint64_t>(Xs[I]);
        Acc = Info.Op == Prim::XAdd ? Acc + B
              : Info.Op == Prim::XSub ? Acc - B
                                      : Acc * B;
      }
      return Fix(Acc);
    }
    }
  }

  case Prim::Null:
  case Prim::Not:
    return boolValue(Args[0].isNil(), Syms);
  case Prim::Atom:
    return boolValue(Args[0].isAtom(), Syms);
  case Prim::Consp:
    return boolValue(Args[0].isCons(), Syms);
  case Prim::Listp:
    return boolValue(Args[0].isCons() || Args[0].isNil(), Syms);
  case Prim::Symbolp:
    return boolValue(Args[0].isSymbol(), Syms);
  case Prim::Numberp:
    return boolValue(Args[0].isNumber(), Syms);
  case Prim::Floatp:
    return boolValue(Args[0].isFlonum(), Syms);
  case Prim::Integerp:
    return boolValue(Args[0].isFixnum(), Syms);
  case Prim::Stringp:
    return boolValue(Args[0].isString(), Syms);
  case Prim::Eq:
  case Prim::Eql:
    return boolValue(sexpr::eql(Args[0], Args[1]), Syms);
  case Prim::Equal:
    return boolValue(sexpr::equal(Args[0], Args[1]), Syms);

  case Prim::Car:
  case Prim::Cdr:
  case Prim::Caar:
  case Prim::Cadr:
  case Prim::Cddr:
  case Prim::Cdar: {
    Value V = Args[0];
    if (!V.isNil() && !V.isCons())
      return std::nullopt;
    switch (Info.Op) {
    case Prim::Car:
      return V.car();
    case Prim::Cdr:
      return V.cdr();
    case Prim::Caar:
      return V.car().car();
    case Prim::Cadr:
      return V.cdr().car();
    case Prim::Cddr:
      return V.cdr().cdr();
    default:
      return V.car().cdr();
    }
  }
  case Prim::Nth:
  case Prim::NthCdr: {
    if (!Args[0].isFixnum() || Args[0].fixnum() < 0)
      return std::nullopt;
    Value L = Args[1];
    for (int64_t I = 0; I < Args[0].fixnum() && L.isCons(); ++I)
      L = L.cdr();
    return Info.Op == Prim::Nth ? L.car() : L;
  }
  case Prim::Length: {
    if (Args[0].isString())
      return Value::fixnum(static_cast<int64_t>(Args[0].stringValue().size()));
    if (!sexpr::isProperList(Args[0]))
      return std::nullopt;
    return Value::fixnum(static_cast<int64_t>(sexpr::listLength(Args[0])));
  }
  case Prim::Identity:
    return Args[0];

  default:
    // Allocating, mutating, or control primitives never fold.
    return std::nullopt;
  }
}
