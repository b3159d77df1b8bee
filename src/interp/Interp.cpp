//===- interp/Interp.cpp --------------------------------------------------===//

#include "interp/Interp.h"

#include "sexpr/Numbers.h"
#include "sexpr/Printer.h"
#include "stats/Stats.h"

#include <cmath>

using namespace s1lisp;
using namespace s1lisp::interp;
using namespace s1lisp::ir;
using sexpr::Value;

S1_STAT(NumGcCollections, "gc.collections", "runtime-heap collections");
S1_STAT(NumGcCellsSwept, "gc.cells.swept", "runtime-heap cells reclaimed");
S1_STAT(NumGcPauseNs, "gc.pause.ns", "total collection pause nanoseconds");

std::string RtValue::str() const {
  switch (K) {
  case Kind::Data:
    return sexpr::toString(Data);
  case Kind::Closure:
    return "#<function>";
  case Kind::Builtin:
    return std::string("#<builtin ") + Prim->Name + ">";
  case Kind::Array:
    return "#<float-array>";
  }
  return "?";
}

bool interp::rtEql(RtValue A, RtValue B) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case RtValue::Kind::Data:
    return sexpr::eql(A.dataValue(), B.dataValue());
  case RtValue::Kind::Closure:
    return A.closureValue() == B.closureValue();
  case RtValue::Kind::Builtin:
    return A.builtinValue() == B.builtinValue();
  case RtValue::Kind::Array:
    return A.arrayValue() == B.arrayValue();
  }
  return false;
}

bool interp::rtEqual(RtValue A, RtValue B) {
  if (A.kind() == RtValue::Kind::Data && B.kind() == RtValue::Kind::Data)
    return sexpr::equal(A.dataValue(), B.dataValue());
  return rtEql(A, B);
}

//===----------------------------------------------------------------------===//
// The foldable primitives
//===----------------------------------------------------------------------===//

namespace {

bool allData(std::span<const RtValue> Args) {
  for (const RtValue &A : Args)
    if (!A.isData())
      return false;
  return true;
}

std::string wrongTypeText(const char *Op) {
  return std::string("wrong type of argument to '") + Op + "'";
}

/// Coerces a data number to double for the $f operators (the run-time
/// type check + dereference of §6.2).
bool toF(const RtValue &A, double &Out) {
  if (!A.isData())
    return false;
  auto D = sexpr::toDouble(A.dataValue());
  if (!D)
    return false;
  Out = *D;
  return true;
}

/// applyFoldable's definitions, over the heap their numbers live in.
struct Foldable {
  sexpr::Heap &H;
  const sexpr::SymbolTable &Syms;

  using Args = std::span<const RtValue>;

  static PrimResult ok(Value V) { return {true, RtValue::data(V), {}}; }
  static PrimResult okFlo(double D) { return ok(Value::flonum(D)); }
  PrimResult okBool(bool B) {
    return ok(B ? Value::symbol(Syms.t()) : Value::nil());
  }
  static PrimResult wrongType(const char *Op) {
    return {false, RtValue(), wrongTypeText(Op)};
  }
  static PrimResult okOrWrongType(std::optional<Value> V, const char *Op) {
    return V ? ok(*V) : wrongType(Op);
  }

  /// Generic n-ary arithmetic reduction, CL style: no arguments give
  /// \p Unit, and one gives \p Unary of it (itself when null).
  PrimResult reduceArith(sexpr::ArithOp Op, Args As, Value Unit,
                         std::optional<Value> (*Unary)(sexpr::Heap &, Value),
                         const char *Name) {
    if (!allData(As))
      return wrongType(Name);
    if (As.empty())
      return ok(Unit);
    Value Acc = As[0].dataValue();
    // A lone argument is still an operand: (+ nil) and (max nil) are type
    // errors, as in compiled code.
    if (As.size() == 1 && !Acc.isNumber())
      return wrongType(Name);
    if (As.size() == 1 && Unary)
      return okOrWrongType(Unary(H, Acc), Name);
    for (size_t J = 1; J < As.size(); ++J) {
      auto R = sexpr::arith(H, Op, Acc, As[J].dataValue());
      if (!R)
        return wrongType(Name);
      Acc = *R;
    }
    return ok(Acc);
  }

  PrimResult chainCompare(sexpr::CompareOp Op, Args As, const char *Name) {
    if (!allData(As))
      return wrongType(Name);
    for (size_t J = 0; J + 1 < As.size(); ++J) {
      auto R = sexpr::compare(Op, As[J].dataValue(), As[J + 1].dataValue());
      if (!R)
        return wrongType(Name);
      if (!*R)
        return ok(Value::nil());
    }
    return okBool(true);
  }

  /// The n-ary $f operators: one argument gives \p Unary of it (itself
  /// when null).
  static PrimResult foldF(Args As, const char *Name,
                          double (*Step)(double, double),
                          double (*Unary)(double)) {
    double Acc = 0;
    for (size_t J = 0; J < As.size(); ++J) {
      double X = 0;
      if (!toF(As[J], X))
        return wrongType(Name);
      Acc = J == 0 ? X : Step(Acc, X);
    }
    return okFlo(As.size() == 1 && Unary ? Unary(Acc) : Acc);
  }

  PrimResult cmpF(Args As, const char *Name, bool (*Pred)(double, double)) {
    double A = 0, B = 0;
    if (As.size() != 2 || !toF(As[0], A) || !toF(As[1], B))
      return wrongType(Name);
    return okBool(Pred(A, B));
  }

  PrimResult apply(Prim Op, Args As);
};

PrimResult Foldable::apply(Prim Op, Args As) {
  using sexpr::ArithOp;
  using sexpr::CompareOp;
  auto dataArg = [&](size_t J) { return As[J].dataValue(); };

  switch (Op) {
  // --- generic arithmetic ---
  case Prim::Add:
    return reduceArith(ArithOp::Add, As, Value::fixnum(0), nullptr, "+");
  case Prim::Sub:
    // Unary minus negates, so (- 0.0) is -0.0 as in Common Lisp.
    return reduceArith(ArithOp::Sub, As, Value::fixnum(0), sexpr::negate, "-");
  case Prim::Mul:
    return reduceArith(ArithOp::Mul, As, Value::fixnum(1), nullptr, "*");
  case Prim::Div:
    return reduceArith(
        ArithOp::Div, As, Value::fixnum(1),
        [](sexpr::Heap &H, Value X) {
          return sexpr::arith(H, ArithOp::Div, Value::fixnum(1), X);
        },
        "/");
  case Prim::Add1:
    if (!allData(As))
      return wrongType("1+");
    return okOrWrongType(sexpr::add1(H, dataArg(0)), "1+");
  case Prim::Sub1:
    if (!allData(As))
      return wrongType("1-");
    return okOrWrongType(sexpr::sub1(H, dataArg(0)), "1-");
  case Prim::Neg:
    if (!allData(As))
      return wrongType("neg");
    return okOrWrongType(sexpr::negate(H, dataArg(0)), "neg");
  case Prim::Abs:
    if (!allData(As))
      return wrongType("abs");
    return okOrWrongType(sexpr::numAbs(H, dataArg(0)), "abs");
  case Prim::Max:
    return reduceArith(ArithOp::Max, As, Value::fixnum(0), nullptr, "max");
  case Prim::Min:
    return reduceArith(ArithOp::Min, As, Value::fixnum(0), nullptr, "min");
  case Prim::Floor:
  case Prim::Ceiling:
  case Prim::Truncate:
  case Prim::Round:
  case Prim::Mod:
  case Prim::Rem:
  case Prim::Expt: {
    static const std::pair<Prim, ArithOp> Map[] = {
        {Prim::Floor, ArithOp::Floor},       {Prim::Ceiling, ArithOp::Ceiling},
        {Prim::Truncate, ArithOp::Truncate}, {Prim::Round, ArithOp::Round},
        {Prim::Mod, ArithOp::Mod},           {Prim::Rem, ArithOp::Rem},
        {Prim::Expt, ArithOp::Expt}};
    ArithOp AOp = ArithOp::Floor;
    for (auto [P, A] : Map)
      if (P == Op)
        AOp = A;
    if (!allData(As))
      return wrongType("integer-division");
    return okOrWrongType(sexpr::arith(H, AOp, dataArg(0), dataArg(1)),
                         "integer-division");
  }
  case Prim::Sqrt: {
    double X;
    if (!toF(As[0], X) || X < 0)
      return wrongType("sqrt");
    return okFlo(std::sqrt(X));
  }
  case Prim::ToFloat: {
    double X;
    if (!toF(As[0], X))
      return wrongType("float");
    return okFlo(X);
  }

  // --- generic comparisons ---
  case Prim::NumEq:
    return chainCompare(CompareOp::Eq, As, "=");
  case Prim::NumNe:
    return chainCompare(CompareOp::Ne, As, "/=");
  case Prim::Lt:
    return chainCompare(CompareOp::Lt, As, "<");
  case Prim::Gt:
    return chainCompare(CompareOp::Gt, As, ">");
  case Prim::Le:
    return chainCompare(CompareOp::Le, As, "<=");
  case Prim::Ge:
    return chainCompare(CompareOp::Ge, As, ">=");
  case Prim::Zerop:
  case Prim::Oddp:
  case Prim::Evenp:
  case Prim::Plusp:
  case Prim::Minusp: {
    if (!allData(As))
      return wrongType("numeric predicate");
    std::optional<bool> R;
    switch (Op) {
    case Prim::Zerop:
      R = sexpr::isZero(dataArg(0));
      break;
    case Prim::Oddp:
      R = sexpr::isOdd(dataArg(0));
      break;
    case Prim::Evenp:
      R = sexpr::isEven(dataArg(0));
      break;
    case Prim::Plusp:
      R = sexpr::isPlus(dataArg(0));
      break;
    default:
      R = sexpr::isMinus(dataArg(0));
      break;
    }
    return R ? okBool(*R) : wrongType("numeric predicate");
  }

  // --- $f float world ---
  case Prim::FAdd:
    return foldF(As, "+$f", [](double A, double B) { return A + B; }, nullptr);
  case Prim::FSub:
    return foldF(As, "-$f", [](double A, double B) { return A - B; },
                 [](double X) { return -X; });
  case Prim::FMul:
    return foldF(As, "*$f", [](double A, double B) { return A * B; }, nullptr);
  case Prim::FDiv:
    return foldF(As, "/$f", [](double A, double B) { return A / B; },
                 [](double X) { return 1 / X; });
  case Prim::FMax:
    return foldF(As, "max$f",
                 [](double A, double B) { return std::max(A, B); }, nullptr);
  case Prim::FMin:
    return foldF(As, "min$f",
                 [](double A, double B) { return std::min(A, B); }, nullptr);
  case Prim::FNeg: {
    double X;
    if (!toF(As[0], X))
      return wrongType("neg$f");
    return okFlo(-X);
  }
  case Prim::FAbs: {
    double X;
    if (!toF(As[0], X))
      return wrongType("abs$f");
    return okFlo(std::fabs(X));
  }
  case Prim::FSqrt:
  case Prim::FSin:
  case Prim::FCos:
  case Prim::FExp:
  case Prim::FLog:
  case Prim::FSinc:
  case Prim::FCosc: {
    double X;
    if (!toF(As[0], X))
      return wrongType("float unary");
    switch (Op) {
    case Prim::FSqrt:
      return okFlo(std::sqrt(X));
    case Prim::FSin:
      return okFlo(std::sin(X));
    case Prim::FCos:
      return okFlo(std::cos(X));
    case Prim::FExp:
      return okFlo(std::exp(X));
    case Prim::FLog:
      return okFlo(std::log(X));
    case Prim::FSinc: // sine of an argument in cycles (the S-1 SIN unit)
      return okFlo(std::sin(X * 2.0 * M_PI));
    default:
      return okFlo(std::cos(X * 2.0 * M_PI));
    }
  }
  case Prim::FAtan: {
    double Y, X;
    if (!toF(As[0], Y) || !toF(As[1], X))
      return wrongType("atan$f");
    return okFlo(std::atan2(Y, X));
  }
  case Prim::FLt:
    return cmpF(As, "<$f", [](double A, double B) { return A < B; });
  case Prim::FGt:
    return cmpF(As, ">$f", [](double A, double B) { return A > B; });
  case Prim::FLe:
    return cmpF(As, "<=$f", [](double A, double B) { return A <= B; });
  case Prim::FGe:
    return cmpF(As, ">=$f", [](double A, double B) { return A >= B; });
  case Prim::FEq:
    return cmpF(As, "=$f", [](double A, double B) { return A == B; });

  // --- & fixnum world (wrapping 64-bit, like raw machine words) ---
  case Prim::XAdd:
  case Prim::XSub:
  case Prim::XMul:
  case Prim::XNeg:
  case Prim::XLt:
  case Prim::XGt:
  case Prim::XLe:
  case Prim::XGe:
  case Prim::XEq: {
    std::vector<int64_t> Xs(As.size());
    for (size_t J = 0; J < As.size(); ++J) {
      if (!As[J].isData() || !As[J].dataValue().isFixnum())
        return wrongType("fixnum operator");
      Xs[J] = As[J].dataValue().fixnum();
    }
    auto Wrap = [](uint64_t X) {
      return ok(Value::fixnum(static_cast<int64_t>(X)));
    };
    switch (Op) {
    case Prim::XNeg:
      return Wrap(-static_cast<uint64_t>(Xs[0]));
    case Prim::XLt:
      return okBool(Xs[0] < Xs[1]);
    case Prim::XGt:
      return okBool(Xs[0] > Xs[1]);
    case Prim::XLe:
      return okBool(Xs[0] <= Xs[1]);
    case Prim::XGe:
      return okBool(Xs[0] >= Xs[1]);
    case Prim::XEq:
      return okBool(Xs[0] == Xs[1]);
    default: {
      uint64_t Acc = static_cast<uint64_t>(Xs[0]);
      if (Xs.size() == 1 && Op == Prim::XSub)
        return Wrap(-Acc);
      for (size_t J = 1; J < Xs.size(); ++J) {
        uint64_t B = static_cast<uint64_t>(Xs[J]);
        Acc = Op == Prim::XAdd ? Acc + B : Op == Prim::XSub ? Acc - B : Acc * B;
      }
      return Wrap(Acc);
    }
    }
  }

  // --- predicates ---
  case Prim::Null:
  case Prim::Not:
    return okBool(!As[0].isTrue());
  case Prim::Atom:
    return okBool(!As[0].isData() || dataArg(0).isAtom());
  case Prim::Consp:
    return okBool(As[0].isData() && dataArg(0).isCons());
  case Prim::Listp:
    return okBool(As[0].isData() &&
                  (dataArg(0).isCons() || dataArg(0).isNil()));
  case Prim::Symbolp:
    return okBool(As[0].isData() && dataArg(0).isSymbol());
  case Prim::Numberp:
    return okBool(As[0].isData() && dataArg(0).isNumber());
  case Prim::Floatp:
    return okBool(As[0].isData() && dataArg(0).isFlonum());
  case Prim::Integerp:
    return okBool(As[0].isData() && dataArg(0).isFixnum());
  case Prim::Stringp:
    return okBool(As[0].isData() && dataArg(0).isString());
  case Prim::Eq:
    // eq is not guaranteed on numbers (§6.3); on data we approximate with
    // eql, which the paper notes is the dependable predicate.
    return okBool(rtEql(As[0], As[1]));
  case Prim::Eql:
    return okBool(rtEql(As[0], As[1]));
  case Prim::Equal:
    return okBool(rtEqual(As[0], As[1]));

  // --- lists ---
  case Prim::Car:
  case Prim::Cdr:
  case Prim::Caar:
  case Prim::Cadr:
  case Prim::Cddr:
  case Prim::Cdar: {
    // The steps of c[ad]+r, applied right to left; as in compiled code,
    // each one needs a list.
    std::string_view Steps = Op == Prim::Car    ? "a"
                             : Op == Prim::Cdr  ? "d"
                             : Op == Prim::Caar ? "aa"
                             : Op == Prim::Cadr ? "ad"
                             : Op == Prim::Cddr ? "dd"
                                                : "da";
    if (!As[0].isData())
      return wrongType("car/cdr");
    Value V = dataArg(0);
    for (size_t J = Steps.size(); J > 0; --J) {
      if (!V.isNil() && !V.isCons())
        return wrongType("car/cdr");
      V = Steps[J - 1] == 'a' ? V.car() : V.cdr();
    }
    return ok(V);
  }
  case Prim::Nth:
  case Prim::NthCdr: {
    if (!allData(As) || !dataArg(0).isFixnum())
      return wrongType("nth");
    int64_t K = dataArg(0).fixnum();
    Value L = dataArg(1);
    for (int64_t J = 0; J < K && L.isCons(); ++J)
      L = L.cdr();
    if (Op == Prim::NthCdr)
      return ok(L);
    // As in compiled code, nth past the last cons is nil.
    return ok(L.isCons() ? L.car() : Value::nil());
  }
  case Prim::Length: {
    if (!As[0].isData())
      return wrongType("length");
    Value V = dataArg(0);
    if (V.isString())
      return ok(Value::fixnum(static_cast<int64_t>(V.stringValue().size())));
    if (!sexpr::isProperList(V))
      return wrongType("length");
    return ok(Value::fixnum(static_cast<int64_t>(sexpr::listLength(V))));
  }
  case Prim::Identity:
    return {true, As[0], {}};

  default:
    break;
  }
  assert(false && "not a foldable primitive");
  return {false, RtValue(), "not a foldable primitive"};
}

} // namespace

PrimResult interp::applyFoldable(Prim Op, std::span<const RtValue> Args,
                                 sexpr::Heap &H,
                                 const sexpr::SymbolTable &Syms) {
  return Foldable{H, Syms}.apply(Op, Args);
}

//===----------------------------------------------------------------------===//
// The evaluator
//===----------------------------------------------------------------------===//

namespace {

/// Evaluation outcome: a value, an error, or an in-flight control transfer.
struct Outcome {
  enum class St : uint8_t { Ok, Error, Throw, Go, Return, TailCall };
  St Status = St::Ok;
  RtValue Val;      ///< Ok value / Throw payload / Return payload.
  RtValue ThrowTag; ///< Throw only.
  std::string Error;
  const GoNode *GoSrc = nullptr;
  const ReturnNode *RetSrc = nullptr;
  RtValue Callee; ///< TailCall only.
  std::vector<RtValue> Args;

  static Outcome ok(RtValue V) {
    Outcome O;
    O.Val = V;
    return O;
  }
  static Outcome error(std::string Msg) {
    Outcome O;
    O.Status = St::Error;
    O.Error = std::move(Msg);
    return O;
  }
  bool isOk() const { return Status == St::Ok; }
};

} // namespace

namespace s1lisp {
namespace interp {

/// The recursive evaluator; friend of Interpreter.
struct Evaluator {
  Interpreter &I;
  uint64_t ApplyDepth = 0;

  explicit Evaluator(Interpreter &I) : I(I) {}

  sexpr::Heap &heap() { return I.RtHeap; }
  InterpStats &stats() { return I.Stats; }

  //===--------------------------------------------------------------------===//
  // Transient GC roots
  //
  // Only cons() can trigger a collection, and it roots its own arguments;
  // these RAII guards cover every C++ local that holds a heap value
  // *across* a possible cons — argument vectors being filled, callee
  // values and catch tags held over evaluation. Cells never move, so a
  // value reachable from a rooted one (a cursor into an argument list,
  // say) needs no root of its own.
  //===--------------------------------------------------------------------===//

  struct RtVecRoot {
    Interpreter &I;
    RtVecRoot(Interpreter &I, std::vector<RtValue> *V) : I(I) {
      I.Roots.RtVecs.push_back(V);
    }
    ~RtVecRoot() { I.Roots.RtVecs.pop_back(); }
    RtVecRoot(const RtVecRoot &) = delete;
    RtVecRoot &operator=(const RtVecRoot &) = delete;
  };
  struct RtValRoot {
    Interpreter &I;
    RtValRoot(Interpreter &I, RtValue *V) : I(I) {
      I.Roots.RtVals.push_back(V);
    }
    ~RtValRoot() { I.Roots.RtVals.pop_back(); }
    RtValRoot(const RtValRoot &) = delete;
    RtValRoot &operator=(const RtValRoot &) = delete;
  };

  /// The memoized no-environment closure for a global function. One per
  /// function per interpreter: repeated calls reuse it, so the closure
  /// table stays O(functions) no matter how long a GC-stressed run gets.
  Closure *globalClosure(Function *F) {
    auto [It, New] = I.GlobalClosures.try_emplace(F, nullptr);
    if (New) {
      I.Closures.push_back({F->Root, nullptr});
      It->second = &I.Closures.back();
    }
    return It->second;
  }

  //===--------------------------------------------------------------------===//
  // Environment access
  //===--------------------------------------------------------------------===//

  RtValue *lookupLexical(const EnvPtr &Env, Variable *V) {
    for (EnvFrame *F = Env.get(); F; F = F->Parent.get())
      for (auto &Slot : F->Slots)
        if (Slot.first == V)
          return &Slot.second;
    return nullptr;
  }

  RtValue *lookupSpecial(const sexpr::Symbol *Name) {
    ++stats().SpecialSearches;
    for (size_t J = I.SpecialStack.size(); J > 0; --J) {
      ++stats().SpecialSearchSteps;
      if (I.SpecialStack[J - 1].first == Name)
        return &I.SpecialStack[J - 1].second;
    }
    for (auto &G : I.SpecialGlobals)
      if (G.first == Name)
        return &G.second;
    return nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Application
  //===--------------------------------------------------------------------===//

  static Outcome wrongArgCount(size_t N) {
    return Outcome::error("wrong number of arguments (" + std::to_string(N) +
                          ")");
  }

  Outcome apply(RtValue Callee, std::vector<RtValue> Args) {
    ++ApplyDepth;
    stats().MaxApplyDepth = std::max(stats().MaxApplyDepth, ApplyDepth);

    // Args stays rooted for the whole trampoline: optional-default
    // evaluation, &rest consing, and the body may all collect. A tail
    // call move-assigns into this same vector, so the root stays valid
    // across transfers.
    RtVecRoot ArgsRoot(I, &Args);

    Outcome Result = Outcome::ok(RtValue());
    // Trampoline: a tail call replaces Callee/Args and loops, giving the
    // dialect's "parameter-passing goto" semantics without stack growth.
    while (true) {
      ++stats().Applies;
      if (stats().Steps > I.Fuel) {
        Result = Outcome::error("evaluation fuel exhausted");
        break;
      }
      if (Callee.kind() == RtValue::Kind::Builtin) {
        const PrimInfo &P = *Callee.builtinValue();
        Result = P.acceptsArgCount(Args.size()) ? applyPrim(P, Args)
                                                : wrongArgCount(Args.size());
        break;
      }
      if (Callee.kind() != RtValue::Kind::Closure) {
        Result = Outcome::error("attempt to call a non-function: " + Callee.str());
        break;
      }

      Closure *C = Callee.closureValue();
      const LambdaNode *L = C->Lambda;
      if (!L->acceptsArgCount(Args.size())) {
        Result = wrongArgCount(Args.size());
        break;
      }

      EnvPtr Frame = I.makeFrame(C->Env);
      size_t SpecialMark = I.SpecialStack.size();
      bool BoundSpecials = false;

      auto bindParam = [&](Variable *V, RtValue Arg) {
        if (V->isSpecial()) {
          I.SpecialStack.push_back({V->name(), Arg});
          BoundSpecials = true;
        } else {
          Frame->Slots.push_back({V, Arg});
        }
      };

      size_t Idx = 0;
      for (Variable *P : L->Required)
        bindParam(P, Args[Idx++]);
      Outcome DefaultErr;
      bool HadDefaultErr = false;
      for (const auto &O : L->Optionals) {
        if (Idx < Args.size()) {
          bindParam(O.Var, Args[Idx++]);
          continue;
        }
        // Default computations may be arbitrary code over earlier params.
        Outcome D = eval(O.Default, Frame, /*Tail=*/false);
        if (!D.isOk()) {
          DefaultErr = D;
          HadDefaultErr = true;
          break;
        }
        bindParam(O.Var, D.Val);
      }
      if (HadDefaultErr) {
        I.SpecialStack.resize(SpecialMark);
        Result = DefaultErr;
        break;
      }
      if (L->Rest) {
        Value RestList = Value::nil();
        bool RestError = false;
        for (size_t J = Args.size(); J > Idx; --J) {
          if (!Args[J - 1].isData()) {
            RestError = true;
            break;
          }
          RestList = heap().cons(Args[J - 1].dataValue(), RestList);
          ++stats().ConsAllocs;
        }
        if (RestError) {
          I.SpecialStack.resize(SpecialMark);
          Result = Outcome::error("cannot place a function object in a &rest list");
          break;
        }
        bindParam(L->Rest, RtValue::data(RestList));
      }

      // Tail calls are only safe to trampoline when this frame pushed no
      // dynamic bindings (they must stay live until the callee returns).
      Outcome BodyOut = eval(L->Body, Frame, /*Tail=*/!BoundSpecials);
      I.SpecialStack.resize(SpecialMark);

      if (BodyOut.Status == Outcome::St::TailCall) {
        Callee = BodyOut.Callee;
        Args = std::move(BodyOut.Args);
        ++stats().TailTransfers;
        continue;
      }
      Result = BodyOut;
      break;
    }
    --ApplyDepth;
    return Result;
  }

  //===--------------------------------------------------------------------===//
  // Core dispatch
  //===--------------------------------------------------------------------===//

  Outcome eval(const Node *N, const EnvPtr &Env, bool Tail) {
    if (++stats().Steps > I.Fuel)
      return Outcome::error("evaluation fuel exhausted");

    switch (N->kind()) {
    case NodeKind::Literal:
      return Outcome::ok(RtValue::data(cast<LiteralNode>(N)->Datum));

    case NodeKind::VarRef: {
      Variable *V = cast<VarRefNode>(N)->Var;
      if (V->isSpecial()) {
        if (RtValue *Cell = lookupSpecial(V->name()))
          return Outcome::ok(*Cell);
        return Outcome::error("unbound special variable '" + V->name()->name() + "'");
      }
      if (RtValue *Cell = lookupLexical(Env, V))
        return Outcome::ok(*Cell);
      return Outcome::error("unbound lexical variable '" + V->debugName() + "'");
    }

    case NodeKind::Setq: {
      const auto *S = cast<SetqNode>(N);
      Outcome Val = eval(S->ValueExpr, Env, false);
      if (!Val.isOk())
        return Val;
      Variable *V = S->Var;
      if (V->isSpecial()) {
        if (RtValue *Cell = lookupSpecial(V->name())) {
          *Cell = Val.Val;
          return Val;
        }
        // setq of an unbound special creates the global binding.
        I.SpecialGlobals.push_back({V->name(), Val.Val});
        return Val;
      }
      if (RtValue *Cell = lookupLexical(Env, V)) {
        *Cell = Val.Val;
        return Val;
      }
      return Outcome::error("setq of unbound variable '" + V->debugName() + "'");
    }

    case NodeKind::If: {
      const auto *If = cast<IfNode>(N);
      Outcome T = eval(If->Test, Env, false);
      if (!T.isOk())
        return T;
      return eval(T.Val.isTrue() ? If->Then : If->Else, Env, Tail);
    }

    case NodeKind::Progn: {
      const auto *P = cast<PrognNode>(N);
      if (P->Forms.empty())
        return Outcome::ok(RtValue::data(Value::nil()));
      for (size_t J = 0; J + 1 < P->Forms.size(); ++J) {
        Outcome O = eval(P->Forms[J], Env, false);
        if (!O.isOk())
          return O;
      }
      return eval(P->Forms.back(), Env, Tail);
    }

    case NodeKind::Lambda: {
      I.Closures.push_back({cast<LambdaNode>(N), Env});
      return Outcome::ok(RtValue::closure(&I.Closures.back()));
    }

    case NodeKind::Call:
      return evalCall(cast<CallNode>(N), Env, Tail);

    case NodeKind::Caseq: {
      const auto *C = cast<CaseqNode>(N);
      Outcome K = eval(C->Key, Env, false);
      if (!K.isOk())
        return K;
      for (const auto &Clause : C->Clauses)
        for (Value Key : Clause.Keys)
          if (K.Val.isData() && sexpr::eql(K.Val.dataValue(), Key))
            return eval(Clause.Body, Env, Tail);
      return eval(C->Default, Env, Tail);
    }

    case NodeKind::Catcher: {
      const auto *C = cast<CatcherNode>(N);
      Outcome Tag = eval(C->TagExpr, Env, false);
      if (!Tag.isOk())
        return Tag;
      // The tag is compared by identity after the body runs; the body may
      // collect.
      RtValRoot TagRoot(I, &Tag.Val);
      Outcome Body = eval(C->Body, Env, /*Tail=*/false);
      if (Body.Status == Outcome::St::Throw && rtEql(Body.ThrowTag, Tag.Val))
        return Outcome::ok(Body.Val);
      return Body;
    }

    case NodeKind::ProgBody: {
      const auto *P = cast<ProgBodyNode>(N);
      size_t Idx = 0;
      while (Idx < P->Items.size()) {
        const auto &Item = P->Items[Idx];
        if (!Item.Stmt) {
          ++Idx;
          continue;
        }
        Outcome O = eval(Item.Stmt, Env, false);
        if (O.Status == Outcome::St::Go && O.GoSrc->Target == P) {
          bool Found = false;
          for (size_t J = 0; J < P->Items.size(); ++J)
            if (P->Items[J].Tag == O.GoSrc->Tag) {
              Idx = J + 1;
              Found = true;
              break;
            }
          if (!Found)
            return Outcome::error("go to missing tag");
          continue;
        }
        if (O.Status == Outcome::St::Return && O.RetSrc->Target == P)
          return Outcome::ok(O.Val);
        if (!O.isOk())
          return O;
        ++Idx;
      }
      return Outcome::ok(RtValue::data(Value::nil())); // fell off the end
    }

    case NodeKind::Go: {
      Outcome O;
      O.Status = Outcome::St::Go;
      O.GoSrc = cast<GoNode>(N);
      return O;
    }

    case NodeKind::Return: {
      const auto *R = cast<ReturnNode>(N);
      Outcome V = eval(R->ValueExpr, Env, false);
      if (!V.isOk())
        return V;
      V.Status = Outcome::St::Return;
      V.RetSrc = R;
      return V;
    }
    }
    return Outcome::error("unhandled node kind");
  }

  //===--------------------------------------------------------------------===//
  // Calls
  //===--------------------------------------------------------------------===//

  Outcome evalArgs(const std::vector<Node *> &ArgNodes, const EnvPtr &Env,
                   std::vector<RtValue> &Out) {
    // Rooted by vector pointer, so growth/reallocation is safe.
    RtVecRoot OutRoot(I, &Out);
    Out.reserve(ArgNodes.size());
    for (const Node *A : ArgNodes) {
      Outcome O = eval(A, Env, false);
      if (!O.isOk())
        return O;
      Out.push_back(O.Val);
    }
    return Outcome::ok(RtValue());
  }

  Outcome dispatch(RtValue Callee, std::vector<RtValue> Args, bool Tail) {
    if (Tail && Callee.kind() == RtValue::Kind::Closure) {
      Outcome O;
      O.Status = Outcome::St::TailCall;
      O.Callee = Callee;
      O.Args = std::move(Args);
      return O;
    }
    return apply(Callee, std::move(Args));
  }

  Outcome evalCall(const CallNode *C, const EnvPtr &Env, bool Tail) {
    // Callee-expression calls: ((lambda ...) args) and funcall-ed vars.
    if (C->CalleeExpr) {
      Outcome Callee = eval(C->CalleeExpr, Env, false);
      if (!Callee.isOk())
        return Callee;
      RtValRoot CalleeRoot(I, &Callee.Val);
      std::vector<RtValue> Args;
      Outcome AO = evalArgs(C->Args, Env, Args);
      if (!AO.isOk())
        return AO;
      return dispatch(Callee.Val, std::move(Args), Tail);
    }

    const sexpr::Symbol *Name = C->Name;
    const PrimInfo *P = lookupPrim(Name);

    // funcall / apply get first-class treatment for tail calls.
    if (P && (P->Op == Prim::Funcall || P->Op == Prim::Apply)) {
      std::vector<RtValue> Args;
      Outcome AO = evalArgs(C->Args, Env, Args);
      if (!AO.isOk())
        return AO;
      if (Args.empty())
        return Outcome::error("funcall/apply with no function");
      RtValue Callee = Args.front();
      std::vector<RtValue> CallArgs(Args.begin() + 1, Args.end());
      if (P->Op == Prim::Apply) {
        if (CallArgs.empty() || !CallArgs.back().isData() ||
            !sexpr::isProperList(CallArgs.back().dataValue()))
          return Outcome::error("apply needs a trailing argument list");
        Value Spread = CallArgs.back().dataValue();
        CallArgs.pop_back();
        for (Value Cur = Spread; Cur.isCons(); Cur = Cur.cdr())
          CallArgs.push_back(RtValue::data(Cur.car()));
      }
      return dispatch(Callee, std::move(CallArgs), Tail);
    }

    // (function f): resolve a function name to a function object.
    if (P && P->Op == Prim::FunctionRef) {
      assert(C->Args.size() == 1);
      const auto *Lit = dyn_cast<LiteralNode>(C->Args[0]);
      if (!Lit || !Lit->Datum.isSymbol())
        return Outcome::error("function needs a literal function name");
      return resolveFunction(Lit->Datum.symbol());
    }

    std::vector<RtValue> Args;
    Outcome AO = evalArgs(C->Args, Env, Args);
    if (!AO.isOk())
      return AO;

    if (P)
      return applyPrim(*P, Args);

    // User-defined global function.
    if (Function *F = I.M.lookup(Name->name()))
      return dispatch(RtValue::closure(globalClosure(F)), std::move(Args), Tail);
    return Outcome::error("undefined function '" + Name->name() + "'");
  }

  Outcome resolveFunction(const sexpr::Symbol *Name) {
    if (Function *F = I.M.lookup(Name->name()))
      return Outcome::ok(RtValue::closure(globalClosure(F)));
    if (const PrimInfo *P = lookupPrim(Name))
      return Outcome::ok(RtValue::builtin(P));
    return Outcome::error("undefined function '" + Name->name() + "'");
  }

  //===--------------------------------------------------------------------===//
  // Primitives
  //===--------------------------------------------------------------------===//

  static Outcome wrongType(const char *Op) {
    return Outcome::error(wrongTypeText(Op));
  }

  static Outcome okFlo(double D) {
    return Outcome::ok(RtValue::data(Value::flonum(D)));
  }

  Outcome applyPrim(const PrimInfo &P, std::vector<RtValue> &Args);
};

} // namespace interp
} // namespace s1lisp

Outcome Evaluator::applyPrim(const PrimInfo &P, std::vector<RtValue> &Args) {
  if (P.Foldable) {
    PrimResult R = applyFoldable(P.Op, Args, heap(), I.M.Syms);
    return R.Ok ? Outcome::ok(R.Value) : Outcome::error(std::move(R.Error));
  }
  const Prim Op = P.Op;
  sexpr::Heap &H = heap();
  // Arguments survive any collection a consing primitive triggers.
  RtVecRoot ArgsRoot(I, &Args);

  auto dataArg = [&](size_t J) { return Args[J].dataValue(); };

  switch (Op) {
  // --- lists ---
  case Prim::Cons: {
    if (!allData(Args))
      return Outcome::error("cannot place a function object in a cons");
    ++stats().ConsAllocs;
    return Outcome::ok(RtValue::data(H.cons(dataArg(0), dataArg(1))));
  }
  case Prim::List: {
    if (!allData(Args))
      return Outcome::error("cannot place a function object in a list");
    Value L = Value::nil();
    for (size_t J = Args.size(); J > 0; --J) {
      L = H.cons(dataArg(J - 1), L);
      ++stats().ConsAllocs;
    }
    return Outcome::ok(RtValue::data(L));
  }
  case Prim::Append: {
    Value Result = Value::nil();
    if (Args.empty())
      return Outcome::ok(RtValue::data(Result));
    if (!allData(Args))
      return wrongType("append");
    Result = dataArg(Args.size() - 1);
    std::vector<Value> Items;
    for (size_t J = Args.size() - 1; J > 0; --J) {
      Value Prefix = dataArg(J - 1);
      if (!sexpr::isProperList(Prefix))
        return wrongType("append");
      Items = sexpr::listToVector(Prefix);
      for (size_t K = Items.size(); K > 0; --K) {
        Result = H.cons(Items[K - 1], Result);
        ++stats().ConsAllocs;
      }
    }
    return Outcome::ok(RtValue::data(Result));
  }
  case Prim::Reverse: {
    if (!Args[0].isData() || !sexpr::isProperList(dataArg(0)))
      return wrongType("reverse");
    Value Result = Value::nil();
    for (Value Cur = dataArg(0); Cur.isCons(); Cur = Cur.cdr()) {
      Result = H.cons(Cur.car(), Result);
      ++stats().ConsAllocs;
    }
    return Outcome::ok(RtValue::data(Result));
  }
  case Prim::Rplaca:
  case Prim::Rplacd: {
    if (!allData(Args) || !dataArg(0).isCons())
      return wrongType("rplaca");
    sexpr::Cons *Cell = dataArg(0).consCell();
    if (Op == Prim::Rplaca)
      Cell->Car = dataArg(1);
    else
      Cell->Cdr = dataArg(1);
    H.writeBarrier(Cell);
    return Outcome::ok(Args[0]);
  }
  case Prim::Member: {
    if (!allData(Args))
      return wrongType("member");
    for (Value Cur = dataArg(1); Cur.isCons(); Cur = Cur.cdr())
      if (sexpr::eql(Cur.car(), dataArg(0)))
        return Outcome::ok(RtValue::data(Cur));
    return Outcome::ok(RtValue::data(Value::nil()));
  }
  case Prim::Assoc: {
    if (!allData(Args))
      return wrongType("assoc");
    for (Value Cur = dataArg(1); Cur.isCons(); Cur = Cur.cdr())
      if (Cur.car().isCons() && sexpr::eql(Cur.car().car(), dataArg(0)))
        return Outcome::ok(RtValue::data(Cur.car()));
    return Outcome::ok(RtValue::data(Value::nil()));
  }
  case Prim::Last: {
    if (!Args[0].isData())
      return wrongType("last");
    Value Cur = dataArg(0);
    while (Cur.isCons() && Cur.cdr().isCons())
      Cur = Cur.cdr();
    return Outcome::ok(RtValue::data(Cur));
  }

  // --- float arrays ---
  case Prim::MakeArrayF: {
    std::vector<int64_t> Dims;
    for (const RtValue &A : Args) {
      if (!A.isData() || !A.dataValue().isFixnum() || A.dataValue().fixnum() < 0)
        return wrongType("make-array$f");
      Dims.push_back(A.dataValue().fixnum());
    }
    if (Dims.size() == 1)
      return Outcome::ok(I.makeArray(static_cast<size_t>(Dims[0])));
    return Outcome::ok(I.makeArray(static_cast<size_t>(Dims[0]),
                                   static_cast<size_t>(Dims[1])));
  }
  case Prim::ArefF:
  case Prim::AsetF: {
    bool IsSet = Op == Prim::AsetF;
    size_t NIdx = Args.size() - 1 - (IsSet ? 1 : 0);
    if (!Args[0].isArray())
      return wrongType("aref$f");
    FloatArray *A = Args[0].arrayValue();
    if ((A->Rank2 && NIdx != 2) || (!A->Rank2 && NIdx != 1))
      return Outcome::error("array rank mismatch");
    size_t Idx[2] = {0, 0};
    for (size_t J = 0; J < NIdx; ++J) {
      if (!Args[1 + J].isData() || !Args[1 + J].dataValue().isFixnum())
        return wrongType("aref$f");
      int64_t V = Args[1 + J].dataValue().fixnum();
      if (V < 0)
        return Outcome::error("array index out of bounds");
      Idx[J] = static_cast<size_t>(V);
    }
    if (Idx[0] >= A->Dim0 || (A->Rank2 && Idx[1] >= A->Dim1))
      return Outcome::error("array index out of bounds");
    if (!IsSet)
      return okFlo(A->at(Idx[0], Idx[1]));
    double X;
    if (!toF(Args.back(), X))
      return wrongType("aset$f");
    A->at(Idx[0], Idx[1]) = X;
    return okFlo(X);
  }
  case Prim::ArrayDim: {
    if (!Args[0].isArray() || !Args[1].isData() || !Args[1].dataValue().isFixnum())
      return wrongType("array-dimension");
    FloatArray *A = Args[0].arrayValue();
    int64_t Axis = Args[1].dataValue().fixnum();
    size_t D = Axis == 0 ? A->Dim0 : A->Dim1;
    return Outcome::ok(RtValue::data(Value::fixnum(static_cast<int64_t>(D))));
  }

  // --- control and miscellany ---
  case Prim::Throw: {
    Outcome O;
    O.Status = Outcome::St::Throw;
    O.ThrowTag = Args[0];
    O.Val = Args[1];
    return O;
  }
  case Prim::Error: {
    std::string Msg = "lisp error";
    if (!Args.empty() && Args[0].isData() && Args[0].dataValue().isString())
      Msg = Args[0].dataValue().stringValue();
    return Outcome::error(Msg);
  }
  case Prim::Print:
    I.Out += Args[0].str();
    I.Out += '\n';
    return Outcome::ok(Args[0]);

  case Prim::Funcall:
  case Prim::Apply:
  case Prim::FunctionRef:
    // Reaches here only through (function funcall) etc.; apply directly.
    return apply(Args[0], std::vector<RtValue>(Args.begin() + 1, Args.end()));

  default: // the foldable primitives, applied above
    break;
  }
  return Outcome::error("unimplemented primitive");
}

//===----------------------------------------------------------------------===//
// Interpreter public API
//===----------------------------------------------------------------------===//

Interpreter::Interpreter(ir::Module &M) : M(M) {
  RtHeap.registerRootProvider(this);
}

Interpreter::~Interpreter() { RtHeap.unregisterRootProvider(this); }

EnvPtr Interpreter::makeFrame(EnvPtr Parent) {
  auto *F = new EnvFrame();
  F->Parent = std::move(Parent);
  LiveFrames.insert(F);
  return EnvPtr(F, [this](EnvFrame *P) {
    LiveFrames.erase(P);
    delete P;
  });
}

void Interpreter::publishGcStats() {
  const sexpr::GcStats &Now = RtHeap.gcStats();
  NumGcCollections += Now.Collections - LastPublishedGc.Collections;
  NumGcCellsSwept += Now.CellsSwept - LastPublishedGc.CellsSwept;
  NumGcPauseNs += Now.PauseNsTotal - LastPublishedGc.PauseNsTotal;
  LastPublishedGc = Now;
}

void Interpreter::visitRoots(const std::function<void(sexpr::Value)> &Visit) {
  auto VisitRt = [&](const RtValue &R) {
    if (R.isData())
      Visit(R.dataValue());
  };
  for (auto &B : SpecialStack)
    VisitRt(B.second);
  for (auto &B : SpecialGlobals)
    VisitRt(B.second);
  for (EnvFrame *F : LiveFrames)
    for (auto &Slot : F->Slots)
      VisitRt(Slot.second);
  for (std::vector<RtValue> *Vec : Roots.RtVecs)
    for (RtValue &R : *Vec)
      VisitRt(R);
  for (RtValue *R : Roots.RtVals)
    VisitRt(*R);
}

Interpreter::Result Interpreter::call(const std::string &Name,
                                      const std::vector<RtValue> &Args) {
  Result R;
  Function *F = M.lookup(Name);
  if (!F) {
    R.Error = "undefined function '" + Name + "'";
    return R;
  }
  Evaluator E(*this);
  Outcome O = E.apply(RtValue::closure(E.globalClosure(F)), Args);
  publishGcStats();
  switch (O.Status) {
  case Outcome::St::Ok:
    R.Ok = true;
    R.Value = O.Val;
    return R;
  case Outcome::St::Error:
    R.Error = O.Error;
    return R;
  case Outcome::St::Throw:
    R.Error = "uncaught throw";
    return R;
  default:
    R.Error = "control transfer escaped its extent";
    return R;
  }
}

void Interpreter::setGlobalSpecial(const sexpr::Symbol *Name, RtValue V) {
  for (auto &G : SpecialGlobals)
    if (G.first == Name) {
      G.second = V;
      return;
    }
  SpecialGlobals.push_back({Name, V});
}

RtValue Interpreter::makeArray(size_t Dim0) {
  Arrays.push_back(FloatArray{Dim0, 1, false, std::vector<double>(Dim0, 0.0)});
  return RtValue::array(&Arrays.back());
}

RtValue Interpreter::makeArray(size_t Dim0, size_t Dim1) {
  Arrays.push_back(FloatArray{Dim0, Dim1, true, std::vector<double>(Dim0 * Dim1, 0.0)});
  return RtValue::array(&Arrays.back());
}
