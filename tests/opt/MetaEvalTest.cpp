//===- tests/opt/MetaEvalTest.cpp - Source-level optimizer tests ----------===//
//
// Exercises §5 of the paper: the beta-conversion rules, nested-if
// distribution (boolean short-circuiting), compile-time evaluation,
// assoc/commut canonicalization, and the §7 testfn transcript steps.
// Every optimization is also checked against the interpreter on both the
// original and optimized trees (differential testing).
//
//===----------------------------------------------------------------------===//

#include "opt/MetaEval.h"

#include "stats/Remark.h"

#include "frontend/Convert.h"
#include "interp/Interp.h"
#include "ir/BackTranslate.h"
#include "sexpr/Printer.h"
#include "sexpr/Reader.h"

#include <gtest/gtest.h>

using namespace s1lisp;
using namespace s1lisp::ir;
using namespace s1lisp::opt;
using sexpr::Value;

namespace {

class MetaEvalTest : public ::testing::Test {
protected:
  ir::Module M;

  /// Converts a one-expression defun, optimizes, returns flat back-trans.
  std::string optimizeExpr(const std::string &Expr, OptOptions Opts = {},
                           stats::RemarkStream *Log = nullptr) {
    static int Counter = 0;
    std::string Name = "opt-probe-" + std::to_string(Counter++);
    Function *F = frontend::convertDefun(
        M, "(defun " + Name + " (p q r x y z) " + Expr + ")");
    metaEvaluate(*F, Opts, Log);
    return sexpr::toString(backTranslate(*F, F->Root->Body));
  }
};

TEST_F(MetaEvalTest, CallLambdaRule) {
  // ((lambda () body)) => body — the first beta rule.
  EXPECT_EQ(optimizeExpr("((lambda () (f x)))"), "(f x)");
}

TEST_F(MetaEvalTest, DropUnusedArgument) {
  // Unused parameter with effect-free argument: both disappear.
  EXPECT_EQ(optimizeExpr("((lambda (unused) (f x)) (cons y z))"), "(f x)")
      << "heap allocation may be eliminated (§5)";
  // Effectful argument must stay.
  EXPECT_EQ(optimizeExpr("((lambda (unused) (f x)) (rplaca y z))"),
            "((lambda (unused) (f x)) (rplaca y z))");
}

TEST_F(MetaEvalTest, SubstituteConstant) {
  EXPECT_EQ(optimizeExpr("((lambda (k) (f k k)) 7)"), "(f 7 7)");
}

TEST_F(MetaEvalTest, SubstituteVariable) {
  EXPECT_EQ(optimizeExpr("((lambda (v) (f v v)) x)"), "(f x x)");
}

TEST_F(MetaEvalTest, NoSubstitutionOfWrittenVariable) {
  std::string Out = optimizeExpr("((lambda (v) (progn (setq v 1) (f v))) x)");
  EXPECT_NE(Out.find("lambda"), std::string::npos)
      << "assigned variables must keep their binding: " << Out;
}

TEST_F(MetaEvalTest, SubstitutePureSingleUse) {
  EXPECT_EQ(optimizeExpr("((lambda (s) (f s)) (+ x y))"), "(f (+ x y))");
}

TEST_F(MetaEvalTest, PureSmallDuplicates) {
  // (+ x 1) is first canonicalized to (+ 1 x), then duplicated.
  EXPECT_EQ(optimizeExpr("((lambda (s) (f s s)) (+ x 1))"),
            "(f (+ 1 x) (+ 1 x))");
}

TEST_F(MetaEvalTest, LargePureExprNotDuplicated) {
  OptOptions Opts;
  Opts.DuplicationLimit = 3;
  std::string Out = optimizeExpr(
      "((lambda (s) (f s s)) (+ (* x x) (* y y) (* z z) (* x y)))", Opts);
  EXPECT_NE(Out.find("lambda"), std::string::npos) << Out;
}

TEST_F(MetaEvalTest, EffectfulSingleUseFirstPosition) {
  // (rplaca x y) is evaluated first by the body, so it may move in.
  EXPECT_EQ(optimizeExpr("((lambda (e) (f e x)) (rplaca y z))"),
            "(f (rplaca y z) x)");
}

TEST_F(MetaEvalTest, EffectfulUseInConditionalArmStays) {
  // The single use is inside an if-arm: moving it would skip or delay the
  // side effect.
  std::string Out = optimizeExpr("((lambda (e) (if p (f e) (g))) (rplaca y z))");
  EXPECT_NE(Out.find("lambda"), std::string::npos) << Out;
}

TEST_F(MetaEvalTest, EffectfulDoesNotReorderPastLaterArgs) {
  // e's write must not move past d's read of the same structure.
  std::string Out = optimizeExpr(
      "((lambda (e d) (f e d)) (rplaca y z) (car y))");
  EXPECT_NE(Out.find("lambda"), std::string::npos) << Out;
}

TEST_F(MetaEvalTest, ProcedureIntegrationSingleRef) {
  // A lambda referred to once is integrated, then beta-reduced.
  EXPECT_EQ(optimizeExpr("((lambda (th) (th)) (lambda () (f x)))"), "(f x)");
}

TEST_F(MetaEvalTest, CompileTimeEvaluation) {
  EXPECT_EQ(optimizeExpr("(+ 1 2 3)"), "6");
  EXPECT_EQ(optimizeExpr("(* 2.5 4.0)"), "10.0");
  EXPECT_EQ(optimizeExpr("(car '(a b))"), "(quote a)");
  EXPECT_EQ(optimizeExpr("(length '(1 2 3))"), "3");
  EXPECT_EQ(optimizeExpr("(< 1 2)"), "(quote t)");
  EXPECT_EQ(optimizeExpr("(/ 1 3)"), "1/3");
  EXPECT_EQ(optimizeExpr("(sqrt$f 4.0)"), "2.0");
  // Division by zero does not fold (the runtime error is preserved).
  EXPECT_EQ(optimizeExpr("(/ 1 0)"), "(/ 1 0)");
  // Nor does a flonum the reader cannot read back: a zero divisor, a
  // domain error, an overflow.
  EXPECT_EQ(optimizeExpr("(/$f 1.0 0.0)"), "(/$f 1.0 0.0)");
  EXPECT_EQ(optimizeExpr("(log$f 0.0)"), "(log$f 0.0)");
  EXPECT_EQ(optimizeExpr("(sqrt$f -1.0)"), "(sqrt$f -1.0)");
  EXPECT_EQ(optimizeExpr("(exp$f 1000.0)"), "(exp$f 1000.0)");
  // Unary minus negates.
  EXPECT_EQ(optimizeExpr("(- 0.0)"), "-0.0");
  EXPECT_EQ(optimizeExpr("(-$f 0.0)"), "-0.0");
}

TEST_F(MetaEvalTest, DeadCodeElimination) {
  EXPECT_EQ(optimizeExpr("(if 't (f) (g))"), "(f)");
  EXPECT_EQ(optimizeExpr("(if nil (f) (g))"), "(g)");
  EXPECT_EQ(optimizeExpr("(if (< 1 2) (f) (g))"), "(f)")
      << "constant folding feeds dead-code elimination";
  EXPECT_EQ(optimizeExpr("(case 2 ((1) (f)) ((2) (g)) (t (h)))"), "(g)");
  EXPECT_EQ(optimizeExpr("(case 9 ((1) (f)) (t (h)))"), "(h)");
}

TEST_F(MetaEvalTest, PrognCleanup) {
  EXPECT_EQ(optimizeExpr("(progn 1 2 (f))"), "(f)");
  EXPECT_EQ(optimizeExpr("(progn (progn (f) (g)) (h))"),
            "(progn (f) (g) (h))");
  EXPECT_EQ(optimizeExpr("(progn x y 3)"), "3");
}

TEST_F(MetaEvalTest, AssocCommutCanonicalization) {
  // §7: (+$f a b c) => (+$f (+$f c b) a).
  OptOptions NoSubst;
  EXPECT_EQ(optimizeExpr("(+$f p q r)", NoSubst),
            "(+$f (+$f r q) p)");
  EXPECT_EQ(optimizeExpr("(* p q r x)", NoSubst), "(* (* (* x r) q) p)");
  // max and min are not commutative on signed zeros, so they stay as
  // written.
  EXPECT_EQ(optimizeExpr("(max p q r)", NoSubst), "(max p q r)");
  EXPECT_EQ(optimizeExpr("(min$f p q r)", NoSubst), "(min$f p q r)");
}

TEST_F(MetaEvalTest, ConstantsMoveFirst) {
  // §7: (*$f e 0.159154942) => (*$f 0.159154942 e).
  EXPECT_EQ(optimizeExpr("(*$f x 2.0)"), "(*$f 2.0 x)");
  EXPECT_EQ(optimizeExpr("(+ x 1)"), "(+ 1 x)");
  EXPECT_EQ(optimizeExpr("(max x 0.0)"), "(max x 0.0)");
  EXPECT_EQ(optimizeExpr("(min$f x 0.0)"), "(min$f x 0.0)");
}

TEST_F(MetaEvalTest, NaryExpansion) {
  EXPECT_EQ(optimizeExpr("(- p q r)"), "(- (- p q) r)");
  EXPECT_EQ(optimizeExpr("(- x)"), "(neg x)");
  EXPECT_EQ(optimizeExpr("(-$f x)"), "(neg$f x)");
  EXPECT_EQ(optimizeExpr("(/ x)"), "(/ 1 x)");
}

TEST_F(MetaEvalTest, LongCallsStayNary) {
  // A chain of binary calls is as deep as the call is long, so past the
  // reader's nesting bound the assoc and n-ary rules leave a call alone.
  auto Call = [](const char *Op, unsigned N) {
    std::string S = std::string("(") + Op;
    for (unsigned I = 0; I < N; ++I)
      S += " x";
    return S + ")";
  };
  const unsigned Bound = sexpr::Reader::MaxNestingDepth;
  for (const char *Op : {"+", "-"}) {
    EXPECT_EQ(optimizeExpr(Call(Op, Bound + 1)), Call(Op, Bound + 1)) << Op;
    std::string Chained = optimizeExpr(Call(Op, Bound));
    EXPECT_EQ(Chained.find(Call(Op, 3)), std::string::npos) << Op;
  }
}

TEST_F(MetaEvalTest, IdentityElimination) {
  EXPECT_EQ(optimizeExpr("(+ x 0)"), "x");
  EXPECT_EQ(optimizeExpr("(* 1 x)"), "x");
  // Float identity requires the survivor to already be a float.
  EXPECT_EQ(optimizeExpr("(+$f (*$f x y) 0.0)"), "(*$f x y)");
  EXPECT_EQ(optimizeExpr("(+$f x 0.0)"), "(+$f 0.0 x)")
      << "x might be a fixnum pointer; +$f coerces, so it must stay";
}

TEST_F(MetaEvalTest, SinToSinc) {
  EXPECT_EQ(optimizeExpr("(sin$f x)"), "(sinc$f (*$f 0.159154942 x))");
  EXPECT_EQ(optimizeExpr("(cos$f x)"), "(cosc$f (*$f 0.159154942 x))");
  OptOptions NoTrig;
  NoTrig.MachineTrig = false;
  EXPECT_EQ(optimizeExpr("(sin$f x)", NoTrig), "(sin$f x)");
}

TEST_F(MetaEvalTest, RedundantTestElimination) {
  EXPECT_EQ(optimizeExpr("(if p (if p (f) (g)) (h))"), "(if p (f) (h))");
  EXPECT_EQ(optimizeExpr("(if p (f) (if p (g) (h)))"), "(if p (f) (h))");
  // Effectful tests are not assumed stable.
  std::string Out = optimizeExpr("(if (f) (if (f) 1 2) 3)");
  EXPECT_EQ(Out, "(if (f) (if (f) 1 2) 3)");
}

TEST_F(MetaEvalTest, IfOfProgn) {
  EXPECT_EQ(optimizeExpr("(if (progn (f) p) x y)"),
            "(progn (f) (if p x y))");
}

TEST_F(MetaEvalTest, IfOfLet) {
  EXPECT_EQ(optimizeExpr("(if ((lambda (v) (g v)) (f)) x y)"),
            "(if (g (f)) x y)")
      << "let hoisted out of the test, then v substituted";
}

TEST_F(MetaEvalTest, PaperBooleanShortCircuit) {
  // §5's centerpiece: (if (and a (or b c)) e1 e2) reduces to pure
  // conditional structure with the thunks f/g shared, not duplicated.
  stats::RemarkStream Log;
  std::string Out = optimizeExpr("(if (and p (or q r)) (win) (lose))", {}, &Log);
  // The and/or and the nested ifs must be gone from test positions:
  // the result is a nest of ifs over p, q, r calling shared thunks.
  EXPECT_EQ(Out.find("(and"), std::string::npos);
  EXPECT_EQ(Out.find("(or"), std::string::npos);
  EXPECT_GT(Log.count("META-DISTRIBUTE-NESTED-IF"), 0u);
  EXPECT_GT(Log.count("META-SUBSTITUTE"), 0u);
  // (win) and (lose) each appear exactly once (shared via the f/g thunks
  // or fully integrated): no space-wasting duplication of the arm code.
  size_t WinCount = 0, Pos = 0;
  while ((Pos = Out.find("(win)", Pos)) != std::string::npos) {
    ++WinCount;
    Pos += 5;
  }
  EXPECT_EQ(WinCount, 1u) << Out;
}

TEST_F(MetaEvalTest, TranscriptFormat) {
  stats::RemarkStream Log;
  optimizeExpr("(+$f p q r)", {}, &Log);
  std::string T = Log.str();
  EXPECT_NE(T.find(";**** Optimizing this form: (+$f p q r)"), std::string::npos) << T;
  EXPECT_NE(T.find(";**** to be this form: (+$f (+$f r q) p)"), std::string::npos) << T;
  EXPECT_NE(T.find(";**** courtesy of META-EVALUATE-ASSOC-COMMUT-CALL"),
            std::string::npos) << T;
}

TEST_F(MetaEvalTest, PaperTestfnPipeline) {
  // §7's worked example end to end: after optimization the variable q is
  // gone, sin$f became sinc$f with the constant first, and the sinc call
  // moved past the call to frotz.
  Function *F = frontend::convertDefun(
      M, "(defun testfn (a &optional (b 3.0) (c a))"
         "  (let ((d (+$f a b c)) (e (*$f a b c)))"
         "    (let ((q (sin$f e)))"
         "      (frotz d e (max$f d e))"
         "      q)))");
  stats::RemarkStream Log;
  metaEvaluate(*F, {}, &Log);
  std::string Out = sexpr::toString(backTranslate(*F, F->Root->Body));

  EXPECT_GT(Log.count("META-EVALUATE-ASSOC-COMMUT-CALL"), 0u);
  EXPECT_GT(Log.count("CONSIDER-REVERSING-ARGUMENTS"), 0u);
  EXPECT_GT(Log.count("META-SUBSTITUTE"), 0u);

  // The paper's result:
  // ((lambda (d e) (progn (frotz d e (max$f d e))
  //                       (sinc$f (*$f 0.159154942 e))))
  //  (+$f (+$f c b) a) (*$f (*$f c b) a))
  EXPECT_EQ(Out,
            "((lambda (d e) (progn (frotz d e (max$f d e)) "
            "(sinc$f (*$f 0.159154942 e)))) "
            "(+$f (+$f c b) a) (*$f (*$f c b) a))");
}

//===----------------------------------------------------------------------===//
// Differential property tests: optimization preserves semantics.
//===----------------------------------------------------------------------===//

struct DiffCase {
  const char *Source; ///< full defun named "fut"
  std::vector<int64_t> Args;
};

class OptDifferential : public ::testing::TestWithParam<const char *> {};

TEST_P(OptDifferential, InterpreterAgreesBeforeAndAfter) {
  // Convert twice: optimize one copy, run both on a grid of arguments.
  for (int64_t A : {-3, 0, 1, 2, 7}) {
    for (int64_t B : {-1, 0, 2, 5}) {
      ir::Module M1, M2;
      frontend::convertDefun(M1, GetParam());
      Function *F2 = frontend::convertDefun(M2, GetParam());
      metaEvaluate(*F2);

      interp::Interpreter I1(M1), I2(M2);
      std::vector<interp::RtValue> Args = {
          interp::RtValue::data(Value::fixnum(A)),
          interp::RtValue::data(Value::fixnum(B))};
      auto R1 = I1.call("fut", Args);
      auto R2 = I2.call("fut", Args);
      ASSERT_EQ(R1.Ok, R2.Ok) << GetParam() << " args " << A << "," << B
                              << ": " << R1.Error << " vs " << R2.Error;
      // Compare printed forms: the two modules intern symbols separately,
      // so pointer-based eql cannot be used across them.
      if (R1.Ok) {
        EXPECT_EQ(R1.Value.str(), R2.Value.str())
            << GetParam() << " args " << A << "," << B;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, OptDifferential,
    ::testing::Values(
        "(defun fut (a b) (if (and (plusp a) (or (minusp b) (zerop b))) (+ a b) (- a b)))",
        "(defun fut (a b) (let ((x (+ a 1)) (y (* b b))) (+ x y x)))",
        "(defun fut (a b) (let* ((x (+ a b)) (y (* x x))) (- y x)))",
        "(defun fut (a b) (cond ((= a 0) 'zero) ((= a b) 'same) (t (list a b))))",
        "(defun fut (a b) (+ (* 2 3) a (- b) (* 1 b) 0))",
        "(defun fut (a b) (progn (setq a (+ a 1)) (progn a b (+ a b))))",
        "(defun fut (a b) (if (if (plusp a) (plusp b) (minusp b)) 'yes 'no))",
        "(defun fut (a b) (let ((f (lambda (n) (* n n)))) (+ (funcall f a) (funcall f b))))",
        "(defun fut (a b) (do ((i 0 (1+ i)) (acc 0 (+ acc a))) ((= i 3) (+ acc b))))",
        "(defun fut (a b) (let ((l (list a b 3))) (+ (length l) (car l))))",
        "(defun fut (a b) (case (mod a 3) ((0) b) ((1) (+ b 1)) (t (+ b 2))))",
        "(defun fut (a b) (let ((u (cons a b))) (car u)))",
        "(defun fut (a b) (max (min a b) (- a b) 0))",
        "(defun fut (a b) (if (> a 0) (if (> a 0) (+ a b) 99) (- a b)))"));

} // namespace
