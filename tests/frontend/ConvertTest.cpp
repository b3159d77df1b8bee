//===- tests/frontend/ConvertTest.cpp - Preliminary conversion tests ------===//
//
// Checks §4.1: conversion to the basic construct set, with back-translation
// as the observable (the paper's own debugging technique).
//
//===----------------------------------------------------------------------===//

#include "frontend/Convert.h"
#include "interp/Interp.h"
#include "ir/BackTranslate.h"
#include "ir/Primitives.h"
#include "sexpr/Printer.h"
#include "sexpr/Reader.h"

#include "harness/DeepStack.h"

#include <gtest/gtest.h>

#include <set>

using namespace s1lisp;
using namespace s1lisp::ir;

namespace {

class ConvertTest : public ::testing::Test {
protected:
  Module M;

  /// Converts "(defun t0 () <expr>)" and back-translates the body flat.
  std::string convertExpr(const std::string &Expr) {
    Function *F = frontend::convertDefun(M, "(defun t0 () " + Expr + ")");
    return sexpr::toString(backTranslate(*F, F->Root->Body));
  }

  Function *defun(const std::string &Src) { return frontend::convertDefun(M, Src); }

  bool fails(const std::string &Src) {
    DiagEngine Diags;
    return !frontend::convertSource(M, Src, Diags);
  }

  /// Converts \p Src, expecting failure; its error messages, one a line.
  std::string errorsOf(const std::string &Src) {
    DiagEngine Diags;
    EXPECT_FALSE(frontend::convertSource(M, Src, Diags));
    std::string Errors;
    for (const Diagnostic &D : Diags.diagnostics())
      if (D.Severity == DiagSeverity::Error)
        Errors += D.Message + "\n";
    return Errors;
  }
};

TEST_F(ConvertTest, ConstantsAreQuotedInternally) {
  Function *F = defun("(defun t0 () 42)");
  auto *Lit = dyn_cast<LiteralNode>(F->Root->Body);
  ASSERT_NE(Lit, nullptr);
  EXPECT_EQ(Lit->Datum.fixnum(), 42);
  // Back-translation omits quote around numbers (§4.1) unless asked.
  EXPECT_EQ(convertExpr("42"), "42");
  BackTranslateOptions Quoted;
  Quoted.QuoteNumbers = true;
  EXPECT_EQ(sexpr::toString(backTranslate(*F, F->Root->Body, Quoted)),
            "(quote 42)");
}

TEST_F(ConvertTest, QuoteAndSymbols) {
  EXPECT_EQ(convertExpr("'(a b)"), "(quote (a b))");
  EXPECT_EQ(convertExpr("'sym"), "(quote sym)");
  EXPECT_EQ(convertExpr("t"), "(quote t)");
  EXPECT_EQ(convertExpr("nil"), "(quote nil)");
}

TEST_F(ConvertTest, IfTwoAndThreeArms) {
  EXPECT_EQ(convertExpr("(if (f) 1 2)"), "(if (f) 1 2)");
  EXPECT_EQ(convertExpr("(if (f) 1)"), "(if (f) 1 (quote nil))");
}

TEST_F(ConvertTest, LetBecomesLambdaCall) {
  EXPECT_EQ(convertExpr("(let ((x 1) (y 2)) (g x y))"),
            "((lambda (x y) (g x y)) 1 2)");
  EXPECT_EQ(convertExpr("(let (x) x)"), "((lambda (x) x) (quote nil))");
}

TEST_F(ConvertTest, LetStarNests) {
  EXPECT_EQ(convertExpr("(let* ((x 1) (y x)) y)"),
            "((lambda (x) ((lambda (y) y) x)) 1)");
}

TEST_F(ConvertTest, LetInitsSeeOuterScope) {
  // (let ((x 1)) (let ((x 2) (y x)) ...)) — y's init is the OUTER x.
  Function *F = defun("(defun t0 (x) (let ((x 2) (y x)) y))");
  auto *OuterCall = cast<CallNode>(F->Root->Body);
  auto *InnerLambda = cast<LambdaNode>(OuterCall->CalleeExpr);
  Variable *OuterX = F->Root->Required[0];
  Variable *InnerX = InnerLambda->Required[0];
  EXPECT_NE(OuterX, InnerX) << "alpha renaming keeps them distinct";
  auto *YInit = cast<VarRefNode>(OuterCall->Args[1]);
  EXPECT_EQ(YInit->Var, OuterX);
}

TEST_F(ConvertTest, CondExpandsToIfs) {
  EXPECT_EQ(convertExpr("(cond ((f) 1) (t 2))"), "(if (f) 1 2)");
  EXPECT_EQ(convertExpr("(cond ((f) 1))"), "(if (f) 1 (quote nil))");
  EXPECT_EQ(convertExpr("(cond)"), "(quote nil)");
  // Body-less clause returns the test value via the or-trick.
  EXPECT_EQ(convertExpr("(cond ((f)) (t 2))"),
            "((lambda (v f) (if v v (f))) (f) (lambda () 2))");
}

TEST_F(ConvertTest, AndOrExpansion) {
  EXPECT_EQ(convertExpr("(and)"), "(quote t)");
  EXPECT_EQ(convertExpr("(and a b)"), "(if a b (quote nil))");
  EXPECT_EQ(convertExpr("(or)"), "(quote nil)");
  EXPECT_EQ(convertExpr("(or a)"), "a");
  // The paper's §5 expansion of (or b c).
  EXPECT_EQ(convertExpr("(or b c)"),
            "((lambda (v f) (if v v (f))) b (lambda () c))");
}

TEST_F(ConvertTest, WhenUnless) {
  EXPECT_EQ(convertExpr("(when p 1 2)"), "(if p (progn 1 2) (quote nil))");
  EXPECT_EQ(convertExpr("(unless p 1)"), "(if p (quote nil) 1)");
}

TEST_F(ConvertTest, SetqChains) {
  Function *F = defun("(defun t0 (a b) (setq a 1 b 2))");
  EXPECT_EQ(sexpr::toString(backTranslate(*F, F->Root->Body)),
            "(progn (setq a 1) (setq b 2))");
  EXPECT_TRUE(F->Root->Required[0]->Written);
}

TEST_F(ConvertTest, OptionalParametersWithDefaults) {
  // The paper's testfn header: (a &optional (b 3.0) (c a)).
  Function *F = defun("(defun testfn (a &optional (b 3.0) (c a)) c)");
  ASSERT_EQ(F->Root->Required.size(), 1u);
  ASSERT_EQ(F->Root->Optionals.size(), 2u);
  EXPECT_EQ(F->Root->Rest, nullptr);
  auto *BDefault = cast<LiteralNode>(F->Root->Optionals[0].Default);
  EXPECT_DOUBLE_EQ(BDefault->Datum.flonum(), 3.0);
  // c's default refers to parameter a.
  auto *CDefault = cast<VarRefNode>(F->Root->Optionals[1].Default);
  EXPECT_EQ(CDefault->Var, F->Root->Required[0]);
  EXPECT_TRUE(F->Root->acceptsArgCount(1));
  EXPECT_TRUE(F->Root->acceptsArgCount(3));
  EXPECT_FALSE(F->Root->acceptsArgCount(0));
  EXPECT_FALSE(F->Root->acceptsArgCount(4));
}

TEST_F(ConvertTest, RestParameter) {
  Function *F = defun("(defun t1 (a &rest more) more)");
  ASSERT_NE(F->Root->Rest, nullptr);
  EXPECT_TRUE(F->Root->acceptsArgCount(9));
}

TEST_F(ConvertTest, BackTranslateLambdaList) {
  Function *F = defun("(defun testfn2 (a &optional (b 3.0) (c a) d &rest r) a)");
  EXPECT_EQ(sexpr::toString(backTranslateFunction(*F)),
            "(defun testfn2 (a &optional (b 3.0) (c a) d &rest r) a)");
}

TEST_F(ConvertTest, PrognOfOneUnwraps) {
  EXPECT_EQ(convertExpr("(progn (f))"), "(f)");
  EXPECT_EQ(convertExpr("(progn)"), "(quote nil)");
}

TEST_F(ConvertTest, ProgTranslation) {
  // prog => let of a progbody (§4.1's description of prog).
  Function *F = defun("(defun t2 (n) (prog (acc) loop (when (zerop n) (return acc))"
                      " (setq acc (cons n acc)) (setq n (1- n)) (go loop)))");
  auto *Call = cast<CallNode>(F->Root->Body);
  ASSERT_TRUE(Call->isLetLike());
  auto *L = cast<LambdaNode>(Call->CalleeExpr);
  auto *PB = dyn_cast<ProgBodyNode>(L->Body);
  ASSERT_NE(PB, nullptr);
  EXPECT_TRUE(PB->hasTag(M.Syms.intern("loop")));
  // The go and return nodes point back at this progbody.
  bool SawGo = false, SawReturn = false;
  forEachNode(static_cast<Node *>(PB), [&](Node *N) {
    if (auto *G = dyn_cast<GoNode>(N)) {
      SawGo = true;
      EXPECT_EQ(G->Target, PB);
    }
    if (auto *R = dyn_cast<ReturnNode>(N)) {
      SawReturn = true;
      EXPECT_EQ(R->Target, PB);
    }
  });
  EXPECT_TRUE(SawGo);
  EXPECT_TRUE(SawReturn);
}

TEST_F(ConvertTest, CaseBecomesCaseq) {
  Function *F = defun("(defun t3 (x) (case x ((1 2) 'small) (9 'nine) (t 'other)))");
  auto *C = dyn_cast<CaseqNode>(F->Root->Body);
  ASSERT_NE(C, nullptr);
  ASSERT_EQ(C->Clauses.size(), 2u);
  EXPECT_EQ(C->Clauses[0].Keys.size(), 2u);
  EXPECT_EQ(C->Clauses[1].Keys.size(), 1u);
  auto *D = dyn_cast<LiteralNode>(C->Default);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Datum.symbol()->name(), "other");
}

TEST_F(ConvertTest, CatchBecomesCatcher) {
  EXPECT_EQ(convertExpr("(catch 'done (f) (g))"),
            "(catcher (quote done) (progn (f) (g)))");
}

TEST_F(ConvertTest, SpecialsViaDefvar) {
  DiagEngine Diags;
  ASSERT_TRUE(frontend::convertSource(
      M, "(defvar *depth*) (defun probe () *depth*)", Diags));
  Function *F = M.lookup("probe");
  ASSERT_NE(F, nullptr);
  auto *Ref = cast<VarRefNode>(F->Root->Body);
  EXPECT_TRUE(Ref->Var->isSpecial());
}

TEST_F(ConvertTest, SpecialsViaDeclare) {
  Function *F = defun("(defun t4 (x) (declare (special s)) (g s x))");
  auto *Call = cast<CallNode>(F->Root->Body);
  EXPECT_TRUE(cast<VarRefNode>(Call->Args[0])->Var->isSpecial());
  EXPECT_FALSE(cast<VarRefNode>(Call->Args[1])->Var->isSpecial());
}

TEST_F(ConvertTest, SpecialBoundAsParameter) {
  DiagEngine Diags;
  ASSERT_TRUE(frontend::convertSource(
      M, "(defvar *level*) (defun go-deeper (*level*) (probe2))", Diags));
  Function *F = M.lookup("go-deeper");
  EXPECT_TRUE(F->Root->Required[0]->isSpecial());
}

// convertTopLevel proclaims exactly what proclaimedSpecials returns, which
// the front cache keys later defuns by. A malformed proclamation proclaims
// nothing; a dotted one used to crash the converter.
TEST_F(ConvertTest, ProclamationsAddExactlyProclaimedSpecials) {
  const std::vector<std::pair<const char *, std::vector<std::string>>> Cases =
      {{"(defvar a)", {"a"}},
       {"(defparameter b 1)", {"b"}},
       {"(proclaim '(special c d))", {"c", "d"}},
       {"(proclaim (special e 7 f))", {"e", "f"}},
       {"(proclaim (special . g))", {}},
       {"(proclaim . 5)", {}},
       {"(proclaim (quote . 7))", {}},
       {"(proclaim)", {}},
       {"(defun h () 1)", {}}};
  for (const auto &[Src, Want] : Cases) {
    SCOPED_TRACE(Src);
    sexpr::Value Form = sexpr::readOne(M.Syms, M.DataHeap, Src);
    std::vector<std::string> Names;
    for (const sexpr::Symbol *S : frontend::proclaimedSpecials(Form))
      Names.push_back(S->name());
    EXPECT_EQ(Names, Want);
    const size_t Before = M.Specials.size();
    DiagEngine Diags;
    frontend::convertTopLevel(M, Form, Diags);
    EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
    ASSERT_EQ(M.Specials.size(), Before + Want.size());
    for (size_t I = 0; I < Want.size(); ++I)
      EXPECT_EQ(M.Specials[Before + I]->name(), Want[I]);
  }
  EXPECT_TRUE(frontend::proclaimedSpecials(
                  sexpr::readOne(M.Syms, M.DataHeap, "(defvar 5)"))
                  .empty());
  EXPECT_TRUE(fails("(defvar 5)"));
}

TEST_F(ConvertTest, DoLoopExpands) {
  Function *F = defun("(defun iota-sum (n)"
                      " (do ((i 0 (1+ i)) (acc 0 (+ acc i)))"
                      "     ((= i n) acc)))");
  // Expansion shape: a let-lambda whose body is a progbody with a go.
  auto *Call = cast<CallNode>(F->Root->Body);
  ASSERT_TRUE(Call->isLetLike());
  bool SawGo = false;
  forEachNode(F->Root->Body, [&SawGo](Node *N) { SawGo |= N->kind() == NodeKind::Go; });
  EXPECT_TRUE(SawGo);
}

TEST_F(ConvertTest, PaperQuadraticBackTranslation) {
  // §4.1's worked example: the quadratic defun back-translates into the
  // lambda/if nest the paper prints.
  Function *F = defun(
      "(defun quadratic (a b c)"
      "  (let ((d (- (* b b) (* 4.0 a c))))"
      "    (cond ((< d 0) '())"
      "          ((= d 0) (list (/ (- b) (* 2.0 a))))"
      "          (t (let ((2a (* 2.0 a)) (sd (sqrt d)))"
      "               (list (/ (+ (- b) sd) 2a)"
      "                     (/ (- (- b) sd) 2a)))))))");
  std::string Out = sexpr::toString(backTranslate(*F, F->Root->Body));
  EXPECT_EQ(Out,
            "((lambda (d) (if (< d 0) (quote nil) (if (= d 0) "
            "(list (/ (- b) (* 2.0 a))) "
            "((lambda (2a sd) (list (/ (+ (- b) sd) 2a) (/ (- (- b) sd) 2a))) "
            "(* 2.0 a) (sqrt d))))) (- (* b b) (* 4.0 a c)))");
}

TEST_F(ConvertTest, Errors) {
  EXPECT_TRUE(fails("(defun)"));
  EXPECT_TRUE(fails("(defun f)"));
  EXPECT_TRUE(fails("(defun f (x) (if))"));
  EXPECT_TRUE(fails("(defun f (x) (go nowhere))"));
  EXPECT_TRUE(fails("(defun f (x) (return 1))"));
  EXPECT_TRUE(fails("(defun f (x) (quote a b))"));
  EXPECT_TRUE(fails("(defun f (x &rest) x)"));
  EXPECT_TRUE(fails("(defun f (&optional o x) x)") == false)
      << "&optional then plain symbol is legal";
  EXPECT_TRUE(fails("(defun f (x) (car 1 2))")) << "prim arity checked";
  EXPECT_TRUE(fails("(not-defun f (x) x)"));
  EXPECT_TRUE(fails("(defun f (x) ((g) 1))")) << "computed callee needs funcall";
}

//===----------------------------------------------------------------------===//
// Lambda-list edge cases: defaulting chains and &rest boundaries, checked
// both structurally and behaviorally (through the interpreter, the
// semantic oracle the fuzzer also trusts).
//===----------------------------------------------------------------------===//

TEST_F(ConvertTest, OptionalDefaultMayReferenceEarlierOptional) {
  // Defaults evaluate left to right, each in a scope that already holds
  // the parameters before it — including earlier &optional ones.
  Function *F = defun("(defun t2 (a &optional (b (+ a 1)) (c (* b 2))) c)");
  ASSERT_EQ(F->Root->Optionals.size(), 2u);
  // c's default (* b 2) must bind to the optional parameter b itself.
  auto *CDefault = cast<CallNode>(F->Root->Optionals[1].Default);
  auto *BRef = cast<VarRefNode>(CDefault->Args[0]);
  EXPECT_EQ(BRef->Var, F->Root->Optionals[0].Var);
}

TEST_F(ConvertTest, OptionalDefaultChainEvaluatesLeftToRight) {
  ir::Module M2;
  DiagEngine Diags;
  ASSERT_TRUE(frontend::convertSource(
      M2, "(defun f (a &optional (b (+ a 1)) (c (* b 2))) (+ a (+ b c)))",
      Diags))
      << Diags.str();
  interp::Interpreter I(M2);
  auto run = [&](std::vector<int64_t> Args) {
    std::vector<interp::RtValue> Rt;
    for (int64_t V : Args)
      Rt.push_back(interp::RtValue::data(sexpr::Value::fixnum(V)));
    auto R = I.call("f", Rt);
    EXPECT_TRUE(R.Ok) << R.Error;
    return R.Value.str();
  };
  EXPECT_EQ(run({10}), "43");        // b=11, c=22
  EXPECT_EQ(run({10, 4}), "22");     // b=4 supplied, c=8 from the chain
  EXPECT_EQ(run({10, 4, 100}), "114"); // everything supplied
}

TEST_F(ConvertTest, RestWithZeroExtrasIsEmptyList) {
  ir::Module M2;
  DiagEngine Diags;
  ASSERT_TRUE(frontend::convertSource(
      M2, "(defun f (a &rest r) (if (null r) (quote empty) (length r)))",
      Diags))
      << Diags.str();
  interp::Interpreter I(M2);
  auto run = [&](std::vector<int64_t> Args) {
    std::vector<interp::RtValue> Rt;
    for (int64_t V : Args)
      Rt.push_back(interp::RtValue::data(sexpr::Value::fixnum(V)));
    auto R = I.call("f", Rt);
    EXPECT_TRUE(R.Ok) << R.Error;
    return R.Value.str();
  };
  EXPECT_EQ(run({1}), "empty");
  EXPECT_EQ(run({1, 2}), "1");
  EXPECT_EQ(run({1, 2, 3, 4}), "3");
}

TEST_F(ConvertTest, UnsuppliedOptionalFallsBackPerCallSite) {
  // The same function called at different arities re-evaluates only the
  // defaults for the parameters actually missing at that call.
  ir::Module M2;
  DiagEngine Diags;
  ASSERT_TRUE(frontend::convertSource(
      M2,
      "(defun pad (x &optional (y x) (z (+ x y))) (list x y z))\n"
      "(defun use1 () (pad 2))\n"
      "(defun use2 () (pad 2 5))\n"
      "(defun use3 () (pad 2 5 9))",
      Diags))
      << Diags.str();
  interp::Interpreter I(M2);
  auto run = [&](const char *Fn) {
    auto R = I.call(Fn, {});
    EXPECT_TRUE(R.Ok) << R.Error;
    return R.Value.str();
  };
  EXPECT_EQ(run("use1"), "(2 2 4)");
  EXPECT_EQ(run("use2"), "(2 5 7)");
  EXPECT_EQ(run("use3"), "(2 5 9)");
}

// Code is a proper list: a dotted tail anywhere in a form's spine, a
// binding, a clause, a parameter or a declaration is reported once,
// where it used to be dropped silently (or crash, for and/or). Quoted
// data may still be dotted.
TEST_F(ConvertTest, DottedFormsReportOneErrorEach) {
  const char *Bodies[] = {
      // Every special form, a call and a lambda application.
      "(quote . a)", "(if x 1 . 2)", "(progn 1 . 5)", "(lambda (y) y . 5)",
      "(setq . 5)", "(setq x 1 . 5)", "(prog () a (go . a))",
      "(prog () (return . 5))", "(let ((y 1)) . 5)", "(let* ((y 1)) . 5)",
      "(cond (x 1) . 5)", "(and . 5)", "(and x . 5)", "(or 1 . 5)",
      "(when x . 5)", "(unless x . 5)", "(prog () . 5)",
      "(do ((i 0 (1+ i))) ((> i 3)) . 5)", "(dotimes (i 5) . 3)",
      "(dolist (e x) . 3)", "(case x . 5)", "(caseq x . 5)",
      "(catch 'a . 5)", "(catcher 'a . 5)", "(prog1 1 . 5)",
      "(prog2 1 2 . 5)", "(function . car)", "(car . x)", "(g 1 . 2)",
      "((lambda (y) y) 1 . 2)",
      // Bindings, clauses, parameters and declarations.
      "(let ((y . 5)) y)", "(let* ((y 1) (z . 5)) z)",
      "(prog ((y . 5)) (return y))", "(cond (x . 5))", "(case x (a . 5))",
      "(case x ((a . b) 1))", "(caseq x (a . 5))",
      "(do ((i 0 . 1)) ((> i 3)))", "(do ((i 0 (1+ i)) . 5) ((> i 3)))",
      "(do ((i 0 (1+ i))) ((> i 3) . 5))", "(dotimes (i . 5))",
      "(dolist (e . 5))", "((lambda (&optional (y . 5)) y))",
      "(let () (declare . 5) 1)", "(let () (declare (special . y)) 1)"};
  for (const char *Body : Bodies) {
    SCOPED_TRACE(Body);
    DiagEngine Diags;
    EXPECT_FALSE(frontend::convertSource(
        M, std::string("(defun f (x) ") + Body + ")", Diags));
    unsigned Errors = 0;
    for (const Diagnostic &D : Diags.diagnostics())
      Errors += D.Severity == DiagSeverity::Error;
    EXPECT_EQ(Errors, 1u) << Diags.str();
    EXPECT_NE(Diags.str().find("dotted list in"), std::string::npos)
        << Diags.str();
  }
  DiagEngine Diags;
  EXPECT_FALSE(frontend::convertSource(M, "(defun f (x) x . 5)", Diags));
  EXPECT_NE(Diags.str().find("dotted list in defun"), std::string::npos)
      << Diags.str();
  EXPECT_EQ(convertExpr("'(a . b)"), "(quote (a . b))");
  EXPECT_EQ(convertExpr("(car '(1 . 2))"), "(car (quote (1 . 2)))");
}

TEST_F(ConvertTest, DefunOfASpecialFormOrPrimitiveIsRejected) {
  // A call to such a name converts as the special form or the primitive,
  // so the defun could never be called: one error names it.
  auto OnlyError = [this](const std::string &Src) { return errorsOf(Src); };
  const char *SpecialForms[] = {
      "quote", "if", "progn", "lambda", "setq", "go", "return", "let",
      "let*", "cond", "and", "or", "when", "unless", "prog", "do",
      "dotimes", "dolist", "case", "caseq", "catch", "catcher", "prog1",
      "prog2", "function"};
  for (const char *Name : SpecialForms)
    EXPECT_EQ(OnlyError(std::string("(defun ") + Name + " (x) x)"),
              std::string("cannot define '") + Name +
                  "': it names a special form\n");
  for (int Op = 0; Op <= static_cast<int>(Prim::Print); ++Op) {
    std::string Name = primInfo(static_cast<Prim>(Op)).Name;
    if (Name == "function")
      continue; // a special form first
    EXPECT_EQ(OnlyError("(defun " + Name + " (x) x)"),
              "cannot define '" + Name + "': it names a primitive\n");
  }

  // Programs whose later call would convert as the catch form and as the
  // car primitive.
  EXPECT_EQ(OnlyError("(defun catcher (x) (throw 'tag (* x 2)))\n"
                      "(defun main () (catcher 20))"),
            "cannot define 'catcher': it names a special form\n");
  EXPECT_EQ(OnlyError("(defun car (x) 42)\n(defun main () (car '(1 2)))"),
            "cannot define 'car': it names a primitive\n");

  // Names that merely contain one stay legal.
  DiagEngine Diags;
  EXPECT_TRUE(frontend::convertSource(
      M, "(defun catcher2 (x) x) (defun cars (x) x) (defun my-if (x) x)", Diags))
      << Diags.str();
}

TEST_F(ConvertTest, EveryKnownNameIsTestedByIdentity) {
  // The converter tests operators, keywords and top-level heads by the id
  // each table's symbol carries: every spelling interns to its id, and
  // every special form is refused as a function name and as a parameter
  // or let variable, as the spelling tests refused it.
  std::set<std::string> Spellings;
  unsigned SpecialForms = 0;
  for (size_t I = 1; I < sexpr::NumKnown; ++I) {
    const auto K = static_cast<sexpr::Known>(I);
    const std::string Name(sexpr::knownName(K));
    SCOPED_TRACE(Name);
    EXPECT_FALSE(Name.empty());
    EXPECT_TRUE(Spellings.insert(Name).second) << "spelled twice";
    EXPECT_EQ(M.Syms.intern(Name)->known(), K);
    EXPECT_EQ(M.Syms.known(K), M.Syms.intern(Name));
    if (K < sexpr::FirstSpecialForm || K > sexpr::LastSpecialForm)
      continue;
    ++SpecialForms;
    const std::string Bind = "cannot bind '" + Name + "': it names a special form\n";
    EXPECT_EQ(errorsOf("(defun " + Name + " (x) x)"),
              "cannot define '" + Name + "': it names a special form\n");
    EXPECT_EQ(errorsOf("(defun f () (let ((" + Name + " 1)) 2))"), Bind);
    EXPECT_EQ(errorsOf("(defun f (x " + Name + ") x)"), Bind);
    EXPECT_EQ(errorsOf("(defun f () ((lambda (" + Name + ") 2) 1))"), Bind);
  }
  EXPECT_EQ(SpecialForms, 25u);
  EXPECT_EQ(M.Syms.intern("my-if")->known(), sexpr::Known::None);
  EXPECT_EQ(M.Syms.t(), M.Syms.intern("t"));
  EXPECT_EQ(M.Syms.quote(), M.Syms.intern("quote"));
}

TEST_F(ConvertTest, BindingOfASpecialFormIsRejected) {
  // A call through such a variable converts as the special form: (when 5)
  // never reaches the let-bound when. Every binder reports one error.
  const std::pair<const char *, const char *> Cases[] = {
      {"(defun main () (let ((when (lambda (x) (* x 2)))) (when 5)))", "when"},
      {"(defun f (if) (if 1 2 3)) (defun main () (f 7))", "if"},
      {"(defun f (x &optional (and 3)) x)", "and"},
      {"(defun f (x &optional or) x)", "or"},
      {"(defun f (x &rest cond) x)", "cond"},
      {"(defun f (x) ((lambda (prog1) prog1) x))", "prog1"},
      {"(defun f () (let ((a 1) (case 2)) a))", "case"},
      {"(defun f () (let* ((a 1) (catch a)) a))", "catch"},
      {"(defun f () (prog (go) (return 1)))", "go"},
      {"(defun f () (dotimes (do 3) 1))", "do"},
      {"(defun f () (dolist (quote '(1 2)) 1))", "quote"},
      {"(defun f () (do ((lambda 0 (1+ lambda))) ((> lambda 2) 1)))", "lambda"},
  };
  for (const auto &[Src, Name] : Cases)
    EXPECT_EQ(errorsOf(Src), std::string("cannot bind '") + Name +
                                 "': it names a special form\n")
        << Src;

  // A primitive's name binds: the call goes through the variable.
  DiagEngine Diags;
  EXPECT_TRUE(frontend::convertSource(
      M, "(defun g () (let ((car (lambda (x) 42))) (car '(1 2))))", Diags))
      << Diags.str();
}

TEST_F(ConvertTest, ExpansionsNestedPastTheBoundReportTheReadersError) {
  // let*, cond, and and or expand a flat list into a nested tree, past
  // the reader's nesting bound. The largest of each that converts, then
  // one more and 5,000, which fail with the reader's error, once.
  auto LetStar = [](unsigned N) {
    std::string S = "(defun f (x) (let* ((v0 x)";
    for (unsigned I = 1; I < N; ++I)
      S += " (v" + std::to_string(I) + " (+ v" + std::to_string(I - 1) + " 1))";
    return S + ") v" + std::to_string(N - 1) + "))";
  };
  auto Cond = [](unsigned N) {
    std::string S = "(defun f (x) (cond";
    for (unsigned I = 0; I < N; ++I)
      S += " ((= x " + std::to_string(I) + ") " + std::to_string(I) + ")";
    return S + "))";
  };
  auto Or = [](unsigned N) {
    std::string S = "(defun f (x) (or";
    for (unsigned I = 0; I < N; ++I)
      S += " (= x " + std::to_string(I) + ")";
    return S + "))";
  };
  auto And = [](unsigned N) {
    std::string S = "(defun f (x) (and";
    for (unsigned I = 0; I < N; ++I)
      S += " (< x " + std::to_string(I) + ")";
    return S + "))";
  };
  const struct {
    const char *Name;
    std::string (*Source)(unsigned);
    unsigned Largest;
  } Shapes[] = {{"let*", LetStar, 1999}, {"cond", Cond, 3997},
                {"or", Or, 1998},        {"and", And, 3997}};
  deepstack::run([&] {
    for (const auto &Sh : Shapes) {
      SCOPED_TRACE(Sh.Name);
      DiagEngine Diags;
      EXPECT_TRUE(frontend::convertSource(M, Sh.Source(Sh.Largest), Diags))
          << Diags.str();
      for (unsigned N : {Sh.Largest + 1, 5000u})
        EXPECT_EQ(errorsOf(Sh.Source(N)), "expression nesting too deep\n") << N;
    }
  });
}

TEST_F(ConvertTest, VerifierAcceptsAllConversions) {
  const char *Sources[] = {
      "(defun a (x) (+ x 1))",
      "(defun b (x) (let* ((y x) (z (* y y))) (cons y z)))",
      "(defun c (n) (dotimes (i n (list i)) (f i)))",
      "(defun d (l) (dolist (e l) (g e)))",
      "(defun e (x) (and (or x (f)) (unless x 1)))",
      "(defun g2 (x) (prog1 (f x) (h x) (h2 x)))",
      "(defun h3 (x) (prog2 (f x) (g x) (h x)))",
  };
  for (const char *Src : Sources) {
    Function *F = defun(Src);
    DiagEngine Diags;
    EXPECT_TRUE(verify(*F, Diags)) << Src << "\n" << Diags.str();
  }
}

} // namespace
