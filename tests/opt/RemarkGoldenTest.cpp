//===- tests/opt/RemarkGoldenTest.cpp - Per-rule remark goldens -----------===//
//
// One minimal input per meta-evaluator rule, plus one for CSE, with the
// exact remark stream it produces: rule, before text, after text and
// detail. Several rules rewrite the candidate node in place, and a rule
// renders its "before" text only once it commits to the rewrite; these
// goldens are what pins that the text is taken before the first mutation.
//
//===----------------------------------------------------------------------===//

#include "opt/Cse.h"
#include "opt/MetaEval.h"

#include "frontend/Convert.h"
#include "stats/Remark.h"

#include <gtest/gtest.h>

#include <ostream>

using namespace s1lisp;
using namespace s1lisp::opt;

namespace {

struct Expected {
  const char *Rule;
  const char *Before;
  const char *After;
  const char *Detail;
};

struct RuleCase {
  const char *Rule; ///< the rule the input exercises
  const char *Body; ///< body of (defun probe (p q r x y z) ...)
  std::vector<Expected> Remarks;
};

void PrintTo(const RuleCase &C, std::ostream *OS) { *OS << C.Body; }

/// A C++ string literal for \p S, so a failure prints pasteable goldens.
std::string cLiteral(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  return Out + "\"";
}

std::string dump(const stats::RemarkStream &Log) {
  std::string Out;
  for (const stats::Remark &R : Log.Remarks)
    Out += "{" + cLiteral(R.Rule) + ", " + cLiteral(R.Before) + ", " +
           cLiteral(R.After) + ", " + cLiteral(R.Detail) + "},\n";
  return Out;
}

void expectStream(const stats::RemarkStream &Log, const char *Phase,
                  const std::vector<Expected> &Want) {
  ASSERT_EQ(Log.Remarks.size(), Want.size()) << dump(Log);
  for (size_t I = 0; I < Want.size(); ++I) {
    const stats::Remark &R = Log.Remarks[I];
    EXPECT_EQ(R.Phase, Phase) << "remark " << I;
    EXPECT_EQ(R.Function, "probe") << "remark " << I;
    EXPECT_EQ(R.Rule, Want[I].Rule) << "remark " << I;
    EXPECT_EQ(R.Before, Want[I].Before) << "remark " << I;
    EXPECT_EQ(R.After, Want[I].After) << "remark " << I;
    EXPECT_EQ(R.Detail, Want[I].Detail) << "remark " << I;
  }
}

class MetaEvalRemarkGolden : public ::testing::TestWithParam<RuleCase> {};

TEST_P(MetaEvalRemarkGolden, PinsTheRemarkStream) {
  const RuleCase &C = GetParam();
  ir::Module M;
  ir::Function *F = frontend::convertDefun(
      M, std::string("(defun probe (p q r x y z) ") + C.Body + ")");
  ASSERT_NE(F, nullptr);
  stats::RemarkStream Log;
  metaEvaluate(*F, {}, &Log);
  EXPECT_GT(Log.count(C.Rule), 0u) << dump(Log);
  expectStream(Log, "opt.metaeval", C.Remarks);
}

const RuleCase RuleCases[] = {
    {"META-COMPILE-TIME-EVAL",
     "(+ 1 2)",
     {{"META-COMPILE-TIME-EVAL", "(+ 1 2)", "3", ""}}},
    {"META-EVALUATE-ASSOC-COMMUT-CALL",
     "(+$f p q r)",
     {{"META-EVALUATE-ASSOC-COMMUT-CALL", "(+$f p q r)", "(+$f (+$f r q) p)",
       ""}}},
    {"META-EXPAND-NARY-CALL",
     "(- p q r)",
     {{"META-EXPAND-NARY-CALL", "(- p q r)", "(- (- p q) r)", ""}}},
    {"CONSIDER-REVERSING-ARGUMENTS",
     "(+ x 1)",
     {{"CONSIDER-REVERSING-ARGUMENTS", "(+ x 1)", "(+ 1 x)", ""}}},
    {"META-IDENTITY-ELIMINATION",
     "(* 1 x)",
     {{"META-IDENTITY-ELIMINATION", "(* 1 x)", "x", ""}}},
    {"META-SIN-TO-SINC",
     "(sin$f x)",
     {{"META-SIN-TO-SINC", "(sin$f x)", "(sinc$f (*$f x 0.159154942))", ""},
      {"CONSIDER-REVERSING-ARGUMENTS", "(*$f x 0.159154942)",
       "(*$f 0.159154942 x)", ""}}},
    {"META-DEAD-CODE",
     "(if nil (f) (g))",
     {{"META-DEAD-CODE", "(if (quote nil) (f) (g))", "(g)", ""}}},
    {"META-REDUNDANT-TEST",
     "(if p (if p (f) (g)) (h))",
     {{"META-REDUNDANT-TEST", "(if p (if p (f) (g)) (h))", "(if p (f) (h))",
       ""}}},
    {"META-IF-OF-PROGN",
     "(if (progn (f) p) x y)",
     {{"META-IF-OF-PROGN", "(if (progn (f) p) x y)", "(progn (f) (if p x y))",
       ""}}},
    {"META-IF-OF-LET",
     "(if ((lambda (v) (g v v)) (f)) x y)",
     {{"META-IF-OF-LET", "(if ((lambda (v) (g v v)) (f)) x y)",
       "((lambda (v) (if (g v v) x y)) (f))", ""}}},
    {"META-DISTRIBUTE-NESTED-IF",
     "(if (if p q r) x y)",
     {{"META-DISTRIBUTE-NESTED-IF", "(if (if p q r) x y)",
       "((lambda (f g) (if p (if q (f) (g)) (if r (f) (g))))\n"
       "  (lambda () x)\n"
       "  (lambda () y))",
       ""}}},
    {"META-PROGN-FLATTEN",
     "(progn (progn (f) (g)) (h))",
     {{"META-PROGN-FLATTEN", "(progn (progn (f) (g)) (h))",
       "(progn (f) (g) (h))", ""}}},
    {"META-CALL-LAMBDA",
     "((lambda () (f x)))",
     {{"META-CALL-LAMBDA", "((lambda () (f x)))", "(f x)", ""}}},
    {"META-DROP-UNUSED-ARGUMENT",
     "((lambda (u) (f x)) (cons y z))",
     {{"META-DROP-UNUSED-ARGUMENT", "((lambda (u) (f x)) (cons y z))",
       "((lambda () (f x)))", ""},
      {"META-CALL-LAMBDA", "((lambda () (f x)))", "(f x)", ""}}},
    {"META-SUBSTITUTE",
     "((lambda (k) (f k k)) 7)",
     {{"META-SUBSTITUTE", "((lambda (k) (f k k)) 7)", "((lambda () (f 7 7)))",
       "2 substitutions for the variable k by 7"},
      {"META-CALL-LAMBDA", "((lambda () (f 7 7)))", "(f 7 7)", ""}}},
};

INSTANTIATE_TEST_SUITE_P(
    Rules, MetaEvalRemarkGolden, ::testing::ValuesIn(RuleCases),
    [](const ::testing::TestParamInfo<RuleCase> &Info) {
      std::string Name = Info.param.Rule;
      for (char &Ch : Name)
        if (Ch == '-')
          Ch = '_';
      return Name;
    });

TEST(CseRemarkGolden, PinsTheRemarkStream) {
  ir::Module M;
  ir::Function *F = frontend::convertDefun(
      M, "(defun probe (p q r x y z) (+ (* x y x) (* x y x)))");
  ASSERT_NE(F, nullptr);
  stats::RemarkStream Log;
  eliminateCommonSubexpressions(*F, {}, &Log);
  expectStream(Log, "opt.cse",
               {{"META-INTRODUCE-COMMON-SUBEXPRESSION",
                 "(+ (* x y x) (* x y x))",
                 "((lambda (cse) (+ cse cse)) (* x y x))",
                 "2 occurrences hoisted"}});
}

} // namespace
