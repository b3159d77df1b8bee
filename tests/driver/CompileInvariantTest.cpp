//===- tests/driver/CompileInvariantTest.cpp ------------------------------===//
//
// The IR verifier's verdict counts, and checking it stays linear. A tree
// the optimizer leaves inconsistent fails the compile with an error that
// names the phase and the function. Three long-body shapes compile at 4k
// and 16k forms and a deep let* at 250 and 1,000 bindings, and the work
// counters of the verifier, detachSubtree and the effect and complexity
// rules may grow at most 4.5x for the 4x input: counters are exact, so
// the bound holds on a noisy host where wall-time ratios would not. The
// deepest let* and cond the converter admits, and calls of 20,000
// arguments, compile and run on every path within the 8 MB stack its
// depth bound is sized for.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "frontend/Convert.h"
#include "interp/Interp.h"
#include "stats/Stats.h"

#include "harness/DeepStack.h"
#include "vm/EngineHarness.h"

#include "gtest/gtest.h"

#include <string>

using namespace s1lisp;

namespace {

TEST(CompileInvariant, BrokenTreeFailsTheCompile) {
  // (defun broken () (go loop)) whose go targets a progbody outside the
  // tree: no rewrite can repair that, so the verifier after the
  // meta-evaluator must stop the compile before code generation.
  ir::Module M;
  ir::Function *F = M.addFunction("broken");
  ir::ProgBodyNode *Elsewhere = F->makeProgBody({});
  const sexpr::Symbol *Loop = M.Syms.intern("loop");
  Elsewhere->Items = {{Loop, nullptr}};
  F->Root = F->makeLambda();
  F->Root->Body = F->makeGo(Loop, Elsewhere);
  F->Root->Body->Parent = F->Root;

  driver::CompileOutcome Out = driver::compileModule(M);
  EXPECT_FALSE(Out.Ok);
  EXPECT_EQ(Out.Error, "error: inconsistent tree after opt.metaeval in "
                       "'broken': go target progbody not in tree\n");
}

/// One `let` of four variables whose body is \p N chained setqs: the
/// compile workload's long-body shape.
std::string longBody(unsigned N) {
  static const char *Vars[] = {"a", "b", "c", "d"};
  std::string S = "(defun long-body (x) (let ((a x) (b 1) (c 2) (d 3))";
  for (unsigned I = 0; I < N; ++I)
    S += std::string(" (setq ") + Vars[I % 4] + " (+ " + Vars[(I * 7 + 1) % 4] +
         " " + std::to_string(I % 9) + "))";
  return S + " (+ a b c d)))";
}

/// \p N setqs in a branch the optimizer deletes: each detaches a write.
std::string deadSetqs(unsigned N) {
  std::string S = "(defun dead-setqs (a) (if nil (progn";
  for (unsigned I = 0; I < N; ++I)
    S += " (setq a (+ a 1))";
  return S + " a) a))";
}

/// A dead (list a a ...) of \p N references, all dropped at once.
std::string deadRefs(unsigned N) {
  std::string S = "(defun dead-refs (a) (progn (list";
  for (unsigned I = 0; I < N; ++I)
    S += " a";
  return S + ") a))";
}

/// A let* of \p N chained bindings: a tree nested N lets deep, which the
/// optimizer turns into (+ 1 (+ 1 ... x)) just as deep.
std::string deepLet(unsigned N) {
  std::string S = "(defun deep-let (x) (let* ((v0 x)";
  for (unsigned I = 1; I < N; ++I)
    S += " (v" + std::to_string(I) + " (+ v" + std::to_string(I - 1) + " 1))";
  return S + ") v" + std::to_string(N - 1) + "))";
}

struct Shape {
  const char *Name;
  std::string (*Source)(unsigned);
  unsigned Small; ///< the large size is 4x this
};

void PrintTo(const Shape &S, std::ostream *OS) { *OS << S.Name; }

class CompileGrowth : public ::testing::TestWithParam<Shape> {};

std::vector<stats::TallyDelta> countersOf(const std::string &Source) {
  std::vector<stats::TallyDelta> Deltas;
  deepstack::run([&] {
    ir::Module M;
    stats::LocalTally T;
    {
      stats::TallyScope Scope(T);
      driver::CompileOutcome Out = driver::compileSource(M, Source);
      EXPECT_TRUE(Out.Ok) << Out.Error;
    }
    Deltas = T.deltas();
  });
  return Deltas;
}

uint64_t added(const std::vector<stats::TallyDelta> &Tally,
               const std::string &Name) {
  for (const stats::TallyDelta &D : Tally)
    if (D.Name == Name)
      return D.Add;
  return 0;
}

TEST_P(CompileGrowth, WorkCountersGrowLinearly) {
  const unsigned N = GetParam().Small;
  auto Small = countersOf(GetParam().Source(N));
  auto Large = countersOf(GetParam().Source(4 * N));
  EXPECT_GT(added(Small, "ir.verify.nodes"), N);
  EXPECT_GT(added(Small, "analysis.rule_evals"), N);
  for (const char *Name : {"ir.verify.nodes", "ir.verify.refs_scanned",
                           "ir.detach.refs_scanned", "analysis.rule_evals"})
    EXPECT_LE(added(Large, Name) * 2, added(Small, Name) * 9)
        << Name << " went from " << added(Small, Name) << " at size " << N
        << " to " << added(Large, Name) << " at " << 4 * N;
}

/// A call of \p Op on \p N copies of x: flat, but the assoc and n-ary
/// rules would chain it into binary calls as deep as it is long.
std::string wideCall(const char *Op, unsigned N) {
  std::string S = std::string("(defun wide (x) (") + Op;
  for (unsigned I = 0; I < N; ++I)
    S += " x";
  return S + "))";
}

TEST(CompileInvariant, ProgramsAtTheDepthBoundPassEveryPath) {
  // The largest let* and cond the converter admits (ConvertTest holds
  // the bound) and calls of 20,000 arguments, which the optimizer leaves
  // n-ary, compile at -O0, by default and with CSE, and every engine
  // returns the interpreter's answer, all on an 8 MB stack.
  std::string Cond = "(defun deep (x) (cond";
  for (unsigned I = 0; I < 3997; ++I)
    Cond += " ((= x " + std::to_string(I) + ") " + std::to_string(I) + ")";
  Cond += "))";
  const struct {
    std::string Source;
    const char *Entry;
    int64_t Arg;
    const char *Want;
  } Programs[] = {{deepLet(1999), "deep-let", 3, "2001"},
                  {Cond, "deep", 3995, "3995"},
                  {wideCall("+", 20000), "wide", 1, "20000"},
                  {wideCall("-", 20000), "wide", 1, "-19998"}};
  driver::CompilerOptions O0, Default, Cse;
  O0.Optimize = false;
  Cse.Cse = true;
  deepstack::run([&] {
    for (const auto &P : Programs) {
      SCOPED_TRACE(P.Source.substr(0, 40));
      sexpr::Value X = sexpr::Value::fixnum(P.Arg);
      ir::Module M;
      DiagEngine Diags;
      ASSERT_TRUE(frontend::convertSource(M, P.Source, Diags)) << Diags.str();
      interp::Interpreter I(M);
      auto R = I.call(P.Entry, {interp::RtValue::data(X)});
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.Value.str(), P.Want);
      for (const driver::CompilerOptions &Opts : {O0, Default, Cse})
        EXPECT_EQ(enginetest::expectEquivalent(P.Source, P.Entry, {X}, Opts).Text,
                  P.Want);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Shapes, CompileGrowth,
                         ::testing::Values(Shape{"long_body", longBody, 4000},
                                           Shape{"dead_setqs", deadSetqs, 4000},
                                           Shape{"dead_refs", deadRefs, 4000},
                                           Shape{"deep_let", deepLet, 250}),
                         [](const ::testing::TestParamInfo<Shape> &Info) {
                           return std::string(Info.param.Name);
                         });

} // namespace
