//===- tests/driver/CompileInvariantTest.cpp ------------------------------===//
//
// The IR verifier's verdict counts, and checking it stays linear. A tree
// the optimizer leaves inconsistent fails the compile with an error that
// names the phase and the function. Three long-body shapes compile at 4k
// and 16k forms, and the verifier's and detachSubtree's work counters may
// grow at most 4.5x for the 4x input: counters are exact, so the bound
// holds on a noisy host where wall-time ratios would not.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "stats/Stats.h"

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

struct Shape {
  const char *Name;
  std::string (*Source)(unsigned);
};

void PrintTo(const Shape &S, std::ostream *OS) { *OS << S.Name; }

class CompileGrowth : public ::testing::TestWithParam<Shape> {};

std::vector<stats::TallyDelta> countersOf(const std::string &Source) {
  ir::Module M;
  stats::LocalTally T;
  {
    stats::TallyScope Scope(T);
    driver::CompileOutcome Out = driver::compileSource(M, Source);
    EXPECT_TRUE(Out.Ok) << Out.Error;
  }
  return T.deltas();
}

uint64_t added(const std::vector<stats::TallyDelta> &Tally,
               const std::string &Name) {
  for (const stats::TallyDelta &D : Tally)
    if (D.Name == Name)
      return D.Add;
  return 0;
}

TEST_P(CompileGrowth, WorkCountersGrowLinearly) {
  auto Small = countersOf(GetParam().Source(4000));
  auto Large = countersOf(GetParam().Source(16000));
  EXPECT_GT(added(Small, "ir.verify.nodes"), 4000u);
  for (const char *Name :
       {"ir.verify.nodes", "ir.verify.refs_scanned", "ir.detach.refs_scanned"})
    EXPECT_LE(added(Large, Name) * 2, added(Small, Name) * 9)
        << Name << " went from " << added(Small, Name) << " at 4k forms to "
        << added(Large, Name) << " at 16k";
}

INSTANTIATE_TEST_SUITE_P(Shapes, CompileGrowth,
                         ::testing::Values(Shape{"long_body", longBody},
                                           Shape{"dead_setqs", deadSetqs},
                                           Shape{"dead_refs", deadRefs}),
                         [](const ::testing::TestParamInfo<Shape> &Info) {
                           return std::string(Info.param.Name);
                         });

} // namespace
