//===- tests/analysis/AnalysisTest.cpp - Table 1's per-node analyses ------===//
//
// analysis::analyze fills every node's Ann.Effects and Ann.Complexity in
// one postorder walk over its children's annotations; effectsOf and
// complexityOf answer the same questions on demand by recursing. Both
// apply one set of rules, so after analyze every node's annotations
// equal the on-demand answers: on fuzz programs after conversion, after
// the meta-evaluator and after CSE, and on hand-built trees deeper than
// a walk per node could afford.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"

#include "frontend/Convert.h"
#include "fuzz/Generator.h"
#include "opt/Cse.h"
#include "opt/MetaEval.h"
#include "stats/Stats.h"

#include "harness/DeepStack.h"

#include "gtest/gtest.h"

#include <string>

using namespace s1lisp;
using namespace s1lisp::ir;

namespace {

/// Checks every node of \p F against the on-demand queries; returns the
/// nodes checked.
size_t expectAnnotationsMatch(const Function &F, const std::string &Where) {
  size_t Checked = 0;
  forEachNode(static_cast<const Node *>(F.Root), [&](const Node *N) {
    ++Checked;
    EXPECT_EQ(N->Ann.Effects.Bits, analysis::effectsOf(N).Bits)
        << Where << ": " << nodeKindName(N->kind()) << " node of " << F.name();
    EXPECT_EQ(N->Ann.Complexity, analysis::complexityOf(N))
        << Where << ": " << nodeKindName(N->kind()) << " node of " << F.name();
  });
  return Checked;
}

uint64_t added(const std::vector<stats::TallyDelta> &Tally,
               const std::string &Name) {
  for (const stats::TallyDelta &D : Tally)
    if (D.Name == Name)
      return D.Add;
  return 0;
}

TEST(AnalysisTest, AnnotationsMatchOnDemandQueriesOnFuzzPrograms) {
  size_t Checked = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Module M;
    DiagEngine Diags;
    ASSERT_TRUE(frontend::convertSource(M, fuzz::Generator(Seed).generate().Source,
                                        Diags))
        << Diags.str();
    for (const auto &FP : M.functions()) {
      Function &F = *FP;
      analysis::analyze(F);
      Checked += expectAnnotationsMatch(F, "after conversion");
      opt::metaEvaluate(F); // leaves the tree analyzed
      Checked += expectAnnotationsMatch(F, "after metaEvaluate");
      opt::eliminateCommonSubexpressions(F);
      analysis::analyze(F);
      Checked += expectAnnotationsMatch(F, "after CSE");
    }
  }
  EXPECT_GT(Checked, 20000u);
}

/// A root lambda (x) whose body nests \p Depth levels, cycling through
/// every node kind that has children: if, let, progn with a setq,
/// catcher, caseq, primitive and unknown calls, a closure called through
/// a variable, and a progbody left by return.
Function &deepTree(Module &M, unsigned Depth) {
  Function &F = *M.addFunction("deep");
  const sexpr::Symbol *Plus = M.Syms.intern("+");
  const sexpr::Symbol *Car = M.Syms.intern("car");
  const sexpr::Symbol *Unknown = M.Syms.intern("frob");
  F.Root = F.makeLambda();
  Variable *X = F.makeVariable(M.Syms.intern("x"));
  X->Binder = F.Root;
  F.Root->Required = {X};
  auto Lit = [&F](int64_t V) { return F.makeLiteral(sexpr::Value::fixnum(V)); };

  Node *Inner = F.makeVarRef(X);
  for (unsigned Level = 0; Level < Depth; ++Level) {
    switch (Level % 9) {
    case 0:
      Inner = F.makeIf(F.makeVarRef(X), Inner, Lit(0));
      break;
    case 1: { // ((lambda (v) inner) (car x))
      LambdaNode *L = F.makeLambda();
      Variable *V = F.makeVariable(M.Syms.intern("v"));
      V->Binder = L;
      L->Required = {V};
      L->Body = Inner;
      Inner = F.makeCallExpr(L, {F.makeCall(Car, {F.makeVarRef(X)})});
      break;
    }
    case 2:
      Inner = F.makeProgn({F.makeSetq(X, Lit(Level)), Inner});
      break;
    case 3:
      Inner = F.makeCatcher(Lit(7), Inner);
      break;
    case 4:
      Inner = F.makeCaseq(F.makeVarRef(X), {{{sexpr::Value::fixnum(1)}, Inner}},
                          Lit(2));
      break;
    case 5:
      Inner = F.makeCall(Plus, {Inner, Lit(1)});
      break;
    case 6:
      Inner = F.makeCall(Unknown, {Inner});
      break;
    case 7: { // ((lambda (k) (k inner)) (lambda (y) x)): a closure call
      LambdaNode *Thunk = F.makeLambda();
      Variable *Y = F.makeVariable(M.Syms.intern("y"));
      Y->Binder = Thunk;
      Thunk->Required = {Y};
      Thunk->Body = F.makeVarRef(X);
      LambdaNode *L = F.makeLambda();
      Variable *K = F.makeVariable(M.Syms.intern("k"));
      K->Binder = L;
      L->Required = {K};
      L->Body = F.makeCallExpr(F.makeVarRef(K), {Inner});
      Inner = F.makeCallExpr(L, {Thunk});
      break;
    }
    case 8: { // (prog () (return inner))
      ProgBodyNode *P = F.makeProgBody({});
      P->Items = {{nullptr, F.makeReturn(Inner, P)}};
      Inner = P;
      break;
    }
    }
  }
  F.Root->Body = Inner;
  recomputeParents(F.Root);
  return F;
}

TEST(AnalysisTest, AnnotationsMatchOnDemandQueriesOnDeepTrees) {
  deepstack::run([] {
    for (unsigned Depth : {1u, 9u, 100u, 3000u}) {
      SCOPED_TRACE("depth " + std::to_string(Depth));
      Module M;
      Function &F = deepTree(M, Depth);
      DiagEngine Diags;
      EXPECT_TRUE(verify(F, Diags)) << Diags.str();

      // The walk makes two rule evaluations per node, whatever the depth.
      stats::LocalTally T;
      {
        stats::TallyScope Scope(T);
        analysis::analyze(F);
      }
      EXPECT_EQ(added(T.deltas(), "analysis.rule_evals"), 2 * treeSize(F.Root));
      EXPECT_EQ(expectAnnotationsMatch(F, "hand-built"), treeSize(F.Root));
    }
  });
}

TEST(AnalysisTest, OnDemandQueriesCountEveryNodeTheyEvaluate) {
  Module M;
  Function *F = frontend::convertDefun(
      M, "(defun f (a b) (if (car a) (+ a (* b 2)) (frob b)))");
  Node *Body = F->Root->Body;
  stats::LocalTally T;
  {
    stats::TallyScope Scope(T);
    // if 1, (car a) 3, (+ a (* b 2)) 7, (frob b) 6.
    EXPECT_EQ(analysis::complexityOf(Body), 17u);
    EXPECT_EQ(analysis::effectsOf(Body).Bits,
              EffectUnknownCall | EffectWrites | EffectReads | EffectAllocates |
                  EffectControl);
  }
  // Each query evaluates all ten nodes of the if.
  EXPECT_EQ(treeSize(Body), 10u);
  EXPECT_EQ(added(T.deltas(), "analysis.rule_evals"), 20u);
}

} // namespace
