//===- analysis/Analysis.cpp ----------------------------------------------===//

#include "analysis/Analysis.h"

#include "ir/Primitives.h"
#include "stats/Stats.h"

S1_STAT(NumAnalyzeRuns, "analysis.runs", "full re-analyses of a function tree");
S1_STAT(NumRuleEvals, "analysis.rule_evals",
        "nodes the effect and complexity rules evaluated, on demand or in "
        "analyze's walk");

using namespace s1lisp;
using namespace s1lisp::analysis;
using namespace s1lisp::ir;

namespace {

/// The side-effect rule of one node. \p Child gives the effects of a
/// direct child, or of a manifest callee lambda's defaults and body:
/// effectsOf computes them on demand, analyze reads the annotations its
/// postorder walk has already written.
template <typename ChildFx> EffectInfo effectRule(const Node *N, ChildFx &&Child) {
  EffectInfo E;
  switch (N->kind()) {
  case NodeKind::Literal:
    return E;

  case NodeKind::VarRef: {
    // Reading a deep-bound special observes dynamic state; so does
    // reading any lexical variable that is somewhere assigned — moving
    // such a read across a setq would change its value.
    const Variable *V = cast<VarRefNode>(N)->Var;
    if (V->isSpecial() || V->Written)
      E.Bits |= EffectReads;
    return E;
  }

  case NodeKind::Setq: {
    const auto *S = cast<SetqNode>(N);
    E = Child(S->ValueExpr);
    E.Bits |= EffectWrites;
    return E;
  }

  case NodeKind::If:
  case NodeKind::Progn:
  case NodeKind::Caseq:
  case NodeKind::ProgBody: {
    forEachChild(N, [&E, &Child](const Node *C) { E |= Child(C); });
    return E;
  }

  case NodeKind::Lambda:
    // The lambda VALUE is a closure: creating it allocates. Its body runs
    // only when called; the call site accounts for body effects.
    E.Bits |= EffectAllocates;
    return E;

  case NodeKind::Catcher: {
    const auto *C = cast<CatcherNode>(N);
    E = Child(C->TagExpr);
    E |= Child(C->Body);
    // A catcher stops only throws with a matching tag; conservatively the
    // control bit stays if the body has one.
    return E;
  }

  case NodeKind::Go:
  case NodeKind::Return: {
    E.Bits |= EffectControl;
    if (const auto *R = dyn_cast<ReturnNode>(N))
      E |= Child(R->ValueExpr);
    return E;
  }

  case NodeKind::Call: {
    const auto *C = cast<CallNode>(N);
    for (const Node *A : C->Args)
      E |= Child(A);
    if (C->CalleeExpr) {
      if (const auto *L = dyn_cast<LambdaNode>(C->CalleeExpr)) {
        // Calling a manifest lambda (LET): the body executes here. Optional
        // defaults may execute too.
        for (const auto &O : L->Optionals)
          if (O.Default)
            E |= Child(O.Default);
        E |= Child(L->Body);
      } else {
        E |= Child(C->CalleeExpr);
        E.Bits |= EffectUnknownCall;
      }
      return E;
    }
    if (const PrimInfo *P = lookupPrim(C->Name)) {
      E |= P->Effects;
      return E;
    }
    // User-defined or unknown function: assume the worst.
    E.Bits |= EffectUnknownCall | EffectWrites | EffectReads | EffectAllocates |
              EffectControl;
    return E;
  }
  }
  return E;
}

/// The complexity rule of one node; \p Child gives a direct child's
/// complexity, as for effectRule.
template <typename ChildCx> unsigned complexityRule(const Node *N, ChildCx &&Child) {
  unsigned Weight = 1;
  switch (N->kind()) {
  case NodeKind::Call:
    Weight = cast<CallNode>(N)->Name && lookupPrim(cast<CallNode>(N)->Name)
                 ? 2  // in-line primitive
                 : 5; // full call sequence
    break;
  case NodeKind::Caseq:
    Weight = 4; // dispatch table
    break;
  case NodeKind::Lambda:
    Weight = 3; // potential closure construction
    break;
  case NodeKind::Catcher:
    Weight = 4;
    break;
  default:
    break;
  }
  unsigned Total = Weight;
  forEachChild(N, [&Total, &Child](const Node *C) { Total += Child(C); });
  return Total;
}

/// On-demand evaluation: each rule recurses into the children, counting
/// the nodes it evaluates in \p Evals.
EffectInfo effectsBelow(const Node *N, uint64_t &Evals) {
  ++Evals;
  return effectRule(N, [&Evals](const Node *C) { return effectsBelow(C, Evals); });
}

unsigned complexityBelow(const Node *N, uint64_t &Evals) {
  ++Evals;
  return complexityRule(
      N, [&Evals](const Node *C) { return complexityBelow(C, Evals); });
}

/// analyze's walk: children first, then each rule once over the
/// children's annotations. Returns the nodes visited.
uint64_t annotateBelow(Node *N) {
  uint64_t Visited = 1;
  forEachChild(N, [&Visited](Node *C) { Visited += annotateBelow(C); });
  N->Ann.Effects = effectRule(N, [](const Node *C) { return C->Ann.Effects; });
  N->Ann.Complexity =
      complexityRule(N, [](const Node *C) { return C->Ann.Complexity; });
  return Visited;
}

} // namespace

EffectInfo analysis::effectsOf(const Node *N) {
  uint64_t Evals = 0;
  EffectInfo E = effectsBelow(N, Evals);
  NumRuleEvals += Evals;
  return E;
}

unsigned analysis::complexityOf(const Node *N) {
  uint64_t Evals = 0;
  unsigned Total = complexityBelow(N, Evals);
  NumRuleEvals += Evals;
  return Total;
}

namespace {

void markTails(Node *N, bool Tail) {
  N->Ann.Tail = Tail;
  switch (N->kind()) {
  case NodeKind::If: {
    auto *I = cast<IfNode>(N);
    markTails(I->Test, false);
    markTails(I->Then, Tail);
    markTails(I->Else, Tail);
    return;
  }
  case NodeKind::Progn: {
    auto *P = cast<PrognNode>(N);
    for (size_t J = 0; J < P->Forms.size(); ++J)
      markTails(P->Forms[J], Tail && J + 1 == P->Forms.size());
    return;
  }
  case NodeKind::Caseq: {
    auto *C = cast<CaseqNode>(N);
    markTails(C->Key, false);
    for (auto &Cl : C->Clauses)
      markTails(Cl.Body, Tail);
    markTails(C->Default, Tail);
    return;
  }
  case NodeKind::Lambda: {
    auto *L = cast<LambdaNode>(N);
    for (auto &O : L->Optionals)
      if (O.Default)
        markTails(O.Default, false);
    // A lambda body is in tail position of that lambda.
    markTails(L->Body, true);
    return;
  }
  case NodeKind::Call: {
    auto *C = cast<CallNode>(N);
    if (C->CalleeExpr) {
      if (auto *L = dyn_cast<LambdaNode>(C->CalleeExpr)) {
        // A LET's body inherits the call's tail position.
        for (auto &O : L->Optionals)
          if (O.Default)
            markTails(O.Default, false);
        L->Ann.Tail = false;
        markTails(L->Body, Tail);
      } else {
        markTails(C->CalleeExpr, false);
      }
    }
    for (Node *A : C->Args)
      markTails(A, false);
    return;
  }
  case NodeKind::Catcher: {
    auto *C = cast<CatcherNode>(N);
    markTails(C->TagExpr, false);
    // The body's value is delivered through the catcher's unwind check, so
    // calls inside are not straight tail jumps.
    markTails(C->Body, false);
    return;
  }
  case NodeKind::ProgBody: {
    auto *P = cast<ProgBodyNode>(N);
    for (auto &I : P->Items)
      if (I.Stmt)
        markTails(I.Stmt, false);
    return;
  }
  case NodeKind::Setq:
    markTails(cast<SetqNode>(N)->ValueExpr, false);
    return;
  case NodeKind::Return:
    // The progbody's value position; treat the value expression as non-tail
    // (it must return through the progbody bookkeeping).
    markTails(cast<ReturnNode>(N)->ValueExpr, false);
    return;
  case NodeKind::Literal:
  case NodeKind::VarRef:
  case NodeKind::Go:
    return;
  }
}

} // namespace

void analysis::analyzeTails(Function &F) { markTails(F.Root, false); }

void analysis::analyze(Function &F) {
  stats::PhaseTimer Timer("analysis");
  ++NumAnalyzeRuns;
  recomputeVariableRefs(F);
  // Two rule evaluations per node: its effects and its complexity.
  NumRuleEvals += 2 * annotateBelow(F.Root);
  analyzeTails(F);
}

bool analysis::equalTrees(const Node *A, const Node *B) {
  if (A == B)
    return true;
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case NodeKind::Literal:
    return sexpr::eql(cast<LiteralNode>(A)->Datum, cast<LiteralNode>(B)->Datum);
  case NodeKind::VarRef:
    return cast<VarRefNode>(A)->Var == cast<VarRefNode>(B)->Var;
  case NodeKind::Setq:
    return cast<SetqNode>(A)->Var == cast<SetqNode>(B)->Var &&
           equalTrees(cast<SetqNode>(A)->ValueExpr, cast<SetqNode>(B)->ValueExpr);
  case NodeKind::If: {
    const auto *IA = cast<IfNode>(A), *IB = cast<IfNode>(B);
    return equalTrees(IA->Test, IB->Test) && equalTrees(IA->Then, IB->Then) &&
           equalTrees(IA->Else, IB->Else);
  }
  case NodeKind::Progn: {
    const auto *PA = cast<PrognNode>(A), *PB = cast<PrognNode>(B);
    if (PA->Forms.size() != PB->Forms.size())
      return false;
    for (size_t J = 0; J < PA->Forms.size(); ++J)
      if (!equalTrees(PA->Forms[J], PB->Forms[J]))
        return false;
    return true;
  }
  case NodeKind::Call: {
    const auto *CA = cast<CallNode>(A), *CB = cast<CallNode>(B);
    if (CA->Name != CB->Name || CA->Args.size() != CB->Args.size())
      return false;
    if ((CA->CalleeExpr == nullptr) != (CB->CalleeExpr == nullptr))
      return false;
    if (CA->CalleeExpr && !equalTrees(CA->CalleeExpr, CB->CalleeExpr))
      return false;
    for (size_t J = 0; J < CA->Args.size(); ++J)
      if (!equalTrees(CA->Args[J], CB->Args[J]))
        return false;
    return true;
  }
  default:
    // Lambdas, progbodies, catchers, gos: identity only (alpha-comparison
    // is more machinery than redundant-test elimination needs).
    return false;
  }
}
