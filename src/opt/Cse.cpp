//===- opt/Cse.cpp --------------------------------------------------------===//

#include "opt/Cse.h"

#include "analysis/Analysis.h"
#include "ir/BackTranslate.h"
#include "sexpr/Printer.h"
#include "stats/Stats.h"

#include <map>

S1_STAT(NumHoisted, "opt.cse.hoisted", "common subexpressions abstracted");

using namespace s1lisp;
using namespace s1lisp::opt;
using namespace s1lisp::ir;

namespace {

/// A stable structural key for a subtree (variables by identity, so two
/// textually equal trees over different bindings do not collide).
std::string keyOf(const Node *N) {
  switch (N->kind()) {
  case NodeKind::Literal:
    return "L" + sexpr::toString(cast<LiteralNode>(N)->Datum);
  case NodeKind::VarRef:
    return "V" + std::to_string(cast<VarRefNode>(N)->Var->id());
  case NodeKind::Call: {
    const auto *C = cast<CallNode>(N);
    std::string K = "C";
    K += C->Name ? C->Name->name() : std::string("<expr>");
    if (C->CalleeExpr)
      K += "{" + keyOf(C->CalleeExpr) + "}";
    for (const Node *A : C->Args)
      K += "(" + keyOf(A) + ")";
    return K;
  }
  case NodeKind::If: {
    const auto *I = cast<IfNode>(N);
    return "I(" + keyOf(I->Test) + ")(" + keyOf(I->Then) + ")(" + keyOf(I->Else) +
           ")";
  }
  default:
    // Unsupported shapes never participate.
    return "X" + std::to_string(reinterpret_cast<uintptr_t>(N));
  }
}

/// Collects candidate occurrences below \p Root without descending into
/// lambdas (hoisting across a lambda boundary would change how often the
/// expression evaluates) or into progbodies (loops re-evaluate). Reads
/// the effects and complexity analysis::analyze left on each node.
void collectOccurrences(Node *Root, std::map<std::string, std::vector<Node *>> &Out,
                        const CseOptions &Opts) {
  if (Root->kind() == NodeKind::Lambda || Root->kind() == NodeKind::ProgBody)
    return;
  if (Root->kind() == NodeKind::Call && Root->Ann.Effects.duplicable() &&
      Root->Ann.Complexity >= Opts.MinComplexity)
    Out[keyOf(Root)].push_back(Root);
  forEachChild(Root, [&](Node *C) { collectOccurrences(C, Out, Opts); });
}

bool isAncestor(const Node *Maybe, const Node *N) {
  for (const Node *Cur = N; Cur; Cur = Cur->Parent)
    if (Cur == Maybe)
      return true;
  return false;
}

} // namespace

unsigned opt::eliminateCommonSubexpressions(Function &F, const CseOptions &Opts,
                                            stats::RemarkStream *Log,
                                            DiagEngine *Diags) {
  stats::PhaseTimer Timer("opt.cse");
  unsigned Hoisted = 0;
  for (unsigned Round = 0; Round < Opts.MaxRounds; ++Round) {
    // Fills the Ann.Effects and Ann.Complexity that the search below
    // reads; the tree does not change until the hoist.
    analysis::analyze(F);
    std::map<std::string, std::vector<Node *>> Occurrences;
    collectOccurrences(F.Root->Body, Occurrences, Opts);

    // Pick the largest expression with at least two disjoint occurrences.
    Node *Best = nullptr;
    std::vector<Node *> BestSites;
    unsigned BestSize = 0;
    for (auto &[Key, Sites] : Occurrences) {
      if (Sites.size() < 2)
        continue;
      // Drop occurrences nested inside other occurrences of the same key.
      std::vector<Node *> Disjoint;
      for (Node *S : Sites) {
        bool Nested = false;
        for (Node *T : Sites)
          Nested |= T != S && isAncestor(T, S);
        if (!Nested)
          Disjoint.push_back(S);
      }
      if (Disjoint.size() < 2)
        continue;
      unsigned Size = Disjoint[0]->Ann.Complexity;
      if (Size > BestSize) {
        BestSize = Size;
        Best = Disjoint[0];
        BestSites = Disjoint;
      }
    }
    if (!Best)
      break;

    std::string Before =
        Log ? backTranslateToString(F, F.Root->Body) : std::string();

    // Introduce ((lambda (cse) body') <expr>) around the function body,
    // replacing every occurrence with the new variable.
    LambdaNode *L = F.makeLambda();
    Variable *V = F.makeVariable(F.symbols().intern("cse"));
    V->Binder = L;
    L->Required = {V};

    Node *Hoist = cloneTree(F, Best);
    Node *OldBody = F.Root->Body;
    for (Node *Site : BestSites)
      replaceChild(Site->Parent, Site, F.makeVarRef(V));
    L->Body = OldBody;
    OldBody->Parent = L;
    CallNode *Let = F.makeCallExpr(L, {Hoist});
    F.Root->Body = Let;
    Let->Parent = F.Root;

    recomputeVariableRefs(F);
    ++Hoisted;
    ++NumHoisted;
    if (Log) {
      stats::Remark R;
      R.Phase = "opt.cse";
      R.Rule = "META-INTRODUCE-COMMON-SUBEXPRESSION";
      R.Function = F.name();
      R.Before = Before;
      R.After = backTranslateToString(F, F.Root->Body);
      R.Detail = std::to_string(BestSites.size()) + " occurrences hoisted";
      Log->remark(std::move(R));
    }
  }
  if (Hoisted)
    verifyAfter("opt.cse", F, Diags);
  return Hoisted;
}
