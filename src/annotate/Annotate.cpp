//===- annotate/Annotate.cpp ----------------------------------------------===//

#include "annotate/Annotate.h"

#include "analysis/Analysis.h"
#include "ir/Primitives.h"
#include "stats/Stats.h"

#include <unordered_set>

S1_STAT(NumOpenLambdas, "annotate.lambdas.open", "lambdas compiled open (LET)");
S1_STAT(NumJumpLambdas, "annotate.lambdas.jump", "lambdas compiled as jumps");
S1_STAT(NumFullClosures, "annotate.lambdas.closure",
        "lambdas compiled as full closures");
S1_STAT(NumHeapVars, "annotate.vars.heap", "variables given heap binding cells");
S1_STAT(NumRawFloatVars, "annotate.vars.rawfloat",
        "variables kept as raw machine floats");
S1_STAT(NumRawFixnumVars, "annotate.vars.rawfixnum",
        "variables kept as raw machine fixnums");
S1_STAT(NumPdlSites, "annotate.pdl.sites",
        "coercion sites authorized to stack-allocate boxes");

using namespace s1lisp;
using namespace s1lisp::annotate;
using namespace s1lisp::ir;

bool annotate::isLocalTailPosition(const Node *Body, const Node *Site) {
  // Walk upward from Site to Body; every hop must be value-transparent.
  const Node *Cur = Site;
  while (Cur != Body) {
    const Node *Parent = Cur->Parent;
    if (!Parent)
      return false;
    switch (Parent->kind()) {
    case NodeKind::If: {
      const auto *I = cast<IfNode>(Parent);
      if (Cur == I->Test)
        return false;
      break;
    }
    case NodeKind::Progn: {
      const auto *P = cast<PrognNode>(Parent);
      if (P->Forms.empty() || P->Forms.back() != Cur)
        return false;
      break;
    }
    case NodeKind::Caseq: {
      const auto *C = cast<CaseqNode>(Parent);
      if (Cur == C->Key)
        return false;
      break;
    }
    case NodeKind::Lambda: {
      // The body of a LET's lambda is value-transparent through the call:
      // hop from the lambda to the enclosing direct call.
      const auto *L = cast<LambdaNode>(Parent);
      if (L->Body != Cur || !L->Parent)
        return false;
      const auto *C = dyn_cast<CallNode>(L->Parent);
      if (!C || C->CalleeExpr != L)
        return false;
      // A jump out of a special-binding LET would skip its unbinding.
      for (const Variable *P : L->allParams())
        if (P->isSpecial())
          return false;
      Cur = L->Parent; // continue from the call node
      continue;
    }
    default:
      return false;
    }
    Cur = Parent;
  }
  return true;
}

namespace {

/// Is this lambda the callee of a direct call (a LET)?
bool isOpenLambda(const LambdaNode *L) {
  const auto *C = dyn_cast<CallNode>(L->Parent);
  return C && C->CalleeExpr == L;
}

/// Classifies a lambda that is an argument of an open call binding
/// variable \p V: Jump if every reference to V is the callee of a
/// zero-argument call sitting in local tail position of the binder's body.
bool qualifiesAsJumpThunk(const LambdaNode *Thunk, const Variable *V,
                          const LambdaNode *Binder) {
  if (!Thunk->Required.empty() || !Thunk->Optionals.empty() || Thunk->Rest)
    return false;
  if (V->Refs.empty())
    return false;
  for (const Node *Ref : V->Refs) {
    if (Ref->kind() != NodeKind::VarRef)
      return false; // a setq disqualifies
    const auto *Call = dyn_cast<CallNode>(Ref->Parent);
    if (!Call || Call->CalleeExpr != Ref || !Call->Args.empty())
      return false;
    if (!isLocalTailPosition(Binder->Body, Call))
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Binding annotation
//===----------------------------------------------------------------------===//

void annotateBindings(Function &F, AnnotateStats &Stats) {
  forEachNode(static_cast<Node *>(F.Root), [&](Node *N) {
    auto *L = dyn_cast<LambdaNode>(N);
    if (!L)
      return;
    if (L == F.Root) {
      L->Strategy = LambdaStrategy::Open; // the root is entered directly
      return;
    }
    if (isOpenLambda(L)) {
      L->Strategy = LambdaStrategy::Open;
      ++Stats.OpenLambdas;
      return;
    }
    // A lambda argument of an open call may be a jump thunk.
    if (auto *C = dyn_cast<CallNode>(L->Parent)) {
      if (C->CalleeExpr && C->CalleeExpr != L) {
        if (auto *Binder = dyn_cast<LambdaNode>(C->CalleeExpr)) {
          for (size_t J = 0; J < Binder->Required.size() && J < C->Args.size();
               ++J) {
            if (C->Args[J] != L)
              continue;
            if (qualifiesAsJumpThunk(L, Binder->Required[J], Binder)) {
              L->Strategy = LambdaStrategy::Jump;
              ++Stats.JumpLambdas;
              return;
            }
          }
        }
      }
    }
    L->Strategy = LambdaStrategy::FullClosure;
    ++Stats.FullClosures;
  });

  // Heap allocation: a variable referenced from inside a FullClosure
  // lambda nested below its binder must live in a heap environment.
  forEachNode(static_cast<Node *>(F.Root), [&](Node *N) {
    auto *L = dyn_cast<LambdaNode>(N);
    if (!L || L->Strategy != LambdaStrategy::FullClosure)
      return;
    std::unordered_set<const Variable *> BoundInside;
    forEachNode(static_cast<Node *>(L), [&](Node *M) {
      if (auto *Inner = dyn_cast<LambdaNode>(M))
        for (Variable *P : Inner->allParams())
          BoundInside.insert(P);
    });
    forEachNode(static_cast<Node *>(L), [&](Node *M) {
      Variable *V = nullptr;
      if (auto *VR = dyn_cast<VarRefNode>(M))
        V = VR->Var;
      else if (auto *SQ = dyn_cast<SetqNode>(M))
        V = SQ->Var;
      if (V && !V->isSpecial() && !BoundInside.count(V) && V->Binder)
        V->HeapAllocated = true;
    });
  });
  for (Variable *V : F.variables())
    Stats.HeapVariables += V->HeapAllocated;
}

//===----------------------------------------------------------------------===//
// Representation annotation (§6.2)
//===----------------------------------------------------------------------===//

/// The representation a context wants for \p Child.
Rep wantedRepOf(const Node *Child) {
  const Node *Parent = Child->Parent;
  if (!Parent)
    return Rep::POINTER;
  if (const auto *C = dyn_cast<CallNode>(Parent)) {
    if (C->Name) {
      const PrimInfo *P = lookupPrim(C->Name);
      if (P) {
        for (const Node *A : C->Args)
          if (A == Child)
            return P->ArgRep;
      }
    }
    return Rep::POINTER; // user calls take pointers
  }
  if (const auto *I = dyn_cast<IfNode>(Parent)) {
    if (Child == I->Test)
      return Rep::JUMP;
    return Parent->Ann.WantRep;
  }
  if (Parent->kind() == NodeKind::Progn) {
    const auto *P = cast<PrognNode>(Parent);
    if (!P->Forms.empty() && P->Forms.back() == Child)
      return Parent->Ann.WantRep;
    return Rep::NONE;
  }
  return Rep::POINTER;
}

/// The representation \p N naturally delivers, given variable reps.
Rep deliveredRepOf(const Node *N) {
  switch (N->kind()) {
  case NodeKind::Literal: {
    const auto *L = cast<LiteralNode>(N);
    // A numeric literal can be materialized in whatever rep the context
    // wants; report the natural raw rep for numbers.
    if (L->Datum.isFlonum())
      return N->Ann.WantRep == Rep::SWFLO ? Rep::SWFLO : Rep::POINTER;
    if (L->Datum.isFixnum())
      return N->Ann.WantRep == Rep::SWFIX ? Rep::SWFIX : Rep::POINTER;
    return Rep::POINTER;
  }
  case NodeKind::VarRef:
    return cast<VarRefNode>(N)->Var->VarRep;
  case NodeKind::Call: {
    const auto *C = cast<CallNode>(N);
    if (C->Name) {
      if (const PrimInfo *P = lookupPrim(C->Name)) {
        if (P->ResultRep == Rep::BIT)
          return Rep::POINTER; // value-ized booleans are t/nil pointers
        return P->ResultRep;
      }
    }
    if (C->isLetLike())
      return cast<LambdaNode>(C->CalleeExpr)->Body->Ann.IsRep;
    return Rep::POINTER;
  }
  case NodeKind::If: {
    const auto *I = cast<IfNode>(N);
    Rep T = I->Then->Ann.IsRep, E = I->Else->Ann.IsRep;
    if (T == E)
      return T;
    // §6.2: when the arms disagree, prefer the context's WANTREP when one
    // arm already delivers it and the other is convertible — letting the
    // (sqrt$f q) arm stay raw while (car r) merely dereferences.
    Rep Want = N->Ann.WantRep;
    if ((T == Want || E == Want) &&
        (Want == Rep::SWFLO || Want == Rep::SWFIX || Want == Rep::POINTER))
      return Want;
    return Rep::POINTER;
  }
  case NodeKind::Progn: {
    const auto *P = cast<PrognNode>(N);
    return P->Forms.empty() ? Rep::POINTER : P->Forms.back()->Ann.IsRep;
  }
  default:
    return Rep::POINTER;
  }
}

/// Postorder ISREP: children first, then the node.
void refreshIsReps(Node *N) {
  forEachChild(N, refreshIsReps);
  N->Ann.IsRep = deliveredRepOf(N);
}

void annotateReps(Function &F, bool Enable, AnnotateStats &Stats) {
  // Default: everything is a pointer.
  forEachNode(static_cast<Node *>(F.Root), [](Node *N) {
    N->Ann.WantRep = Rep::POINTER;
    N->Ann.IsRep = Rep::POINTER;
  });
  for (Variable *V : F.variables())
    V->VarRep = Rep::POINTER;
  if (!Enable)
    return;

  // Iterate to a small fixpoint: variable reps feed node reps and back.
  for (int Iter = 0; Iter < 4; ++Iter) {
    bool Changed = false;

    // Top-down WANTREP, bottom-up ISREP (preorder parents first, then a
    // postorder recomputation).
    forEachNode(static_cast<Node *>(F.Root),
                [](Node *N) { N->Ann.WantRep = wantedRepOf(N); });
    refreshIsReps(F.Root);

    // Variables: a non-special, non-heap, unwritten-or-consistent variable
    // whose every read is wanted raw and whose initializer delivers raw is
    // kept raw; "if not all references agree, POINTER can always be used".
    for (Variable *V : F.variables()) {
      if (V->isSpecial() || V->HeapAllocated || !V->Binder)
        continue;
      const LambdaNode *Binder = V->Binder;
      // Only open-lambda (LET) and root parameters participate.
      bool IsOpen = Binder == F.Root ||
                    (Binder->Parent && isOpenLambda(Binder));
      if (!IsOpen)
        continue;
      // Root parameters arrive as pointers by convention, so only LET
      // parameters (with a visible initializer) may go raw.
      bool HasInit = false;
      if (Binder != F.Root && Binder->Parent) {
        const auto *C = cast<CallNode>(Binder->Parent);
        for (size_t J = 0; J < Binder->Required.size() && J < C->Args.size(); ++J)
          if (Binder->Required[J] == V)
            HasInit = true;
      }
      if (!HasInit)
        continue;

      // The variable may be kept raw when every value flowing into it is
      // statically of that raw type (the initializer and every setq).
      // Reads in pointer contexts then merely re-box an eql value — and
      // eq "is not guaranteed to work on numbers" (§6.3), so this is
      // invisible to correct programs. At least one raw-wanting use must
      // exist to make it worthwhile; "POINTER can always be used"
      // otherwise.
      auto WriteRepOf = [](const Node *E) {
        if (const auto *Lit = dyn_cast<LiteralNode>(E)) {
          if (Lit->Datum.isFlonum())
            return Rep::SWFLO;
          if (Lit->Datum.isFixnum())
            return Rep::SWFIX;
          return Rep::POINTER;
        }
        return E->Ann.IsRep;
      };
      // The initializer's rep, with literal awareness.
      Rep FlowRep = Rep::POINTER;
      {
        const auto *C = cast<CallNode>(Binder->Parent);
        for (size_t J = 0; J < Binder->Required.size() && J < C->Args.size(); ++J)
          if (Binder->Required[J] == V)
            FlowRep = WriteRepOf(C->Args[J]);
      }
      bool AllWritesAgree = FlowRep == Rep::SWFLO || FlowRep == Rep::SWFIX;
      unsigned RawWants = 0;
      for (const Node *Ref : V->Refs) {
        if (Ref->kind() == NodeKind::Setq) {
          if (WriteRepOf(cast<SetqNode>(Ref)->ValueExpr) != FlowRep)
            AllWritesAgree = false;
          continue;
        }
        RawWants += Ref->Ann.WantRep == FlowRep;
      }
      Rep NewRep =
          AllWritesAgree && RawWants >= 1 ? FlowRep : Rep::POINTER;
      if (V->VarRep != NewRep) {
        V->VarRep = NewRep;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }

  for (Variable *V : F.variables()) {
    Stats.RawFloatVariables += V->VarRep == Rep::SWFLO;
    Stats.RawFixnumVariables += V->VarRep == Rep::SWFIX;
  }
}

//===----------------------------------------------------------------------===//
// Pdl-number annotation (§6.3)
//===----------------------------------------------------------------------===//

/// Is a pointer produced at \p Child consumed only by safe operations
/// within the current function frame? Walks upward to find the
/// authorizing node; null when the value might escape.
const Node *pdlAuthorizer(const Node *Child) {
  const Node *Cur = Child;
  while (true) {
    const Node *Parent = Cur->Parent;
    if (!Parent)
      return nullptr; // function result: returning is unsafe
    switch (Parent->kind()) {
    case NodeKind::If: {
      const auto *I = cast<IfNode>(Parent);
      if (Cur == I->Test)
        return Parent; // the conditional test is a safe operation
      Cur = Parent;    // arms pass the parent's authorization down
      continue;
    }
    case NodeKind::Progn: {
      const auto *P = cast<PrognNode>(Parent);
      if (!P->Forms.empty() && P->Forms.back() == Cur) {
        Cur = Parent;
        continue;
      }
      return Parent; // value dropped: trivially safe
    }
    case NodeKind::Call: {
      const auto *C = cast<CallNode>(Parent);
      if (C->CalleeExpr && C->CalleeExpr == Cur)
        return nullptr;
      if (C->Name) {
        const PrimInfo *P = lookupPrim(C->Name);
        if (!P)
          return Parent; // user call: passing a pointer is safe (§6.3)
        // Unsafe prims: those that store pointers into the heap or global
        // state (cons, list, rplaca, setq-like), or re-throw values.
        switch (P->Op) {
        case Prim::Cons:
        case Prim::List:
        case Prim::Append:
        case Prim::Rplaca:
        case Prim::Rplacd:
        case Prim::Throw:
        case Prim::Funcall:
        case Prim::Apply:
          return nullptr;
        default:
          return Parent; // arithmetic, predicates, print, ... are safe
        }
      }
      if (C->isLetLike())
        return nullptr; // handled separately via the variable path
      return Parent;
    }
    default:
      return nullptr; // setq, caseq key, catcher, return, ...
    }
  }
}

void annotatePdl(Function &F, bool Enable, AnnotateStats &Stats) {
  forEachNode(static_cast<Node *>(F.Root), [](Node *N) {
    N->Ann.PdlOkp = nullptr;
    N->Ann.PdlNump = false;
  });
  if (!Enable)
    return;

  forEachNode(static_cast<Node *>(F.Root), [&](Node *N) {
    // PDLNUMP: the node produces a raw float but the context needs a
    // pointer, so a coercion (boxing) happens here.
    bool Coerces = repIsPdlEligible(N->Ann.IsRep) &&
                   N->Ann.WantRep == Rep::POINTER;
    if (!Coerces)
      return;
    N->Ann.PdlNump = true;

    // Direct flow into a safe consumer.
    if (const Node *Auth = pdlAuthorizer(N)) {
      N->Ann.PdlOkp = Auth;
      ++Stats.PdlSites;
      return;
    }

    // LET-variable flow: ((lambda (d ...) body) <this> ...) where every
    // use of d is a safe position and d cannot escape the frame.
    const auto *C = dyn_cast<CallNode>(N->Parent);
    if (!C || !C->isLetLike())
      return;
    const auto *L = cast<LambdaNode>(C->CalleeExpr);
    const Variable *V = nullptr;
    for (size_t J = 0; J < L->Required.size() && J < C->Args.size(); ++J)
      if (C->Args[J] == N)
        V = L->Required[J];
    if (!V || V->isSpecial() || V->HeapAllocated || V->Written)
      return;
    for (const Node *Ref : V->Refs)
      if (!pdlAuthorizer(Ref))
        return;
    N->Ann.PdlOkp = C; // the LET bounds the lifetime
    ++Stats.PdlSites;
  });
}

} // namespace

AnnotateStats annotate::annotate(Function &F, const AnnotateOptions &Opts) {
  stats::PhaseTimer Timer("annotate");
  AnnotateStats Stats;
  analysis::analyze(F);
  annotateBindings(F, Stats);
  annotateReps(F, Opts.RepAnalysis, Stats);
  annotatePdl(F, Opts.PdlNumbers, Stats);
  NumOpenLambdas += Stats.OpenLambdas;
  NumJumpLambdas += Stats.JumpLambdas;
  NumFullClosures += Stats.FullClosures;
  NumHeapVars += Stats.HeapVariables;
  NumRawFloatVars += Stats.RawFloatVariables;
  NumRawFixnumVars += Stats.RawFixnumVariables;
  NumPdlSites += Stats.PdlSites;
  return Stats;
}
