//===- tnbind/TnBind.cpp --------------------------------------------------===//

#include "tnbind/TnBind.h"

#include "ir/Primitives.h"
#include "s1/Isa.h"
#include "stats/Stats.h"

#include <algorithm>

S1_STAT(NumUnits, "tnbind.units", "compilation units packed");
S1_STAT(NumVarsInRegisters, "tnbind.vars.registers",
        "variables packed into registers");
S1_STAT(NumVarsInFrame, "tnbind.vars.frame",
        "variables spilled to frame slots");
S1_STAT(NumFrameSlots, "tnbind.frame.slots", "frame slots consumed by TNs");

using namespace s1lisp;
using namespace s1lisp::tnbind;
using namespace s1lisp::ir;

namespace {

/// One TN with the annotations packing needs.
struct Tn {
  const Variable *Var = nullptr;
  unsigned Start = 0; ///< first event index (binding)
  unsigned End = 0;   ///< last event index (final reference)
  unsigned Weight = 0;
  bool AcrossCall = false;
  Location Loc;
};

/// Linearizes the unit in evaluation order, numbering events, recording
/// variable binding/reference positions and call positions. Nested
/// FullClosure lambdas are treated as leaves (their bodies run elsewhere,
/// but creating the closure is an allocation "call").
struct Linearizer {
  const LambdaNode *Root = nullptr;
  unsigned Clock = 0;
  std::vector<unsigned> CallPositions;
  std::unordered_map<const Variable *, Tn> Tns;

  /// A LET-bound jump thunk: its body is walked where it is bound, but it
  /// runs at its calls.
  struct Thunk {
    const Variable *Var;
    const LambdaNode *Lambda;
    unsigned BindClock;
  };
  std::vector<Thunk> Thunks;

  void touch(const Variable *V) {
    auto It = Tns.find(V);
    if (It == Tns.end())
      return;
    It->second.End = Clock;
    ++It->second.Weight;
  }

  void bind(const Variable *V) {
    Tn T;
    T.Var = V;
    T.Start = Clock;
    T.End = Clock;
    Tns.emplace(V, T);
  }

  void walk(const Node *N) {
    ++Clock;
    switch (N->kind()) {
    case NodeKind::Lambda: {
      const auto *L = cast<LambdaNode>(N);
      if (L != Root && L->Strategy == LambdaStrategy::FullClosure) {
        CallPositions.push_back(Clock); // closure creation allocates
        return;                         // body belongs to another unit
      }
      // Open/Jump lambda encountered outside a call position: walk inside.
      for (const Variable *P : L->Required)
        bind(P);
      for (const auto &O : L->Optionals) {
        bind(O.Var);
        if (O.Default)
          walk(O.Default);
      }
      if (L->Rest)
        bind(L->Rest);
      walk(L->Body);
      return;
    }
    case NodeKind::VarRef:
      touch(cast<VarRefNode>(N)->Var);
      return;
    case NodeKind::Setq: {
      const auto *S = cast<SetqNode>(N);
      walk(S->ValueExpr);
      ++Clock;
      touch(S->Var);
      return;
    }
    case NodeKind::Call: {
      const auto *C = cast<CallNode>(N);
      if (C->isLetLike()) {
        // A LET. The code generator stores each argument into its
        // parameter's home as it is computed, so a parameter's lifetime
        // starts before the remaining arguments evaluate (which may
        // contain calls) — bind before walking the arguments.
        const auto *L = cast<LambdaNode>(C->CalleeExpr);
        for (const Variable *P : L->Required)
          bind(P);
        for (size_t J = 0; J < C->Args.size(); ++J) {
          const auto *TL = dyn_cast<LambdaNode>(C->Args[J]);
          if (TL && TL->Strategy == LambdaStrategy::Jump &&
              J < L->Required.size())
            Thunks.push_back({L->Required[J], TL, Clock});
          walk(C->Args[J]);
        }
        ++Clock;
        walk(L->Body);
        return;
      }
      if (C->CalleeExpr)
        walk(C->CalleeExpr);
      for (const Node *A : C->Args)
        walk(A);
      ++Clock;
      bool IsCall = true;
      if (C->Name) {
        if (const PrimInfo *P = lookupPrim(C->Name))
          IsCall = P->Op == Prim::Funcall || P->Op == Prim::Apply;
      }
      if (IsCall)
        CallPositions.push_back(Clock);
      return;
    }
    case NodeKind::ProgBody: {
      // A progbody with a go is a loop: every variable referenced inside
      // is live across the whole span (the back edge re-enters anywhere),
      // and calls anywhere inside threaten the whole span.
      unsigned SpanStart = Clock;
      bool HasGo = false;
      forEachNode(N, [&HasGo](const Node *C) {
        HasGo |= C->kind() == NodeKind::Go;
      });
      forEachChild(N, [this](const Node *C) { walk(C); });
      unsigned SpanEnd = Clock;
      if (HasGo) {
        forEachNode(N, [&](const Node *C) {
          const Variable *V = nullptr;
          if (const auto *VR = dyn_cast<VarRefNode>(C))
            V = VR->Var;
          else if (const auto *SQ = dyn_cast<SetqNode>(C))
            V = SQ->Var;
          if (!V)
            return;
          auto It = Tns.find(V);
          if (It == Tns.end())
            return;
          It->second.Start = std::min(It->second.Start, SpanStart);
          It->second.End = std::max(It->second.End, SpanEnd);
        });
      }
      return;
    }
    default:
      forEachChild(N, [this](const Node *C) { walk(C); });
      return;
    }
  }

  /// Keeps every variable a jump thunk references (and that is bound
  /// outside it) live to the thunk's last call. Iterates to a fixpoint,
  /// because a thunk may call another thunk and so extend its lifetime.
  void extendThunkReferents() {
    std::vector<std::pair<const Tn *, std::vector<Tn *>>> Uses;
    for (const Thunk &T : Thunks) {
      auto It = Tns.find(T.Var);
      if (It == Tns.end())
        continue;
      std::vector<Tn *> Referents;
      forEachNode(static_cast<const Node *>(T.Lambda->Body),
                  [&](const Node *C) {
                    const Variable *V = nullptr;
                    if (const auto *VR = dyn_cast<VarRefNode>(C))
                      V = VR->Var;
                    else if (const auto *SQ = dyn_cast<SetqNode>(C))
                      V = SQ->Var;
                    auto R = V ? Tns.find(V) : Tns.end();
                    if (R != Tns.end() && R->second.Start < T.BindClock)
                      Referents.push_back(&R->second);
                  });
      Uses.push_back({&It->second, std::move(Referents)});
    }
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (const auto &[ThunkTn, Referents] : Uses)
        for (Tn *R : Referents)
          if (R->End < ThunkTn->End) {
            R->End = ThunkTn->End;
            Changed = true;
          }
    }
  }
};

} // namespace

TnBindResult tnbind::allocateVariables(const LambdaNode *Unit,
                                       const TnBindOptions &Opts) {
  stats::PhaseTimer Timer("tnbind");
  ++NumUnits;
  Linearizer Lin;
  Lin.Root = Unit;
  Lin.walk(Unit);
  Lin.extendThunkReferents();

  TnBindResult Result;
  std::vector<Tn *> Order;
  for (auto &[V, T] : Lin.Tns) {
    // Heap-allocated and special variables live elsewhere.
    if (V->HeapAllocated || V->isSpecial())
      continue;
    for (unsigned CallPos : Lin.CallPositions)
      if (CallPos > T.Start && CallPos <= T.End) {
        T.AcrossCall = true;
        break;
      }
    Order.push_back(&T);
  }

  // Pack heaviest first; ties broken by id for determinism.
  std::sort(Order.begin(), Order.end(), [](const Tn *A, const Tn *B) {
    if (A->Weight != B->Weight)
      return A->Weight > B->Weight;
    return A->Var->id() < B->Var->id();
  });

  std::vector<std::vector<const Tn *>> RegUsers(s1::NumRegs);
  auto Overlaps = [](const Tn *A, const Tn *B) {
    return A->Start <= B->End && B->Start <= A->End;
  };

  for (Tn *T : Order) {
    if (Opts.UseRegisters && !T->AcrossCall) {
      bool Placed = false;
      for (uint8_t R = 0; R < s1::NumRegs && !Placed; ++R) {
        if (!s1::isAllocatableReg(R))
          continue;
        bool Free = true;
        for (const Tn *Other : RegUsers[R])
          Free &= !Overlaps(T, Other);
        if (Free) {
          RegUsers[R].push_back(T);
          T->Loc = Location::reg(R);
          ++Result.VarsInRegisters;
          Placed = true;
        }
      }
      if (Placed) {
        Result.VarLocs[T->Var] = T->Loc;
        continue;
      }
    }
    T->Loc = Location::frame(static_cast<int>(Result.FrameSlots++));
    ++Result.VarsInFrame;
    Result.VarLocs[T->Var] = T->Loc;
  }

  for (uint8_t R = 0; R < s1::NumRegs; ++R)
    if (!RegUsers[R].empty())
      Result.RegistersUsed.push_back(R);
  NumVarsInRegisters += Result.VarsInRegisters;
  NumVarsInFrame += Result.VarsInFrame;
  NumFrameSlots += Result.FrameSlots;
  return Result;
}
