//===- ir/Ir.cpp ----------------------------------------------------------===//

#include "ir/Ir.h"

#include "stats/Stats.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>

using namespace s1lisp;
using namespace s1lisp::ir;

S1_STAT(NumVerifyNodes, "ir.verify.nodes", "nodes the IR verifier visited");
S1_STAT(NumVerifyRefsScanned, "ir.verify.refs_scanned",
        "referent-list entries the IR verifier scanned");
S1_STAT(NumDetachRefsScanned, "ir.detach.refs_scanned",
        "referent-list entries detachSubtree scanned");

/// Node::Mark fills padding after Node::Kind on 64-bit hosts.
static_assert(sizeof(void *) != 8 || sizeof(Node) == 64,
              "Node::Mark must not grow the node");

/// Access to the scratch marks for the walks below. Every walk that sets
/// a mark clears it before returning, so all marks are zero between calls.
struct ir::ScratchMarks {
  enum : uint32_t {
    InTree = 1u << 0,  ///< verify: reachable from the root
    Listed = 1u << 1,  ///< verify: on its own variable's referent list
    Dropped = 1u << 2, ///< detachSubtree: inside the detached subtree
  };
  static uint32_t &bits(Node *N) { return N->Mark; }
  static bool inTree(const Node *N) { return N && (N->Mark & InTree); }
  /// verify: this variable's referent list has been scanned.
  static bool &scanned(Variable *V) { return V->Mark; }
};

namespace {
/// The variable a VarRef or Setq names; null for every other node.
Variable *referencedVar(const Node *N) {
  if (auto *VR = dyn_cast<VarRefNode>(N))
    return VR->Var;
  if (auto *SQ = dyn_cast<SetqNode>(N))
    return SQ->Var;
  return nullptr;
}
} // namespace

const char *ir::repName(Rep R) {
  switch (R) {
  case Rep::SWFIX:
    return "SWFIX";
  case Rep::DWFIX:
    return "DWFIX";
  case Rep::HWFLO:
    return "HWFLO";
  case Rep::SWFLO:
    return "SWFLO";
  case Rep::DWFLO:
    return "DWFLO";
  case Rep::TWFLO:
    return "TWFLO";
  case Rep::HWCPLX:
    return "HWCPLX";
  case Rep::SWCPLX:
    return "SWCPLX";
  case Rep::DWCPLX:
    return "DWCPLX";
  case Rep::TWCPLX:
    return "TWCPLX";
  case Rep::POINTER:
    return "POINTER";
  case Rep::BIT:
    return "BIT";
  case Rep::JUMP:
    return "JUMP";
  case Rep::NONE:
    return "NONE";
  }
  return "?";
}

bool ir::repIsPdlEligible(Rep R) {
  switch (R) {
  case Rep::SWFLO:
  case Rep::DWFLO:
  case Rep::TWFLO:
  case Rep::HWCPLX:
  case Rep::SWCPLX:
  case Rep::DWCPLX:
  case Rep::TWCPLX:
    return true;
  default:
    return false;
  }
}

const char *ir::nodeKindName(NodeKind K) {
  switch (K) {
  case NodeKind::Literal:
    return "literal";
  case NodeKind::VarRef:
    return "variable";
  case NodeKind::Caseq:
    return "caseq";
  case NodeKind::Catcher:
    return "catcher";
  case NodeKind::Go:
    return "go";
  case NodeKind::If:
    return "if";
  case NodeKind::Lambda:
    return "lambda";
  case NodeKind::ProgBody:
    return "progbody";
  case NodeKind::Progn:
    return "progn";
  case NodeKind::Return:
    return "return";
  case NodeKind::Setq:
    return "setq";
  case NodeKind::Call:
    return "call";
  }
  return "?";
}

std::string Variable::debugName() const {
  return Name->name() + "#" + std::to_string(Id);
}

std::vector<Variable *> LambdaNode::allParams() const {
  std::vector<Variable *> Out(Required.begin(), Required.end());
  for (const OptionalParam &O : Optionals)
    Out.push_back(O.Var);
  if (Rest)
    Out.push_back(Rest);
  return Out;
}

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

Variable *Function::makeVariable(const sexpr::Symbol *Name, bool Special) {
  Variable *V = A.create<Variable>(Name, NextVarId++, Special);
  Vars.push_back(V);
  return V;
}

namespace {
void adopt(Node *Parent, Node *Child) {
  if (Child)
    Child->Parent = Parent;
}
} // namespace

LiteralNode *Function::makeLiteral(sexpr::Value V) {
  return A.create<LiteralNode>(V);
}

VarRefNode *Function::makeVarRef(Variable *Var) {
  VarRefNode *N = A.create<VarRefNode>(Var);
  Var->Refs.push_back(N);
  return N;
}

SetqNode *Function::makeSetq(Variable *Var, Node *ValueExpr) {
  SetqNode *N = A.create<SetqNode>(Var, ValueExpr);
  adopt(N, ValueExpr);
  Var->Refs.push_back(N);
  Var->Written = true;
  return N;
}

IfNode *Function::makeIf(Node *Test, Node *Then, Node *Else) {
  IfNode *N = A.create<IfNode>(Test, Then, Else);
  adopt(N, Test);
  adopt(N, Then);
  adopt(N, Else);
  return N;
}

PrognNode *Function::makeProgn(std::vector<Node *> Forms) {
  PrognNode *N = A.create<PrognNode>(std::move(Forms));
  for (Node *C : N->Forms)
    adopt(N, C);
  return N;
}

LambdaNode *Function::makeLambda() { return A.create<LambdaNode>(); }

CallNode *Function::makeCall(const sexpr::Symbol *Name, std::vector<Node *> Args) {
  CallNode *N = A.create<CallNode>(Name, nullptr, std::move(Args));
  for (Node *C : N->Args)
    adopt(N, C);
  return N;
}

CallNode *Function::makeCallExpr(Node *Callee, std::vector<Node *> Args) {
  CallNode *N = A.create<CallNode>(nullptr, Callee, std::move(Args));
  adopt(N, Callee);
  for (Node *C : N->Args)
    adopt(N, C);
  return N;
}

CaseqNode *Function::makeCaseq(Node *Key, std::vector<CaseqNode::Clause> Clauses,
                               Node *Default) {
  CaseqNode *N = A.create<CaseqNode>(Key, std::move(Clauses), Default);
  adopt(N, Key);
  for (auto &C : N->Clauses)
    adopt(N, C.Body);
  adopt(N, Default);
  return N;
}

CatcherNode *Function::makeCatcher(Node *TagExpr, Node *Body) {
  CatcherNode *N = A.create<CatcherNode>(TagExpr, Body);
  adopt(N, TagExpr);
  adopt(N, Body);
  return N;
}

ProgBodyNode *Function::makeProgBody(std::vector<ProgBodyNode::Item> Items) {
  ProgBodyNode *N = A.create<ProgBodyNode>(std::move(Items));
  for (auto &I : N->Items)
    adopt(N, I.Stmt);
  return N;
}

GoNode *Function::makeGo(const sexpr::Symbol *Tag, ProgBodyNode *Target) {
  return A.create<GoNode>(Tag, Target);
}

ReturnNode *Function::makeReturn(Node *ValueExpr, ProgBodyNode *Target) {
  ReturnNode *N = A.create<ReturnNode>(ValueExpr, Target);
  adopt(N, ValueExpr);
  return N;
}

//===----------------------------------------------------------------------===//
// Structural utilities
//===----------------------------------------------------------------------===//

void ir::replaceChild(Node *Parent, Node *Old, Node *New) {
  assert(Parent && Old && New && "replaceChild on null");
  bool Found = false;
  forEachChild(Parent, [&](Node *&Slot) {
    if (Slot == Old && !Found) {
      Slot = New;
      Found = true;
    }
  });
  assert(Found && "replaceChild: Old is not a child of Parent");
  New->Parent = Parent;
}

void ir::detachSubtree(Node *Sub) {
  // Mark the subtree's references, then compact each affected list once:
  // the first marked reference of a variable drops every marked entry of
  // that variable's list, clearing their marks as it goes.
  using M = ScratchMarks;
  forEachNode(Sub, [](Node *N) {
    if (referencedVar(N))
      M::bits(N) |= M::Dropped;
  });
  uint64_t Scanned = 0;
  forEachNode(Sub, [&Scanned](Node *N) {
    Variable *V = referencedVar(N);
    if (!V || !(M::bits(N) & M::Dropped))
      return;
    bool DroppedSetq = false, StillWritten = false;
    size_t Kept = 0;
    for (Node *R : V->Refs) {
      bool IsSetq = R->kind() == NodeKind::Setq;
      if ((M::bits(R) & M::Dropped) && referencedVar(R) == V) {
        M::bits(R) &= ~M::Dropped;
        DroppedSetq |= IsSetq;
      } else {
        V->Refs[Kept++] = R;
        StillWritten |= IsSetq;
      }
    }
    Scanned += V->Refs.size();
    V->Refs.resize(Kept);
    M::bits(N) &= ~M::Dropped; // N itself may be missing from the list
    if (DroppedSetq && V->Written)
      V->Written = StillWritten;
  });
  NumDetachRefsScanned += Scanned;
}

void ir::recomputeParents(Node *Root) {
  forEachChild(Root, [Root](Node *C) {
    C->Parent = Root;
    recomputeParents(C);
  });
}

void ir::recomputeVariableRefs(Function &F) {
  for (Variable *V : F.variables()) {
    V->Refs.clear();
    V->Written = false;
    V->Binder = nullptr;
  }
  forEachNode(F.Root, [](Node *N) {
    if (auto *VR = dyn_cast<VarRefNode>(N)) {
      VR->Var->Refs.push_back(VR);
    } else if (auto *SQ = dyn_cast<SetqNode>(N)) {
      SQ->Var->Refs.push_back(SQ);
      SQ->Var->Written = true;
    } else if (auto *L = dyn_cast<LambdaNode>(N)) {
      for (Variable *P : L->allParams())
        P->Binder = L;
    }
  });
}

//===----------------------------------------------------------------------===//
// Cloning
//===----------------------------------------------------------------------===//

namespace {

struct Cloner {
  explicit Cloner(Function &F) : F(F) {}

  Function &F;
  std::unordered_map<const Variable *, Variable *> VarMap;
  std::unordered_map<const ProgBodyNode *, ProgBodyNode *> BodyMap;
  /// Go/Return nodes whose targets may need remapping once every ProgBody
  /// inside the subtree has been cloned.
  std::vector<GoNode *> Gos;
  std::vector<ReturnNode *> Returns;

  /// A variable bound inside the subtree maps to its copy; a free one
  /// keeps its identity.
  Variable *mapVar(Variable *V) {
    auto It = VarMap.find(V);
    return It == VarMap.end() ? V : It->second;
  }

  /// A fresh variable for parameter \p P of the copy \p NL.
  Variable *copyParam(Variable *P, LambdaNode *NL) {
    Variable *NP = F.makeVariable(P->name(), P->isSpecial());
    NP->Binder = NL;
    VarMap[P] = NP;
    return NP;
  }

  Node *copy(const Node *N) {
    switch (N->kind()) {
    case NodeKind::Literal:
      return withLoc(N, F.makeLiteral(cast<LiteralNode>(N)->Datum));
    case NodeKind::VarRef:
      return withLoc(N, F.makeVarRef(mapVar(cast<VarRefNode>(N)->Var)));
    case NodeKind::Setq: {
      auto *S = cast<SetqNode>(N);
      return withLoc(N, F.makeSetq(mapVar(S->Var), copy(S->ValueExpr)));
    }
    case NodeKind::If: {
      auto *I = cast<IfNode>(N);
      return withLoc(N, F.makeIf(copy(I->Test), copy(I->Then), copy(I->Else)));
    }
    case NodeKind::Progn: {
      std::vector<Node *> Forms;
      for (const Node *C : cast<PrognNode>(N)->Forms)
        Forms.push_back(copy(C));
      return withLoc(N, F.makeProgn(std::move(Forms)));
    }
    case NodeKind::Lambda: {
      const auto *L = cast<LambdaNode>(N);
      LambdaNode *NL = F.makeLambda();
      NL->Strategy = L->Strategy;
      for (Variable *P : L->Required)
        NL->Required.push_back(copyParam(P, NL));
      for (const auto &O : L->Optionals) {
        Variable *NP = copyParam(O.Var, NL);
        Node *NDefault = O.Default ? copy(O.Default) : nullptr;
        if (NDefault)
          NDefault->Parent = NL;
        NL->Optionals.push_back({NP, NDefault});
      }
      if (L->Rest)
        NL->Rest = copyParam(L->Rest, NL);
      NL->Body = copy(L->Body);
      NL->Body->Parent = NL;
      return withLoc(N, NL);
    }
    case NodeKind::Call: {
      const auto *C = cast<CallNode>(N);
      std::vector<Node *> Args;
      for (const Node *AN : C->Args)
        Args.push_back(copy(AN));
      if (C->Name)
        return withLoc(N, F.makeCall(C->Name, std::move(Args)));
      return withLoc(N, F.makeCallExpr(copy(C->CalleeExpr), std::move(Args)));
    }
    case NodeKind::Caseq: {
      const auto *C = cast<CaseqNode>(N);
      std::vector<CaseqNode::Clause> Clauses;
      for (const auto &Cl : C->Clauses)
        Clauses.push_back({Cl.Keys, copy(Cl.Body)});
      return withLoc(N, F.makeCaseq(copy(C->Key), std::move(Clauses), copy(C->Default)));
    }
    case NodeKind::Catcher: {
      const auto *C = cast<CatcherNode>(N);
      return withLoc(N, F.makeCatcher(copy(C->TagExpr), copy(C->Body)));
    }
    case NodeKind::ProgBody: {
      const auto *P = cast<ProgBodyNode>(N);
      std::vector<ProgBodyNode::Item> Items;
      for (const auto &I : P->Items)
        Items.push_back({I.Tag, I.Stmt ? copy(I.Stmt) : nullptr});
      ProgBodyNode *NP = F.makeProgBody(std::move(Items));
      BodyMap[P] = NP;
      return withLoc(N, NP);
    }
    case NodeKind::Go: {
      const auto *G = cast<GoNode>(N);
      GoNode *NG = F.makeGo(G->Tag, G->Target);
      Gos.push_back(NG);
      return withLoc(N, NG);
    }
    case NodeKind::Return: {
      const auto *R = cast<ReturnNode>(N);
      ReturnNode *NR = F.makeReturn(copy(R->ValueExpr), R->Target);
      Returns.push_back(NR);
      return withLoc(N, NR);
    }
    }
    assert(false && "unhandled node kind in copy");
    return nullptr;
  }

  Node *withLoc(const Node *Src, Node *Dst) {
    Dst->Loc = Src->Loc;
    return Dst;
  }

  void fixupTargets() {
    for (GoNode *G : Gos) {
      auto It = BodyMap.find(G->Target);
      if (It != BodyMap.end())
        G->Target = It->second;
    }
    for (ReturnNode *R : Returns) {
      auto It = BodyMap.find(R->Target);
      if (It != BodyMap.end())
        R->Target = It->second;
    }
  }
};

} // namespace

Node *ir::cloneTree(Function &F, const Node *N) {
  Cloner C(F);
  Node *Copy = C.copy(N);
  C.fixupTargets();
  return Copy;
}

size_t ir::treeSize(const Node *Root) {
  size_t N = 0;
  forEachNode(Root, [&N](const Node *) { ++N; });
  return N;
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

namespace {

/// Walk 1 of verify: marks every node reachable from \p N as in the tree
/// and checks the parent links below it. Returns the nodes marked.
uint64_t markTree(Node *N, const Function &F, DiagEngine &Diags) {
  ScratchMarks::bits(N) |= ScratchMarks::InTree;
  uint64_t Count = 1;
  forEachChild(N, [&](Node *C) {
    if (C->Parent != N)
      Diags.error("bad parent link under " + std::string(nodeKindName(N->kind())) +
                  " in '" + F.name() + "'");
    Count += markTree(C, F, Diags);
  });
  return Count;
}

} // namespace

bool ir::verify(Function &F, DiagEngine &Diags) {
  using M = ScratchMarks;
  size_t Before = Diags.diagnostics().size();
  if (!F.Root) {
    Diags.error("function '" + F.name() + "' has no root lambda");
    return false;
  }
  Node *Root = F.Root;
  uint64_t Nodes = markTree(Root, F, Diags);

  // Walk 2: each variable reference points at a Variable whose referent
  // list contains it; bound variables' binders are in the tree. The first
  // reference to a variable scans its list once and marks the tree nodes
  // on it that name that variable.
  uint64_t Scanned = 0;
  forEachNode(Root, [&](Node *N) {
    if (Variable *V = referencedVar(N)) {
      if (!M::scanned(V)) {
        M::scanned(V) = true;
        Scanned += V->Refs.size();
        for (Node *R : V->Refs)
          if (M::inTree(R) && referencedVar(R) == V)
            M::bits(R) |= M::Listed;
      }
      if (!(M::bits(N) & M::Listed))
        Diags.error("variable " + V->debugName() + " missing referent back-pointer");
      if (V->Binder && !M::inTree(V->Binder))
        Diags.error("variable " + V->debugName() + " bound outside the tree");
    }
    if (auto *G = dyn_cast<GoNode>(N)) {
      if (!M::inTree(G->Target))
        Diags.error("go target progbody not in tree");
      else if (!G->Target->hasTag(G->Tag))
        Diags.error("go to unknown tag '" + G->Tag->name() + "'");
    }
    if (auto *R = dyn_cast<ReturnNode>(N)) {
      if (!M::inTree(R->Target))
        Diags.error("return target progbody not in tree");
    }
    if (auto *C = dyn_cast<CallNode>(N)) {
      if ((C->Name != nullptr) == (C->CalleeExpr != nullptr))
        Diags.error("call node with malformed callee");
    }
  });

  // Walk 3: clear every mark set above.
  forEachNode(Root, [](Node *N) {
    M::bits(N) = 0;
    if (Variable *V = referencedVar(N))
      M::scanned(V) = false;
  });

  NumVerifyNodes += Nodes;
  NumVerifyRefsScanned += Scanned;
  return Diags.diagnostics().size() == Before;
}

bool ir::verifyAfter(const char *Phase, Function &F, DiagEngine *Diags) {
  DiagEngine Found;
  if (verify(F, Found))
    return true;
  std::string Msg = "inconsistent tree after " + std::string(Phase) + " in '" +
                    F.name() + "': " + Found.diagnostics().front().Message;
  if (!Diags) {
    std::fprintf(stderr, "s1lisp: internal error: %s\n", Msg.c_str());
    std::abort();
  }
  Diags->error(std::move(Msg));
  return false;
}
