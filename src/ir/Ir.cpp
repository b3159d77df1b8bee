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
// Traversal
//===----------------------------------------------------------------------===//

void ir::forEachChild(Node *N, const std::function<void(Node *)> &Fn) {
  switch (N->kind()) {
  case NodeKind::Literal:
  case NodeKind::VarRef:
  case NodeKind::Go:
    return;
  case NodeKind::Setq:
    Fn(cast<SetqNode>(N)->ValueExpr);
    return;
  case NodeKind::If: {
    auto *I = cast<IfNode>(N);
    Fn(I->Test);
    Fn(I->Then);
    Fn(I->Else);
    return;
  }
  case NodeKind::Progn:
    for (Node *C : cast<PrognNode>(N)->Forms)
      Fn(C);
    return;
  case NodeKind::Lambda: {
    auto *L = cast<LambdaNode>(N);
    for (auto &O : L->Optionals)
      if (O.Default)
        Fn(O.Default);
    Fn(L->Body);
    return;
  }
  case NodeKind::Call: {
    auto *C = cast<CallNode>(N);
    if (C->CalleeExpr)
      Fn(C->CalleeExpr);
    for (Node *AN : C->Args)
      Fn(AN);
    return;
  }
  case NodeKind::Caseq: {
    auto *C = cast<CaseqNode>(N);
    Fn(C->Key);
    for (auto &Cl : C->Clauses)
      Fn(Cl.Body);
    Fn(C->Default);
    return;
  }
  case NodeKind::Catcher: {
    auto *C = cast<CatcherNode>(N);
    Fn(C->TagExpr);
    Fn(C->Body);
    return;
  }
  case NodeKind::ProgBody:
    for (auto &I : cast<ProgBodyNode>(N)->Items)
      if (I.Stmt)
        Fn(I.Stmt);
    return;
  case NodeKind::Return:
    Fn(cast<ReturnNode>(N)->ValueExpr);
    return;
  }
}

void ir::forEachChild(const Node *N, const std::function<void(const Node *)> &Fn) {
  forEachChild(const_cast<Node *>(N),
               [&Fn](Node *C) { Fn(static_cast<const Node *>(C)); });
}

void ir::forEachNode(Node *Root, const std::function<void(Node *)> &Fn) {
  Fn(Root);
  forEachChild(Root, [&Fn](Node *C) { forEachNode(C, Fn); });
}

void ir::forEachNode(const Node *Root, const std::function<void(const Node *)> &Fn) {
  Fn(Root);
  forEachChild(Root, [&Fn](const Node *C) { forEachNode(C, Fn); });
}

void ir::replaceChild(Node *Parent, Node *Old, Node *New) {
  assert(Parent && Old && New && "replaceChild on null");
  bool Found = false;
  auto Swap = [&](Node *&Slot) {
    if (Slot == Old && !Found) {
      Slot = New;
      Found = true;
    }
  };
  switch (Parent->kind()) {
  case NodeKind::Literal:
  case NodeKind::VarRef:
  case NodeKind::Go:
    break;
  case NodeKind::Setq:
    Swap(cast<SetqNode>(Parent)->ValueExpr);
    break;
  case NodeKind::If: {
    auto *I = cast<IfNode>(Parent);
    Swap(I->Test);
    Swap(I->Then);
    Swap(I->Else);
    break;
  }
  case NodeKind::Progn:
    for (Node *&C : cast<PrognNode>(Parent)->Forms)
      Swap(C);
    break;
  case NodeKind::Lambda: {
    auto *L = cast<LambdaNode>(Parent);
    for (auto &O : L->Optionals)
      Swap(O.Default);
    Swap(L->Body);
    break;
  }
  case NodeKind::Call: {
    auto *C = cast<CallNode>(Parent);
    if (C->CalleeExpr)
      Swap(C->CalleeExpr);
    for (Node *&AN : C->Args)
      Swap(AN);
    break;
  }
  case NodeKind::Caseq: {
    auto *C = cast<CaseqNode>(Parent);
    Swap(C->Key);
    for (auto &Cl : C->Clauses)
      Swap(Cl.Body);
    Swap(C->Default);
    break;
  }
  case NodeKind::Catcher: {
    auto *C = cast<CatcherNode>(Parent);
    Swap(C->TagExpr);
    Swap(C->Body);
    break;
  }
  case NodeKind::ProgBody:
    for (auto &I : cast<ProgBodyNode>(Parent)->Items)
      if (I.Stmt)
        Swap(I.Stmt);
    break;
  case NodeKind::Return:
    Swap(cast<ReturnNode>(Parent)->ValueExpr);
    break;
  }
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

  /// Cross-module hooks, identity when unset: Module::clone re-interns
  /// every symbol and re-allocates every heap datum in the target module's
  /// tables, and maps free variables too (a clone into another module must
  /// share nothing with the source).
  std::function<const sexpr::Symbol *(const sexpr::Symbol *)> MapSym;
  std::function<sexpr::Value(sexpr::Value)> MapVal;
  bool MapAllVars = false;

  const sexpr::Symbol *mapSym(const sexpr::Symbol *S) {
    return MapSym && S ? MapSym(S) : S;
  }
  sexpr::Value mapVal(sexpr::Value V) { return MapVal ? MapVal(V) : V; }

  Variable *mapVar(Variable *V) {
    auto It = VarMap.find(V);
    if (It != VarMap.end())
      return It->second;
    if (!MapAllVars)
      return V;
    // Free in the cloned tree (no binder below the root being copied);
    // Binder stays null, flags are copied in a post-pass.
    Variable *NV = F.makeVariable(mapSym(V->name()), V->isSpecial());
    VarMap[V] = NV;
    return NV;
  }

  Node *clone(const Node *N) {
    switch (N->kind()) {
    case NodeKind::Literal:
      return withLoc(N, F.makeLiteral(mapVal(cast<LiteralNode>(N)->Datum)));
    case NodeKind::VarRef:
      return withLoc(N, F.makeVarRef(mapVar(cast<VarRefNode>(N)->Var)));
    case NodeKind::Setq: {
      auto *S = cast<SetqNode>(N);
      return withLoc(N, F.makeSetq(mapVar(S->Var), clone(S->ValueExpr)));
    }
    case NodeKind::If: {
      auto *I = cast<IfNode>(N);
      return withLoc(N, F.makeIf(clone(I->Test), clone(I->Then), clone(I->Else)));
    }
    case NodeKind::Progn: {
      std::vector<Node *> Forms;
      for (const Node *C : cast<PrognNode>(N)->Forms)
        Forms.push_back(clone(C));
      return withLoc(N, F.makeProgn(std::move(Forms)));
    }
    case NodeKind::Lambda: {
      const auto *L = cast<LambdaNode>(N);
      LambdaNode *NL = F.makeLambda();
      NL->Strategy = L->Strategy;
      for (Variable *P : L->Required) {
        Variable *NP = F.makeVariable(mapSym(P->name()), P->isSpecial());
        NP->Binder = NL;
        VarMap[P] = NP;
        NL->Required.push_back(NP);
      }
      for (const auto &O : L->Optionals) {
        Variable *NP = F.makeVariable(mapSym(O.Var->name()), O.Var->isSpecial());
        NP->Binder = NL;
        VarMap[O.Var] = NP;
        Node *NDefault = O.Default ? clone(O.Default) : nullptr;
        if (NDefault)
          NDefault->Parent = NL;
        NL->Optionals.push_back({NP, NDefault});
      }
      if (L->Rest) {
        Variable *NP = F.makeVariable(mapSym(L->Rest->name()), L->Rest->isSpecial());
        NP->Binder = NL;
        VarMap[L->Rest] = NP;
        NL->Rest = NP;
      }
      NL->Body = clone(L->Body);
      NL->Body->Parent = NL;
      return withLoc(N, NL);
    }
    case NodeKind::Call: {
      const auto *C = cast<CallNode>(N);
      std::vector<Node *> Args;
      for (const Node *AN : C->Args)
        Args.push_back(clone(AN));
      if (C->Name)
        return withLoc(N, F.makeCall(mapSym(C->Name), std::move(Args)));
      return withLoc(N, F.makeCallExpr(clone(C->CalleeExpr), std::move(Args)));
    }
    case NodeKind::Caseq: {
      const auto *C = cast<CaseqNode>(N);
      std::vector<CaseqNode::Clause> Clauses;
      for (const auto &Cl : C->Clauses) {
        std::vector<sexpr::Value> Keys;
        Keys.reserve(Cl.Keys.size());
        for (sexpr::Value K : Cl.Keys)
          Keys.push_back(mapVal(K));
        Clauses.push_back({std::move(Keys), clone(Cl.Body)});
      }
      return withLoc(N, F.makeCaseq(clone(C->Key), std::move(Clauses), clone(C->Default)));
    }
    case NodeKind::Catcher: {
      const auto *C = cast<CatcherNode>(N);
      return withLoc(N, F.makeCatcher(clone(C->TagExpr), clone(C->Body)));
    }
    case NodeKind::ProgBody: {
      const auto *P = cast<ProgBodyNode>(N);
      std::vector<ProgBodyNode::Item> Items;
      for (const auto &I : P->Items)
        Items.push_back({mapSym(I.Tag), I.Stmt ? clone(I.Stmt) : nullptr});
      ProgBodyNode *NP = F.makeProgBody(std::move(Items));
      BodyMap[P] = NP;
      return withLoc(N, NP);
    }
    case NodeKind::Go: {
      const auto *G = cast<GoNode>(N);
      GoNode *NG = F.makeGo(mapSym(G->Tag), G->Target);
      Gos.push_back(NG);
      return withLoc(N, NG);
    }
    case NodeKind::Return: {
      const auto *R = cast<ReturnNode>(N);
      ReturnNode *NR = F.makeReturn(clone(R->ValueExpr), R->Target);
      Returns.push_back(NR);
      return withLoc(N, NR);
    }
    }
    assert(false && "unhandled node kind in clone");
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

/// Carries annotations from \p O onto its clone \p N by walking the two
/// identically-shaped trees in lockstep. Ann.PdlOkp points into the source
/// tree and is dropped (it is only live between annotate and codegen,
/// never across a module clone).
void copyAnnotations(const Node *O, Node *N) {
  N->Ann = O->Ann;
  N->Ann.PdlOkp = nullptr;
  std::vector<Node *> NC;
  forEachChild(N, [&NC](Node *C) { NC.push_back(C); });
  size_t I = 0;
  forEachChild(O, [&](const Node *C) { copyAnnotations(C, NC[I++]); });
}

/// Variable annotations the factories do not rebuild. Referent lists and
/// Written are reconstructed exactly by the clone itself.
void copyVariableFlags(
    const std::unordered_map<const Variable *, Variable *> &VarMap) {
  for (const auto &[OldV, NewV] : VarMap) {
    NewV->HeapAllocated = OldV->HeapAllocated;
    NewV->VarRep = OldV->VarRep;
    NewV->Tn = OldV->Tn;
  }
}

} // namespace

Node *ir::cloneTree(Function &F, const Node *N) {
  Cloner C(F);
  Node *Copy = C.clone(N);
  C.fixupTargets();
  return Copy;
}

size_t ir::treeSize(const Node *Root) {
  size_t N = 0;
  forEachNode(Root, [&N](const Node *) { ++N; });
  return N;
}

void Module::clone(Module &Out) const {
  assert(Out.Functions.empty() && "clone target must be a fresh module");

  // Symbols are re-interned once and cached; heap data is deep-copied
  // (makeRatio preserves the Den != 1 invariant, so a ratio round-trips
  // as a ratio).
  std::unordered_map<const sexpr::Symbol *, const sexpr::Symbol *> SymCache;
  auto MapSym = [&](const sexpr::Symbol *S) -> const sexpr::Symbol * {
    auto [It, New] = SymCache.try_emplace(S, nullptr);
    if (New)
      It->second = Out.Syms.intern(S->name());
    return It->second;
  };
  std::function<sexpr::Value(sexpr::Value)> MapVal =
      [&](sexpr::Value V) -> sexpr::Value {
    switch (V.kind()) {
    case sexpr::ValueKind::Nil:
    case sexpr::ValueKind::Fixnum:
    case sexpr::ValueKind::Flonum:
      return V;
    case sexpr::ValueKind::Symbol:
      return sexpr::Value::symbol(MapSym(V.symbol()));
    case sexpr::ValueKind::String:
      return Out.DataHeap.string(V.stringValue());
    case sexpr::ValueKind::Ratio:
      return Out.DataHeap.makeRatio(V.ratio().Num, V.ratio().Den);
    case sexpr::ValueKind::Cons: {
      const sexpr::Cons *C = V.consCell();
      return Out.DataHeap.cons(MapVal(C->Car), MapVal(C->Cdr), C->Loc);
    }
    }
    return V;
  };

  for (const sexpr::Symbol *S : Specials)
    Out.Specials.push_back(MapSym(S));

  for (const auto &FP : Functions) {
    const Function &F = *FP;
    Function *NF = Out.addFunction(F.name());
    if (!F.Root)
      continue;
    Cloner C(*NF);
    C.MapSym = MapSym;
    C.MapVal = MapVal;
    C.MapAllVars = true;
    Node *NewRoot = C.clone(F.Root);
    C.fixupTargets();
    copyVariableFlags(C.VarMap);
    copyAnnotations(F.Root, NewRoot);
    NF->Root = cast<LambdaNode>(NewRoot);
    NF->Root->Parent = nullptr;
  }
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
