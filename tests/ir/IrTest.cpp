//===- tests/ir/IrTest.cpp - Internal tree structural tests ---------------===//

#include "ir/BackTranslate.h"
#include "ir/Ir.h"
#include "ir/Primitives.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <type_traits>

using namespace s1lisp;
using namespace s1lisp::ir;
using sexpr::Value;

namespace {

class IrTest : public ::testing::Test {
protected:
  Module M;
  Function *F = M.addFunction("test");

  const sexpr::Symbol *sym(const char *S) { return M.Syms.intern(S); }

  /// Installs (lambda (Params...) Body) as F's root, binding the params.
  LambdaNode *setRoot(std::vector<Variable *> Params, Node *Body) {
    LambdaNode *L = F->makeLambda();
    for (Variable *P : Params)
      P->Binder = L;
    L->Required = std::move(Params);
    L->Body = Body;
    Body->Parent = L;
    F->Root = L;
    return L;
  }

  /// The messages verify reports for F, one per line; empty when clean.
  std::string verifyMessages() {
    DiagEngine Diags;
    bool Clean = verify(*F, Diags);
    std::string Out;
    for (const Diagnostic &D : Diags.diagnostics())
      Out += D.Message + "\n";
    EXPECT_EQ(Clean, Out.empty());
    return Out;
  }
};

TEST_F(IrTest, FactoriesSetParents) {
  Node *Lit = F->makeLiteral(Value::fixnum(1));
  Node *Nil = F->makeNil();
  IfNode *If = F->makeIf(Lit, Nil, F->makeNil());
  EXPECT_EQ(Lit->Parent, If);
  EXPECT_EQ(Nil->Parent, If);
  EXPECT_EQ(If->kind(), NodeKind::If);
}

TEST_F(IrTest, VariableBackPointers) {
  Variable *V = F->makeVariable(sym("x"));
  VarRefNode *R1 = F->makeVarRef(V);
  SetqNode *S = F->makeSetq(V, F->makeLiteral(Value::fixnum(2)));
  ASSERT_EQ(V->Refs.size(), 2u);
  EXPECT_EQ(V->Refs[0], R1);
  EXPECT_EQ(V->Refs[1], S);
  EXPECT_TRUE(V->Written);
}

/// The children forEachChild hands its callback, in order, from the
/// mutable and the const instantiation alike.
std::vector<const Node *> childrenOf(Node *N) {
  std::vector<const Node *> Mutable, Const;
  forEachChild(N, [&Mutable](auto *C) {
    static_assert(std::is_same_v<decltype(C), Node *>);
    Mutable.push_back(C);
  });
  forEachChild(static_cast<const Node *>(N), [&Const](auto *C) {
    static_assert(std::is_same_v<decltype(C), const Node *>);
    Const.push_back(C);
  });
  EXPECT_EQ(Mutable, Const);
  return Mutable;
}

using Nodes = std::vector<const Node *>;

TEST_F(IrTest, ForEachChildOrder) {
  auto Lit = [this](int64_t N) { return F->makeLiteral(Value::fixnum(N)); };
  Node *A = Lit(1), *B = Lit(2), *C = Lit(3), *D = Lit(4);

  EXPECT_EQ(childrenOf(F->makeIf(A, B, C)), (Nodes{A, B, C}));

  Variable *V = F->makeVariable(sym("v"));
  Node *Value1 = Lit(5);
  EXPECT_EQ(childrenOf(F->makeSetq(V, Value1)), (Nodes{Value1}));

  Node *P1 = Lit(6), *P2 = Lit(7), *P3 = Lit(8);
  EXPECT_EQ(childrenOf(F->makeProgn({P1, P2, P3})), (Nodes{P1, P2, P3}));
  EXPECT_EQ(childrenOf(F->makeProgn({})), Nodes{});

  // Defaults in parameter order, skipping an &optional without one, then
  // the body.
  LambdaNode *L = F->makeLambda();
  Node *D1 = Lit(9), *D3 = Lit(10), *Body = Lit(11);
  L->Optionals = {{F->makeVariable(sym("o1")), D1},
                  {F->makeVariable(sym("o2")), nullptr},
                  {F->makeVariable(sym("o3")), D3}};
  L->Body = Body;
  EXPECT_EQ(childrenOf(L), (Nodes{D1, D3, Body}));

  // The callee expression comes before the arguments; a named call has
  // only its arguments.
  Node *Callee = F->makeVarRef(V), *Arg1 = Lit(12), *Arg2 = Lit(13);
  EXPECT_EQ(childrenOf(F->makeCallExpr(Callee, {Arg1, Arg2})),
            (Nodes{Callee, Arg1, Arg2}));
  Node *Arg3 = Lit(14);
  EXPECT_EQ(childrenOf(F->makeCall(sym("car"), {Arg3})), (Nodes{Arg3}));

  // Key, then each clause body, then the default.
  Node *Key = Lit(15), *Body1 = Lit(16), *Body2 = Lit(17), *Default = Lit(18);
  EXPECT_EQ(childrenOf(F->makeCaseq(Key,
                                    {{{Value::fixnum(1)}, Body1},
                                     {{Value::fixnum(2)}, Body2}},
                                    Default)),
            (Nodes{Key, Body1, Body2, Default}));

  Node *Tag = Lit(19), *CatchBody = Lit(20);
  EXPECT_EQ(childrenOf(F->makeCatcher(Tag, CatchBody)), (Nodes{Tag, CatchBody}));

  // Label items have no child; statements keep their order around them.
  Node *S1 = Lit(21), *S2 = Lit(22);
  ProgBodyNode *PB = F->makeProgBody(
      {{sym("a"), nullptr}, {nullptr, S1}, {sym("b"), nullptr}, {nullptr, S2},
       {sym("c"), nullptr}});
  EXPECT_EQ(childrenOf(PB), (Nodes{S1, S2}));
  EXPECT_EQ(childrenOf(F->makeProgBody({{sym("only"), nullptr}})), Nodes{});

  EXPECT_EQ(childrenOf(F->makeReturn(D, PB)), (Nodes{D}));

  // Leaves.
  EXPECT_EQ(childrenOf(Lit(23)), Nodes{});
  EXPECT_EQ(childrenOf(F->makeVarRef(V)), Nodes{});
  EXPECT_EQ(childrenOf(F->makeGo(sym("a"), PB)), Nodes{});
}

TEST_F(IrTest, ForEachNodeIsPreorder) {
  // (if (progn a b) (f c (setq v d)) e)
  auto Lit = [this](int64_t N) { return F->makeLiteral(Value::fixnum(N)); };
  Node *A = Lit(1), *B = Lit(2), *C = Lit(3), *D = Lit(4), *E = Lit(5);
  Node *P = F->makeProgn({A, B});
  Node *Set = F->makeSetq(F->makeVariable(sym("v")), D);
  Node *Call = F->makeCall(sym("f"), {C, Set});
  IfNode *If = F->makeIf(P, Call, E);
  Nodes Expected{If, P, A, B, Call, C, Set, D, E};

  Nodes Mutable, Const;
  forEachNode(If, [&Mutable](Node *N) { Mutable.push_back(N); });
  forEachNode(static_cast<const IfNode *>(If),
              [&Const](const Node *N) { Const.push_back(N); });
  EXPECT_EQ(Mutable, Expected);
  EXPECT_EQ(Const, Expected);
  EXPECT_EQ(treeSize(If), Expected.size());
}

TEST_F(IrTest, ReplaceChild) {
  Node *A = F->makeLiteral(Value::fixnum(1));
  PrognNode *P = F->makeProgn({A, F->makeNil()});
  Node *New = F->makeLiteral(Value::fixnum(9));
  replaceChild(P, A, New);
  EXPECT_EQ(P->Forms[0], New);
  EXPECT_EQ(New->Parent, P);
}

TEST_F(IrTest, CloneRenamesBoundVariables) {
  // ((lambda (x) x) 5): cloning must produce a fresh x.
  LambdaNode *L = F->makeLambda();
  Variable *X = F->makeVariable(sym("x"));
  X->Binder = L;
  L->Required = {X};
  L->Body = F->makeVarRef(X);
  L->Body->Parent = L;
  CallNode *Call = F->makeCallExpr(L, {F->makeLiteral(Value::fixnum(5))});

  auto *Copy = cast<CallNode>(cloneTree(*F, Call));
  auto *CopyL = cast<LambdaNode>(Copy->CalleeExpr);
  ASSERT_EQ(CopyL->Required.size(), 1u);
  EXPECT_NE(CopyL->Required[0], X) << "bound variable must be freshened";
  EXPECT_EQ(cast<VarRefNode>(CopyL->Body)->Var, CopyL->Required[0]);
}

TEST_F(IrTest, CloneKeepsFreeVariables) {
  Variable *Free = F->makeVariable(sym("y"));
  Node *Ref = F->makeVarRef(Free);
  auto *Copy = cast<VarRefNode>(cloneTree(*F, Ref));
  EXPECT_EQ(Copy->Var, Free);
}

TEST_F(IrTest, CloneRemapsProgBodyTargets) {
  ProgBodyNode *PB = F->makeProgBody({});
  GoNode *G = F->makeGo(sym("loop"), PB);
  PB->Items = {{sym("loop"), nullptr}, {nullptr, G}};
  G->Parent = PB;

  auto *Copy = cast<ProgBodyNode>(cloneTree(*F, PB));
  ASSERT_EQ(Copy->Items.size(), 2u);
  auto *CopyGo = cast<GoNode>(Copy->Items[1].Stmt);
  EXPECT_EQ(CopyGo->Target, Copy) << "go target remapped into the clone";
}

// The meta-evaluator's rules read Variable::Refs and Written between the
// per-pass rebuilds, so the mutators below must keep both exact.

TEST_F(IrTest, DetachSubtreeUnlinksExactlyItsReferences) {
  // (progn (if y x (setq x y)) x y x y x y), detaching the if: its refs
  // head both referent lists, so the survivors' order is at stake.
  Variable *X = F->makeVariable(sym("x"));
  Variable *Y = F->makeVariable(sym("y"));
  VarRefNode *Test = F->makeVarRef(Y);
  VarRefNode *Then = F->makeVarRef(X);
  SetqNode *Else = F->makeSetq(X, F->makeVarRef(Y));
  IfNode *If = F->makeIf(Test, Then, Else);
  std::vector<Node *> Forms = {If};
  std::vector<Node *> XRest, YRest;
  for (int I = 0; I < 3; ++I) {
    XRest.push_back(F->makeVarRef(X));
    YRest.push_back(F->makeVarRef(Y));
    Forms.push_back(XRest.back());
    Forms.push_back(YRest.back());
  }
  F->makeProgn(Forms);
  ASSERT_EQ(X->Refs.size(), 5u);
  ASSERT_EQ(Y->Refs.size(), 5u);
  ASSERT_TRUE(X->Written);

  detachSubtree(If);
  EXPECT_EQ(X->Refs, XRest);
  EXPECT_EQ(Y->Refs, YRest);
  EXPECT_FALSE(X->Written) << "the only setq of x went with the if";
  EXPECT_FALSE(Y->Written);
}

TEST_F(IrTest, DetachSubtreeKeepsWrittenWhileASetqRemains) {
  Variable *V = F->makeVariable(sym("v"));
  VarRefNode *Read = F->makeVarRef(V);
  SetqNode *First = F->makeSetq(V, F->makeLiteral(Value::fixnum(1)));
  SetqNode *Second = F->makeSetq(V, F->makeLiteral(Value::fixnum(2)));
  F->makeProgn({Read, First, Second});
  ASSERT_TRUE(V->Written);

  detachSubtree(First);
  EXPECT_EQ(V->Refs, (std::vector<Node *>{Read, Second}));
  EXPECT_TRUE(V->Written) << "one of two setqs detached";

  detachSubtree(Second);
  EXPECT_EQ(V->Refs, (std::vector<Node *>{Read}));
  EXPECT_FALSE(V->Written) << "the last setq detached";
}

TEST_F(IrTest, CloneRegistersItsReferences) {
  // ((lambda (x) (setq y (+ x y))) 5): the copy's reads and write of the
  // free y join y's referent list after the originals; the copy's x refs
  // go to the fresh x only.
  Variable *Y = F->makeVariable(sym("y"));
  LambdaNode *L = F->makeLambda();
  Variable *X = F->makeVariable(sym("x"));
  X->Binder = L;
  L->Required = {X};
  VarRefNode *YRead = F->makeVarRef(Y);
  CallNode *Sum = F->makeCall(sym("+"), {F->makeVarRef(X), YRead});
  SetqNode *YWrite = F->makeSetq(Y, Sum);
  L->Body = YWrite;
  YWrite->Parent = L;
  CallNode *Call = F->makeCallExpr(L, {F->makeLiteral(Value::fixnum(5))});

  auto *Copy = cast<CallNode>(cloneTree(*F, Call));
  auto *CopyL = cast<LambdaNode>(Copy->CalleeExpr);
  auto *CopyWrite = cast<SetqNode>(CopyL->Body);
  auto *CopySum = cast<CallNode>(CopyWrite->ValueExpr);
  EXPECT_EQ(Y->Refs, (std::vector<Node *>{YRead, YWrite, CopySum->Args[1],
                                          CopyWrite}));
  EXPECT_TRUE(Y->Written);
  EXPECT_EQ(X->Refs, (std::vector<Node *>{Sum->Args[0]}));
  Variable *CopyX = CopyL->Required[0];
  EXPECT_EQ(CopyX->Refs, (std::vector<Node *>{CopySum->Args[0]}));
  EXPECT_FALSE(CopyX->Written);
}

TEST_F(IrTest, TreeSize) {
  Node *N = F->makeIf(F->makeNil(), F->makeNil(), F->makeNil());
  EXPECT_EQ(treeSize(N), 4u);
}

TEST_F(IrTest, RepPredicates) {
  EXPECT_TRUE(repIsPdlEligible(Rep::SWFLO));
  EXPECT_TRUE(repIsPdlEligible(Rep::DWCPLX));
  EXPECT_FALSE(repIsPdlEligible(Rep::SWFIX)) << "fixnums fit in the pointer";
  EXPECT_FALSE(repIsPdlEligible(Rep::POINTER));
  EXPECT_STREQ(repName(Rep::SWFLO), "SWFLO");
}

TEST_F(IrTest, EffectAlgebra) {
  EffectInfo Pure;
  EffectInfo Writes{EffectWrites};
  EffectInfo Reads{EffectReads};
  EffectInfo Alloc{EffectAllocates};
  EXPECT_TRUE(Pure.pure());
  EXPECT_TRUE(Pure.duplicable());
  EXPECT_TRUE(Alloc.eliminable());
  EXPECT_FALSE(Alloc.duplicable()) << "allocation must not be duplicated";
  EXPECT_FALSE(Writes.eliminable());
  EXPECT_TRUE(Pure.commutesWith(Writes));
  EXPECT_FALSE(Writes.commutesWith(Reads));
  EXPECT_FALSE(Writes.commutesWith(Writes));
  EXPECT_TRUE(Reads.commutesWith(Reads));
  EffectInfo Unknown{EffectUnknownCall};
  EXPECT_TRUE(Pure.commutesWith(Unknown))
      << "pure math moves past unknown calls (the frotz motion of §7)";
  EXPECT_FALSE(Reads.commutesWith(Unknown));
}

TEST_F(IrTest, PrimitiveTable) {
  const PrimInfo *Add = lookupPrim("+");
  ASSERT_NE(Add, nullptr);
  EXPECT_TRUE(Add->Assoc);
  EXPECT_TRUE(Add->Commut);
  EXPECT_TRUE(Add->Foldable);
  EXPECT_EQ(*Add->FixIdentity, 0);

  const PrimInfo *FAdd = lookupPrim("+$f");
  ASSERT_NE(FAdd, nullptr);
  EXPECT_EQ(FAdd->ArgRep, Rep::SWFLO);
  EXPECT_EQ(FAdd->ResultRep, Rep::SWFLO);
  EXPECT_EQ(*FAdd->FloatIdentity, 0.0);

  const PrimInfo *ConsP = lookupPrim("cons");
  ASSERT_NE(ConsP, nullptr);
  EXPECT_TRUE(ConsP->Effects.eliminable());
  EXPECT_FALSE(ConsP->Effects.duplicable());

  const PrimInfo *Rplaca = lookupPrim("rplaca");
  ASSERT_NE(Rplaca, nullptr);
  EXPECT_FALSE(Rplaca->Effects.eliminable());

  const PrimInfo *Lt = lookupPrim("<");
  ASSERT_NE(Lt, nullptr);
  EXPECT_TRUE(Lt->CompareLike);
  EXPECT_EQ(Lt->ResultRep, Rep::BIT);

  EXPECT_EQ(lookupPrim("no-such-fn"), nullptr);
  EXPECT_FALSE(lookupPrim("eq")->acceptsArgCount(3));
  EXPECT_TRUE(lookupPrim("list")->acceptsArgCount(17));

  // A symbol answers what its name does, on the first lookup and from its
  // slot after that, in two independent symbol tables alike.
  sexpr::SymbolTable One, Two;
  for (int Op = 0; Op <= static_cast<int>(Prim::Print); ++Op) {
    const PrimInfo &P = primInfo(static_cast<Prim>(Op));
    SCOPED_TRACE(P.Name);
    ASSERT_EQ(lookupPrim(std::string(P.Name)), &P);
    for (sexpr::SymbolTable *Syms : {&One, &Two}) {
      const sexpr::Symbol *S = Syms->intern(P.Name);
      EXPECT_EQ(lookupPrim(S), &P);
      EXPECT_EQ(lookupPrim(S), &P);
    }
  }
  for (const char *Name : {"no-such-fn", "fut", "catch"}) {
    const sexpr::Symbol *S = One.intern(Name);
    EXPECT_EQ(lookupPrim(S), nullptr) << Name;
    EXPECT_EQ(lookupPrim(S), nullptr) << Name;
  }
}

TEST_F(IrTest, ConcurrentPrimitiveLookupsAgree) {
  // Four threads resolve the same never-looked-up symbols at once: every
  // primitive name and as many names that are not primitives. Each thread
  // must see the name lookup's answer, and filling the per-symbol slots
  // must not race.
  sexpr::SymbolTable Fresh;
  std::vector<const sexpr::Symbol *> Syms;
  std::vector<const PrimInfo *> Expected;
  for (int Op = 0; Op <= static_cast<int>(Prim::Print); ++Op) {
    const char *Name = primInfo(static_cast<Prim>(Op)).Name;
    for (std::string N : {std::string(Name), std::string(Name) + "-not"}) {
      Syms.push_back(Fresh.intern(N));
      Expected.push_back(lookupPrim(N));
    }
  }
  constexpr int Threads = 4;
  std::atomic<int> Ready{0};
  std::vector<std::vector<const PrimInfo *>> Seen(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      ++Ready;
      while (Ready.load() < Threads) {
      }
      // Half the threads walk the symbols backwards, so first lookups
      // meet from both ends.
      for (size_t I = 0; I < Syms.size(); ++I)
        Seen[T].push_back(lookupPrim(Syms[T % 2 ? Syms.size() - 1 - I : I]));
      if (T % 2)
        std::reverse(Seen[T].begin(), Seen[T].end());
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(Seen[T], Expected) << "thread " << T;
}

TEST_F(IrTest, VerifyCatchesBadParent) {
  LambdaNode *L = F->makeLambda();
  Node *Body = F->makeNil();
  L->Body = Body; // deliberately not setting Body->Parent
  Body->Parent = nullptr;
  F->Root = L;
  DiagEngine Diags;
  EXPECT_FALSE(verify(*F, Diags));
}

// One negative case per verifier diagnostic: each starts from a clean
// tree, breaks one invariant, and expects exactly that message.

TEST_F(IrTest, VerifyCatchesReferenceMissingFromItsList) {
  Variable *X = F->makeVariable(sym("x"));
  VarRefNode *A = F->makeVarRef(X);
  VarRefNode *B = F->makeVarRef(X);
  setRoot({X}, F->makeProgn({A, B}));
  ASSERT_EQ(verifyMessages(), "");
  X->Refs = {A};
  EXPECT_EQ(verifyMessages(), "variable x#0 missing referent back-pointer\n");
}

TEST_F(IrTest, VerifyCatchesReferenceListedOnAnotherVariable) {
  Variable *X = F->makeVariable(sym("x"));
  Variable *Y = F->makeVariable(sym("y"));
  VarRefNode *RX = F->makeVarRef(X);
  VarRefNode *RY = F->makeVarRef(Y);
  setRoot({X, Y}, F->makeProgn({RX, RY}));
  ASSERT_EQ(verifyMessages(), "");
  X->Refs.clear();
  Y->Refs = {RX, RY};
  EXPECT_EQ(verifyMessages(), "variable x#0 missing referent back-pointer\n");
}

TEST_F(IrTest, VerifyCatchesBinderOutsideTheTree) {
  Variable *X = F->makeVariable(sym("x"));
  setRoot({X}, F->makeVarRef(X));
  ASSERT_EQ(verifyMessages(), "");
  X->Binder = F->makeLambda();
  EXPECT_EQ(verifyMessages(), "variable x#0 bound outside the tree\n");
}

TEST_F(IrTest, VerifyCatchesGoTargetOutsideTheTree) {
  ProgBodyNode *PB = F->makeProgBody({{sym("loop"), nullptr}});
  GoNode *G = F->makeGo(sym("loop"), PB);
  PB->Items.push_back({nullptr, G});
  G->Parent = PB;
  setRoot({}, PB);
  ASSERT_EQ(verifyMessages(), "");
  G->Target = F->makeProgBody({{sym("loop"), nullptr}});
  EXPECT_EQ(verifyMessages(), "go target progbody not in tree\n");
}

TEST_F(IrTest, VerifyCatchesGoToUnknownTag) {
  ProgBodyNode *PB = F->makeProgBody({{sym("loop"), nullptr}});
  GoNode *G = F->makeGo(sym("loop"), PB);
  PB->Items.push_back({nullptr, G});
  G->Parent = PB;
  setRoot({}, PB);
  ASSERT_EQ(verifyMessages(), "");
  G->Tag = sym("nope");
  EXPECT_EQ(verifyMessages(), "go to unknown tag 'nope'\n");
}

TEST_F(IrTest, VerifyCatchesReturnTargetOutsideTheTree) {
  ProgBodyNode *PB = F->makeProgBody({});
  ReturnNode *R = F->makeReturn(F->makeNil(), PB);
  PB->Items.push_back({nullptr, R});
  R->Parent = PB;
  setRoot({}, PB);
  ASSERT_EQ(verifyMessages(), "");
  R->Target = F->makeProgBody({});
  EXPECT_EQ(verifyMessages(), "return target progbody not in tree\n");
}

TEST_F(IrTest, VerifyCatchesCallWithBothOrNeitherCallee) {
  Node *Callee = F->makeNil();
  CallNode *C = F->makeCallExpr(Callee, {});
  setRoot({}, C);
  ASSERT_EQ(verifyMessages(), "");
  C->Name = sym("list");
  EXPECT_EQ(verifyMessages(), "call node with malformed callee\n");
  C->Name = nullptr;
  C->CalleeExpr = nullptr;
  EXPECT_EQ(verifyMessages(), "call node with malformed callee\n");
}

TEST_F(IrTest, VerifyGivesTheSameVerdictEveryTime) {
  // (lambda (x) (progn x (setq x 1) x)): verify leaves no trace on the
  // tree, so repeated checks agree, before and after a failure and after
  // a rewrite.
  Variable *X = F->makeVariable(sym("x"));
  VarRefNode *First = F->makeVarRef(X);
  SetqNode *Set = F->makeSetq(X, F->makeLiteral(Value::fixnum(1)));
  VarRefNode *Last = F->makeVarRef(X);
  PrognNode *Body = F->makeProgn({First, Set, Last});
  setRoot({X}, Body);
  EXPECT_EQ(verifyMessages(), "");
  EXPECT_EQ(verifyMessages(), "");

  X->Refs = {First, Set};
  EXPECT_EQ(verifyMessages(), "variable x#0 missing referent back-pointer\n");
  EXPECT_EQ(verifyMessages(), "variable x#0 missing referent back-pointer\n");
  X->Refs.push_back(Last);
  EXPECT_EQ(verifyMessages(), "");

  Node *One = F->makeLiteral(Value::fixnum(1));
  replaceChild(Body, Set, One);
  detachSubtree(Set);
  EXPECT_EQ(X->Refs, (std::vector<Node *>{First, Last}));
  EXPECT_EQ(verifyMessages(), "");
  EXPECT_EQ(verifyMessages(), "");
}

TEST_F(IrTest, VerifyAfterNamesThePhaseAndFunction) {
  ProgBodyNode *PB = F->makeProgBody({});
  ReturnNode *R = F->makeReturn(F->makeNil(), F->makeProgBody({}));
  PB->Items.push_back({nullptr, R});
  R->Parent = PB;
  setRoot({}, PB);
  DiagEngine Diags;
  EXPECT_FALSE(verifyAfter("opt.cse", *F, &Diags));
  EXPECT_EQ(Diags.str(), "error: inconsistent tree after opt.cse in 'test': "
                         "return target progbody not in tree\n");
  R->Target = PB;
  EXPECT_TRUE(verifyAfter("opt.cse", *F, &Diags));
  EXPECT_EQ(Diags.diagnostics().size(), 1u);
}

TEST_F(IrTest, ModuleLookup) {
  EXPECT_EQ(M.lookup("test"), F);
  EXPECT_EQ(M.lookup("absent"), nullptr);
  M.Specials.push_back(sym("*x*"));
  EXPECT_TRUE(M.isSpecial(sym("*x*")));
  EXPECT_FALSE(M.isSpecial(sym("y")));
}

} // namespace
