//===- ir/Ir.h - The compiler's internal tree -------------------*- C++ -*-===//
///
/// \file
/// The internal tree form of §4.1 and Table 2 of the paper. Each node
/// corresponds to one of twelve source-level constructs; everything else in
/// the source language is expanded into these by the frontend, so the tree
/// can always be back-translated into valid source (ir/BackTranslate.h).
///
/// There is deliberately *no central symbol table*: each distinct variable
/// is a little Variable structure pointed to by its binder and by every
/// referent node, with back-pointers from the Variable to those nodes —
/// exactly the paper's arrangement. Nodes carry parent back-links (the
/// "extra cross-links that effectively make it a general graph") plus
/// annotation slots that successive phases fill in.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_IR_IR_H
#define S1LISP_IR_IR_H

#include "sexpr/Value.h"
#include "support/Arena.h"
#include "support/Diag.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace s1lisp {
namespace ir {

class Node;
class LambdaNode;
class ProgBodyNode;
class Function;
struct ScratchMarks;

//===----------------------------------------------------------------------===//
// Annotation domains
//===----------------------------------------------------------------------===//

/// Side-effect classification (the paper's side-effects analysis, Table 1).
/// A bitmask: what executing a subtree may do, and hence what code motion
/// around it must respect.
enum EffectBits : uint8_t {
  EffectNone = 0,
  /// Mutates observable state (setq on shared vars, rplaca, special vars).
  EffectWrites = 1 << 0,
  /// Observes mutable state, so it cannot move across writes.
  EffectReads = 1 << 1,
  /// Heap-allocates. Per §5: "a side effect that may be eliminated but must
  /// not be duplicated".
  EffectAllocates = 1 << 2,
  /// May transfer control non-locally (go, return, throw).
  EffectControl = 1 << 3,
  /// Calls code the compiler cannot see; implies everything above.
  EffectUnknownCall = 1 << 4,
};

struct EffectInfo {
  uint8_t Bits = EffectNone;

  bool pure() const { return Bits == EffectNone; }
  /// Safe to delete if the value is unused.
  bool eliminable() const { return !(Bits & (EffectWrites | EffectControl | EffectUnknownCall)); }
  /// Safe to evaluate twice.
  bool duplicable() const { return Bits == EffectNone; }
  /// Safe to reorder with a computation that has effects \p Other. A pure
  /// computation commutes with anything — this is what lets the §7 example
  /// move (sinc$f (*$f 0.159… e)) past the unknown call to frotz.
  bool commutesWith(EffectInfo Other) const {
    if (pure() || Other.pure())
      return true;
    if ((Bits | Other.Bits) & (EffectControl | EffectUnknownCall))
      return false;
    if ((Bits & EffectWrites) && (Other.Bits & (EffectReads | EffectWrites)))
      return false;
    if ((Other.Bits & EffectWrites) && (Bits & (EffectReads | EffectWrites)))
      return false;
    return true;
  }

  EffectInfo operator|(EffectInfo O) const { return {static_cast<uint8_t>(Bits | O.Bits)}; }
  EffectInfo &operator|=(EffectInfo O) {
    Bits |= O.Bits;
    return *this;
  }
};

/// Internal object representations — Table 3 of the paper verbatim.
enum class Rep : uint8_t {
  SWFIX,   ///< 36-bit integer (one machine word here).
  DWFIX,   ///< 72-bit integer.
  HWFLO,   ///< half-word float.
  SWFLO,   ///< single-word float (the workhorse raw machine number).
  DWFLO,   ///< double-word float.
  TWFLO,   ///< quad-word float.
  HWCPLX,  ///< half-word complex.
  SWCPLX,  ///< single-word complex.
  DWCPLX,  ///< double-word complex.
  TWCPLX,  ///< quad-word complex.
  POINTER, ///< LISP pointer (tagged).
  BIT,     ///< 1-bit integer.
  JUMP,    ///< value delivered as a conditional jump.
  NONE,    ///< don't care (value not used).
};

const char *repName(Rep R);

/// True for the numeric raw representations that have a corresponding
/// user-visible heap-allocated pointer form (§6.3's pdl-eligible list).
bool repIsPdlEligible(Rep R);

/// How a lambda-expression is to be compiled (binding annotation, §4.4).
enum class LambdaStrategy : uint8_t {
  /// The callee of a direct call (a LET): arguments initialize frame
  /// slots and the body is compiled in line; no closure, no call.
  Open,
  /// A shared thunk whose every call is a parameter-passing goto: the
  /// body is emitted once and call sites jump to it.
  Jump,
  /// The general case: construct a closure object at run time.
  FullClosure,
};

/// Per-node slots filled in by successive phases (Table 1's "extra data
/// slots ... filled in by successive phases of the compiler").
struct Annotations {
  // --- source-program analysis ---
  EffectInfo Effects;      ///< effects this subtree may produce.
  unsigned Complexity = 1; ///< estimated object-code size (complexity analysis).
  bool Tail = false;       ///< node is in tail position of the enclosing lambda.

  // --- machine-dependent annotation ---
  Rep WantRep = Rep::POINTER; ///< representation the context wants (top-down).
  Rep IsRep = Rep::POINTER;   ///< representation the node delivers (bottom-up).
  /// PDLOKP: non-null when the parent context accepts a pdl (stack) number;
  /// points at the node that originally authorized it (§6.3).
  const Node *PdlOkp = nullptr;
  /// PDLNUMP: the node itself might produce a pdl number.
  bool PdlNump = false;

  // --- TNBIND ---
  int IsTn = -1;   ///< TN holding the value in IsRep form.
  int WantTn = -1; ///< TN holding the coerced (WantRep) form, when distinct.
  int PdlTn = -1;  ///< stack slot TN for a pdl number, when one is attached.
};

//===----------------------------------------------------------------------===//
// Variables
//===----------------------------------------------------------------------===//

/// One distinct variable (two source variables of the same name are two
/// Variables — alpha renaming happens at conversion). Holds back-pointers
/// to the binder and to every referencing node.
class Variable {
public:
  Variable(const sexpr::Symbol *Name, unsigned Id, bool IsSpecial)
      : Name(Name), Id(Id), Special(IsSpecial) {}

  const sexpr::Symbol *name() const { return Name; }
  unsigned id() const { return Id; }
  bool isSpecial() const { return Special; }

  /// The lambda that binds this variable; null for a free (global) variable.
  LambdaNode *Binder = nullptr;

  /// Every VarRefNode and SetqNode naming this variable (referent list).
  std::vector<Node *> Refs;

  // --- binding annotation ---
  /// Referenced from an inner FullClosure lambda, so the binding cell must
  /// be heap-allocated (§4.4).
  bool HeapAllocated = false;
  /// Some reference writes it.
  bool Written = false;

  // --- representation annotation ---
  Rep VarRep = Rep::POINTER;

  // --- TNBIND ---
  int Tn = -1;

  /// Display name, unique-ified for debugging ("x#3").
  std::string debugName() const;

private:
  friend struct ScratchMarks;

  const sexpr::Symbol *Name;
  unsigned Id;
  bool Special;
  /// Scratch flag of ir::verify: set while it has scanned this
  /// variable's referent list; false between calls.
  bool Mark = false;
};

//===----------------------------------------------------------------------===//
// Nodes
//===----------------------------------------------------------------------===//

/// Table 2's construct set, one enumerator per basic internal construct.
enum class NodeKind : uint8_t {
  Literal,  ///< constants (quote)
  VarRef,   ///< variable reference
  Caseq,    ///< case statement
  Catcher,  ///< target for non-local exits (catch)
  Go,       ///< goto a progbody tag
  If,       ///< if-then-else
  Lambda,   ///< lambda-expression (value: a lexical closure)
  ProgBody, ///< tagged statements; go/return operate on it
  Progn,    ///< sequential execution
  Return,   ///< exit a surrounding progbody
  Setq,     ///< assignment
  Call,     ///< function invocation
};

const char *nodeKindName(NodeKind K);

/// Base of all internal tree nodes.
class Node {
public:
  NodeKind kind() const { return Kind; }

  /// Parent back-link; null for the root lambda of a Function.
  Node *Parent = nullptr;
  SourceLocation Loc;
  Annotations Ann;

protected:
  explicit Node(NodeKind K) : Kind(K) {}
  ~Node() = default;

private:
  friend struct ScratchMarks;

  NodeKind Kind;
  /// Scratch bits of the linear walks in ir/Ir.cpp (verify,
  /// detachSubtree); zero between calls. Sits in the padding after Kind,
  /// so it costs no space.
  uint32_t Mark = 0;
};

/// A constant (Table 2 "literal"). The datum is an S-expression value.
class LiteralNode : public Node {
public:
  explicit LiteralNode(sexpr::Value Datum) : Node(NodeKind::Literal), Datum(Datum) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::Literal; }

  sexpr::Value Datum;
};

/// A variable reference.
class VarRefNode : public Node {
public:
  explicit VarRefNode(Variable *Var) : Node(NodeKind::VarRef), Var(Var) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::VarRef; }

  Variable *Var;
};

/// Assignment.
class SetqNode : public Node {
public:
  SetqNode(Variable *Var, Node *ValueExpr)
      : Node(NodeKind::Setq), Var(Var), ValueExpr(ValueExpr) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::Setq; }

  Variable *Var;
  Node *ValueExpr;
};

/// If-then-else. cond is expanded into these because "if is simpler and
/// symmetric, making program transformations easier".
class IfNode : public Node {
public:
  IfNode(Node *Test, Node *Then, Node *Else)
      : Node(NodeKind::If), Test(Test), Then(Then), Else(Else) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::If; }

  Node *Test;
  Node *Then;
  Node *Else;
};

/// Sequential execution; an empty progn evaluates to NIL.
class PrognNode : public Node {
public:
  explicit PrognNode(std::vector<Node *> Forms)
      : Node(NodeKind::Progn), Forms(std::move(Forms)) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::Progn; }

  std::vector<Node *> Forms;
};

/// A lambda-expression. Parameters follow the dialect's lambda-list:
/// required, then &optional (each with an arbitrary default computation
/// that may refer to earlier parameters), then an optional &rest.
class LambdaNode : public Node {
public:
  struct OptionalParam {
    Variable *Var = nullptr;
    Node *Default = nullptr; ///< evaluated when the argument is missing.
  };

  LambdaNode() : Node(NodeKind::Lambda) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::Lambda; }

  std::vector<Variable *> Required;
  std::vector<OptionalParam> Optionals;
  Variable *Rest = nullptr;
  Node *Body = nullptr;

  size_t minArgs() const { return Required.size(); }
  size_t maxFixedArgs() const { return Required.size() + Optionals.size(); }
  bool acceptsArgCount(size_t N) const {
    return N >= minArgs() && (Rest || N <= maxFixedArgs());
  }

  /// All parameter variables in order.
  std::vector<Variable *> allParams() const;

  // --- binding annotation (§4.4) ---
  LambdaStrategy Strategy = LambdaStrategy::FullClosure;
};

/// Function invocation. Exactly one of Name / CalleeExpr is set:
/// (f x)           -> Name = f (primitive or global function)
/// ((lambda ..) x) -> CalleeExpr = the LambdaNode (this is LET)
/// (funcall e x)   -> CalleeExpr = e
class CallNode : public Node {
public:
  CallNode(const sexpr::Symbol *Name, Node *CalleeExpr, std::vector<Node *> Args)
      : Node(NodeKind::Call), Name(Name), CalleeExpr(CalleeExpr), Args(std::move(Args)) {
    assert((Name != nullptr) != (CalleeExpr != nullptr) &&
           "exactly one callee form");
  }
  static bool classof(const Node *N) { return N->kind() == NodeKind::Call; }

  const sexpr::Symbol *Name;
  Node *CalleeExpr;
  std::vector<Node *> Args;

  bool isLetLike() const {
    return CalleeExpr && CalleeExpr->kind() == NodeKind::Lambda;
  }
};

/// Case dispatch on eql-comparable keys.
class CaseqNode : public Node {
public:
  struct Clause {
    std::vector<sexpr::Value> Keys;
    Node *Body = nullptr;
  };

  CaseqNode(Node *Key, std::vector<Clause> Clauses, Node *Default)
      : Node(NodeKind::Caseq), Key(Key), Clauses(std::move(Clauses)), Default(Default) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::Caseq; }

  Node *Key;
  std::vector<Clause> Clauses;
  Node *Default; ///< never null; the frontend supplies a NIL literal.
};

/// Dynamic non-local exit target (MACLISP catch). (throw tag val) remains
/// an ordinary call to the THROW primitive.
class CatcherNode : public Node {
public:
  CatcherNode(Node *TagExpr, Node *Body)
      : Node(NodeKind::Catcher), TagExpr(TagExpr), Body(Body) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::Catcher; }

  Node *TagExpr;
  Node *Body;
};

/// The statement body of a PROG: an ordered mix of tags and statements.
/// The usual LISP prog translates into a LET containing one of these.
class ProgBodyNode : public Node {
public:
  struct Item {
    const sexpr::Symbol *Tag = nullptr; ///< set for a tag item.
    Node *Stmt = nullptr;               ///< set for a statement item.
  };

  explicit ProgBodyNode(std::vector<Item> Items)
      : Node(NodeKind::ProgBody), Items(std::move(Items)) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::ProgBody; }

  std::vector<Item> Items;

  bool hasTag(const sexpr::Symbol *Tag) const {
    for (const Item &I : Items)
      if (I.Tag == Tag)
        return true;
    return false;
  }
};

/// goto a tag of an enclosing progbody.
class GoNode : public Node {
public:
  GoNode(const sexpr::Symbol *Tag, ProgBodyNode *Target)
      : Node(NodeKind::Go), Tag(Tag), Target(Target) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::Go; }

  const sexpr::Symbol *Tag;
  ProgBodyNode *Target;
};

/// Exit an enclosing progbody, delivering a value.
class ReturnNode : public Node {
public:
  ReturnNode(Node *ValueExpr, ProgBodyNode *Target)
      : Node(NodeKind::Return), ValueExpr(ValueExpr), Target(Target) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::Return; }

  Node *ValueExpr;
  ProgBodyNode *Target;
};

/// Checked downcast in the LLVM style.
template <typename T> T *cast(Node *N) {
  assert(N && T::classof(N) && "cast to wrong node kind");
  return static_cast<T *>(N);
}
template <typename T> const T *cast(const Node *N) {
  assert(N && T::classof(N) && "cast to wrong node kind");
  return static_cast<const T *>(N);
}
template <typename T> T *dyn_cast(Node *N) {
  return N && T::classof(N) ? static_cast<T *>(N) : nullptr;
}
template <typename T> const T *dyn_cast(const Node *N) {
  return N && T::classof(N) ? static_cast<const T *>(N) : nullptr;
}

//===----------------------------------------------------------------------===//
// Function: one compiled top-level defun
//===----------------------------------------------------------------------===//

/// Owns the arena behind one function's tree and its Variables, and offers
/// factory methods that keep parent links correct on construction.
class Function {
public:
  Function(std::string Name, sexpr::SymbolTable &Syms, sexpr::Heap &DataHeap)
      : Name(std::move(Name)), Syms(Syms), DataHeap(DataHeap) {}

  const std::string &name() const { return Name; }
  sexpr::SymbolTable &symbols() { return Syms; }
  sexpr::Heap &dataHeap() { return DataHeap; }

  LambdaNode *Root = nullptr;

  // --- factories ---
  Variable *makeVariable(const sexpr::Symbol *Name, bool Special = false);
  LiteralNode *makeLiteral(sexpr::Value V);
  LiteralNode *makeNil() { return makeLiteral(sexpr::Value::nil()); }
  VarRefNode *makeVarRef(Variable *Var);
  SetqNode *makeSetq(Variable *Var, Node *ValueExpr);
  IfNode *makeIf(Node *Test, Node *Then, Node *Else);
  PrognNode *makeProgn(std::vector<Node *> Forms);
  LambdaNode *makeLambda();
  CallNode *makeCall(const sexpr::Symbol *Name, std::vector<Node *> Args);
  CallNode *makeCallExpr(Node *Callee, std::vector<Node *> Args);
  CaseqNode *makeCaseq(Node *Key, std::vector<CaseqNode::Clause> Clauses, Node *Default);
  CatcherNode *makeCatcher(Node *TagExpr, Node *Body);
  ProgBodyNode *makeProgBody(std::vector<ProgBodyNode::Item> Items);
  GoNode *makeGo(const sexpr::Symbol *Tag, ProgBodyNode *Target);
  ReturnNode *makeReturn(Node *ValueExpr, ProgBodyNode *Target);

  const std::vector<Variable *> &variables() const { return Vars; }

private:
  std::string Name;
  sexpr::SymbolTable &Syms;
  sexpr::Heap &DataHeap;
  NodeArena A;
  std::vector<Variable *> Vars;
  unsigned NextVarId = 0;
};

//===----------------------------------------------------------------------===//
// Structural utilities
//===----------------------------------------------------------------------===//

/// The node type a walk hands its callback: const Node for a walk from
/// a const node, Node otherwise.
template <typename T>
using WalkNode = std::conditional_t<std::is_const_v<T>, const Node, Node>;

/// Invokes \p Fn on every direct child of \p N, in evaluation order. A
/// template, so every pass's callback inlines into the walk; \p N may
/// point to any node class, const or not. A walk from a mutable node
/// hands over the child's slot, so a callback taking `Node *&` may
/// replace the child in place.
template <typename T, typename FnT> void forEachChild(T *N, FnT &&Fn) {
  using NodeT = WalkNode<T>;
  NodeT *P = N;
  auto Visit = [&Fn](auto &Slot) {
    if constexpr (std::is_const_v<T>)
      Fn(static_cast<const Node *>(Slot));
    else
      Fn(Slot);
  };
  switch (P->kind()) {
  case NodeKind::Literal:
  case NodeKind::VarRef:
  case NodeKind::Go:
    return;
  case NodeKind::Setq:
    Visit(cast<SetqNode>(P)->ValueExpr);
    return;
  case NodeKind::If: {
    auto *I = cast<IfNode>(P);
    Visit(I->Test);
    Visit(I->Then);
    Visit(I->Else);
    return;
  }
  case NodeKind::Progn:
    for (auto &C : cast<PrognNode>(P)->Forms)
      Visit(C);
    return;
  case NodeKind::Lambda: {
    auto *L = cast<LambdaNode>(P);
    for (auto &O : L->Optionals)
      if (O.Default)
        Visit(O.Default);
    Visit(L->Body);
    return;
  }
  case NodeKind::Call: {
    auto *C = cast<CallNode>(P);
    if (C->CalleeExpr)
      Visit(C->CalleeExpr);
    for (auto &A : C->Args)
      Visit(A);
    return;
  }
  case NodeKind::Caseq: {
    auto *C = cast<CaseqNode>(P);
    Visit(C->Key);
    for (auto &Cl : C->Clauses)
      Visit(Cl.Body);
    Visit(C->Default);
    return;
  }
  case NodeKind::Catcher: {
    auto *C = cast<CatcherNode>(P);
    Visit(C->TagExpr);
    Visit(C->Body);
    return;
  }
  case NodeKind::ProgBody:
    for (auto &I : cast<ProgBodyNode>(P)->Items)
      if (I.Stmt)
        Visit(I.Stmt);
    return;
  case NodeKind::Return:
    Visit(cast<ReturnNode>(P)->ValueExpr);
    return;
  }
}

/// Invokes \p Fn on \p Root and all descendants, preorder.
template <typename T, typename FnT> void forEachNode(T *Root, FnT &&Fn) {
  using NodeT = WalkNode<T>;
  NodeT *P = Root;
  Fn(P);
  forEachChild(P, [&Fn](NodeT *C) { forEachNode(C, Fn); });
}

/// Replaces the child slot of \p Parent currently holding \p Old with
/// \p New, updating New's parent link. Asserts that Old is found.
void replaceChild(Node *Parent, Node *Old, Node *New);

/// Recomputes all parent links below \p Root (Root's own parent untouched).
void recomputeParents(Node *Root);

/// Unlinks the subtree rooted at \p Sub from the function's variable
/// back-pointer lists: every VarRef/Setq inside it is removed from its
/// Variable's referent list, and a Variable whose last Setq goes away has
/// Written cleared. Rules call this on the pieces they drop so the
/// referent lists stay exact without a full recomputeVariableRefs.
/// Surviving references keep their order. Linear: each affected list is
/// compacted once per call.
void detachSubtree(Node *Sub);

/// Rebuilds every Variable's referent list from the tree (after surgery).
void recomputeVariableRefs(Function &F);

/// Deep copy rooted at \p N. Variables *bound within* the copied subtree
/// get fresh Variables (preserving alpha-uniqueness); free variables keep
/// their identity. Go/Return targets inside the subtree are remapped; a
/// Go/Return whose target lies outside the copied subtree keeps it.
Node *cloneTree(Function &F, const Node *N);

/// Counts nodes in a subtree.
size_t treeSize(const Node *Root);

/// Consistency checker: parent links, variable back-pointers, go/return
/// target reachability. Reports problems to \p Diags; true when clean.
/// Linear in the tree plus the referent lists of the variables it
/// references; it neither hashes nor allocates per node.
bool verify(Function &F, DiagEngine &Diags);

/// Runs verify on \p F after \p Phase built or rewrote it; true when the
/// tree is clean. Otherwise one error naming the phase, the function and
/// the first verifier message goes to \p Diags. With no engine the same
/// message goes to stderr and the process aborts: a broken tree never
/// reaches the next phase unreported, in any build type.
bool verifyAfter(const char *Phase, Function &F, DiagEngine *Diags);

//===----------------------------------------------------------------------===//
// Module: a compilation session
//===----------------------------------------------------------------------===//

/// A set of functions compiled together, plus the session-global tables.
class Module {
public:
  Module() = default;

  sexpr::SymbolTable Syms;
  sexpr::Heap DataHeap;

  Function *addFunction(std::string Name) {
    Functions.push_back(std::make_unique<Function>(std::move(Name), Syms, DataHeap));
    Function *F = Functions.back().get();
    ByName[F->name()] = F;
    return F;
  }

  Function *lookup(const std::string &Name) const {
    auto It = ByName.find(Name);
    return It == ByName.end() ? nullptr : It->second;
  }

  const std::vector<std::unique_ptr<Function>> &functions() const { return Functions; }

  /// Symbols proclaimed special (dynamically scoped), e.g. by defvar.
  std::vector<const sexpr::Symbol *> Specials;
  bool isSpecial(const sexpr::Symbol *S) const {
    for (const sexpr::Symbol *Sp : Specials)
      if (Sp == S)
        return true;
    return false;
  }

private:
  std::vector<std::unique_ptr<Function>> Functions;
  std::unordered_map<std::string, Function *> ByName;
};

} // namespace ir
} // namespace s1lisp

#endif // S1LISP_IR_IR_H
