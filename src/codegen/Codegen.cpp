//===- codegen/Codegen.cpp ------------------------------------------------===//

#include "codegen/Codegen.h"

#include "analysis/Analysis.h"
#include "ir/Primitives.h"
#include "sexpr/Numbers.h"
#include "sexpr/Printer.h"
#include "stats/Stats.h"
#include "support/Parallel.h"

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

S1_STAT(NumFunctionsCompiled, "codegen.functions",
        "functions (incl. lifted closures) compiled");
S1_STAT(NumClosuresLifted, "codegen.closures.lifted",
        "closure bodies lifted to their own units");
S1_STAT(NumInstructionsEmitted, "codegen.instructions",
        "assembly instructions emitted");
S1_STAT(NumMovsEmitted, "codegen.movs", "data-movement MOVs emitted");
S1_STAT(NumSpecialsCached, "codegen.specials.cached",
        "special-variable binding addresses cached at entry");

using namespace s1lisp;
using namespace s1lisp::codegen;
using namespace s1lisp::ir;
using namespace s1lisp::s1;
using sexpr::Value;
using tnbind::Location;

namespace {

/// Compile-time shape of one heap environment frame.
struct EnvLayout {
  int Parent = -1;
  std::vector<const Variable *> Slots;
};

struct LiftedLambda {
  const LambdaNode *Lambda;
  ir::Function *IrFunction;
  int EnvLayoutId; ///< layout of the environment the closure captures
  int LocalIndex;  ///< ordinal among this unit's lifted closures
  std::string Name;
};

/// Compiles ONE module function (plus every closure lifted out of it) into
/// a private, relocatable unit: a local static pool addressed from
/// StaticBase, unit-local symbol ordinals inside Symbol-tagged words, and
/// unit-local lift indices inside MakeClosure operands. Units are
/// independent, so they compile on worker threads; the serial link in
/// codegen::compileModule relocates them in module order.
class ModuleCompiler {
public:
  ModuleCompiler(ir::Module &M, const CodegenOptions &Opts,
                 const std::unordered_map<std::string, int> &FuncIndex)
      : M(M), Opts(Opts), FuncIndex(FuncIndex) {}

  bool run(ir::Function &F);

  /// Encodes a literal into the unit's static pool; returns its word.
  /// Symbol words carry a unit-local ordinal in the address field until
  /// the link rewrites them.
  uint64_t encodeStatic(Value V);
  uint64_t symbolCell(const sexpr::Symbol *S);
  uint64_t tWord() { return encodeStatic(Value::symbol(M.Syms.t())); }

  int functionIndexFor(const std::string &Name) const {
    auto It = FuncIndex.find(Name);
    return It == FuncIndex.end() ? -1 : It->second;
  }

  int addEnvLayout(int Parent, std::vector<const Variable *> Slots) {
    Layouts.push_back({Parent, std::move(Slots)});
    return static_cast<int>(Layouts.size()) - 1;
  }
  const EnvLayout &layout(int Id) const { return Layouts[Id]; }

  /// Queues a closure body for compilation; returns the encoded unit-local
  /// function reference (-1 - ordinal) the link resolves to a global index.
  int liftClosure(const LambdaNode *L, ir::Function *IrF, int EnvLayoutId);

  ir::Module &M;
  const CodegenOptions &Opts;
  std::string Error;

  //===--- link inputs ----------------------------------------------------===//
  /// [0] is the module function; lifted closures follow in queue order.
  std::vector<s1::AsmFunction> Fns;
  /// Local data pool (cons cells, flonum/ratio payloads, string headers —
  /// never symbol cells), addressed from StaticBase.
  std::vector<uint64_t> Static;
  /// Pool slots holding encoded words that the link must relocate (cons
  /// car/cdr). Raw payload words (float bits, ratio ints, string lengths)
  /// are deliberately absent: they can alias any tag pattern.
  std::vector<size_t> PtrSlots;
  /// Symbols in first-use order; a Symbol word's address field indexes here.
  std::vector<const sexpr::Symbol *> SymList;
  /// Static string objects at unit-local addresses.
  std::vector<std::pair<uint64_t, std::string>> Strings;

private:
  const std::unordered_map<std::string, int> &FuncIndex;
  std::unordered_map<const sexpr::Symbol *, uint64_t> SymIdx;
  std::vector<EnvLayout> Layouts;
  std::deque<LiftedLambda> LiftQueue;
  unsigned LiftCounter = 0;
};

//===----------------------------------------------------------------------===//
// Function compilation
//===----------------------------------------------------------------------===//

/// A value being carried between emissions: where it is, what rep it has,
/// and which resource (if any) must be released after use.
struct TempVal {
  Operand Op;
  Rep R = Rep::POINTER;
  enum class Res : uint8_t { None, RtA, RtB, Reg, Frame, Literal } Owned = Res::None;
  Value Lit; ///< set when Owned == Literal (unmaterialized constant)
  /// A second held resource (e.g. the array base register of a fused
  /// indexed operand, whose index register is the first resource).
  Operand Op2;
  Res Owned2 = Res::None;

  static TempVal literal(Value V) {
    TempVal T;
    T.Owned = Res::Literal;
    T.Lit = V;
    return T;
  }
  bool isLiteral() const { return Owned == Res::Literal; }
  bool ownsRt() const {
    return Owned == Res::RtA || Owned == Res::RtB || Owned2 == Res::RtA ||
           Owned2 == Res::RtB;
  }
};

class FunctionCompiler {
public:
  FunctionCompiler(ModuleCompiler &MC, ir::Function &IrF, const LambdaNode *Entry,
                   int IncomingLayout, std::string Name)
      : MC(MC), IrF(IrF), Entry(Entry), IncomingLayout(IncomingLayout) {
    Out.Name = std::move(Name);
  }

  bool compile(AsmFunction &Result);

private:
  //===--- infrastructure -------------------------------------------------===//
  ModuleCompiler &MC;
  ir::Function &IrF;
  const LambdaNode *Entry;
  int IncomingLayout;
  AsmFunction Out;
  std::string Err;
  bool Failed = false;

  tnbind::TnBindResult Tns;
  int FrameBase = 2; ///< slots 0/1 hold saved ENV and argc
  int NextSlot = 0;  ///< next free frame slot (relative)
  std::vector<int> FreeSlots;
  std::vector<uint8_t> ScratchRegs;
  std::unordered_set<uint8_t> ScratchInUse;
  bool RtBusy[2] = {false, false};
  int EpilogueLabel = -1;
  int FramePatchIndex = -1;
  unsigned SpecialBindCount = 0; ///< dynamic bindings made by the prologue
  std::unordered_map<const sexpr::Symbol *, int> SpecialCacheSlot;
  std::unordered_set<const Node *> ContainsCallCache;
  bool ContainsCallComputed = false;

  /// Active local heap-environment scopes, innermost last.
  struct EnvScope {
    int LayoutId;
    int FrameSlot;
  };
  std::vector<EnvScope> EnvScopes;

  /// Jump-strategy thunks awaiting emission.
  struct ThunkInfo {
    int Label = -1;
    const Node *Body = nullptr;
    bool Tail = false;
    Operand Dest;
    Rep DestRep = Rep::POINTER;
    int JoinLabel = -1;
  };
  std::unordered_map<const Variable *, ThunkInfo *> ActiveThunks;
  std::deque<ThunkInfo> ThunkStorage;

  /// Progbody contexts.
  struct ProgCtx {
    const ProgBodyNode *Body;
    std::unordered_map<const sexpr::Symbol *, int> TagLabels;
    int ExitLabel;
    Operand Dest;
    Rep DestRep;
    bool Tail;
  };
  std::vector<ProgCtx> ProgCtxs;

  void fail(const std::string &Msg) {
    if (!Failed)
      Err = Out.Name + ": " + Msg;
    Failed = true;
  }

  void emit(Opcode Op, Operand A = {}, Operand B = {}, Operand X = {},
            std::string Comment = "") {
    Instruction I;
    I.Op = Op;
    I.A = A;
    I.B = B;
    I.X = X;
    I.Comment = std::move(Comment);
    Out.emit(std::move(I));
  }
  void emitJcc(Cond C, Operand A, Operand B, int Label, std::string Comment = "",
               bool FloatCmp = false) {
    Instruction I;
    I.Op = FloatCmp ? Opcode::FJMPZ : Opcode::JMPZ;
    I.C = C;
    I.A = A;
    I.B = B;
    I.X = Operand::label(Label);
    I.Comment = std::move(Comment);
    Out.emit(std::move(I));
  }
  void emitSyscall(Syscall S, int64_t Sub = 0, int64_t Extra = 0,
                   std::string Comment = "") {
    emit(Opcode::SYSCALL, Operand::imm(static_cast<int64_t>(S)),
         Operand::imm(Sub), Operand::imm(Extra), std::move(Comment));
  }

  //===--- resources ------------------------------------------------------===//
  int acquireSlot() {
    if (!FreeSlots.empty()) {
      int S = FreeSlots.back();
      FreeSlots.pop_back();
      return S;
    }
    return NextSlot++;
  }
  void releaseSlot(int S) { FreeSlots.push_back(S); }
  int permanentSlot() { return NextSlot++; } // never recycled (pdl, caches)

  Operand frameOp(int Slot) { return Operand::mem(FP, FrameBase + Slot); }

  int acquireReg() {
    if (MC.Opts.RegisterTemps)
      for (uint8_t R : ScratchRegs)
        if (!ScratchInUse.count(R)) {
          ScratchInUse.insert(R);
          return R;
        }
    return -1;
  }

  /// A writable destination for a fresh temporary; frame slot when the
  /// value must survive calls or no register is free.
  TempVal acquireTemp(Rep R, bool SurvivesCalls) {
    if (!SurvivesCalls) {
      int Reg = acquireReg();
      if (Reg >= 0) {
        TempVal T;
        T.Op = Operand::reg(static_cast<uint8_t>(Reg));
        T.R = R;
        T.Owned = TempVal::Res::Reg;
        return T;
      }
    }
    TempVal T;
    T.Op = frameOp(acquireSlot());
    T.R = R;
    T.Owned = TempVal::Res::Frame;
    return T;
  }

  TempVal rtTemp(uint8_t Which, Rep R) {
    RtBusy[Which == RTB] = true;
    TempVal T;
    T.Op = Operand::reg(Which);
    T.R = R;
    T.Owned = Which == RTA ? TempVal::Res::RtA : TempVal::Res::RtB;
    return T;
  }

  void releaseOne(TempVal::Res Kind, const Operand &Op) {
    switch (Kind) {
    case TempVal::Res::RtA:
      RtBusy[0] = false;
      break;
    case TempVal::Res::RtB:
      RtBusy[1] = false;
      break;
    case TempVal::Res::Reg:
      ScratchInUse.erase(Op.R);
      break;
    case TempVal::Res::Frame:
      releaseSlot(static_cast<int>(Op.Imm) - FrameBase);
      break;
    default:
      break;
    }
  }

  void release(TempVal &T) {
    releaseOne(T.Owned, T.Op);
    releaseOne(T.Owned2, T.Op2);
    T.Owned = TempVal::Res::None;
    T.Owned2 = TempVal::Res::None;
  }

  /// Does evaluating \p N potentially clobber registers (calls, closures,
  /// catch unwinding)? Computed once per subtree.
  bool containsCall(const Node *N) {
    bool Found = false;
    forEachNode(N, [&Found](const Node *C) {
      if (Found)
        return;
      if (C->kind() == NodeKind::Catcher || C->kind() == NodeKind::Lambda) {
        Found = true;
        return;
      }
      if (const auto *Call = dyn_cast<CallNode>(C)) {
        if (Call->CalleeExpr && !Call->isLetLike()) {
          Found = true;
          return;
        }
        if (Call->Name) {
          const PrimInfo *P = lookupPrim(Call->Name);
          if (!P || P->Op == Prim::Funcall || P->Op == Prim::Apply)
            Found = true;
        }
      }
    });
    return Found;
  }

  /// Guards a held temporary against clobbering by \p Upcoming: volatile
  /// registers (RV) and scratch registers are spilled to the frame.
  void protectAcross(TempVal &T, const Node *Upcoming) {
    if (!Upcoming || !containsCall(Upcoming))
      return;
    bool Volatile = T.Op.M == Operand::Mode::Reg &&
                    (T.Op.R == RV || T.Op.R == 1 || T.Owned == TempVal::Res::RtA ||
                     T.Owned == TempVal::Res::RtB || T.Owned == TempVal::Res::Reg);
    // Variables allocated to registers by TNBIND were already forced to
    // the frame when live across calls, so only temps need saving.
    if (T.Op.M == Operand::Mode::Reg && T.Owned == TempVal::Res::None &&
        T.Op.R != FP && T.Op.R != SP && T.Op.R != ENV)
      Volatile = true;
    if (!Volatile)
      return;
    TempVal Saved;
    Saved.Op = frameOp(acquireSlot());
    Saved.R = T.R;
    Saved.Owned = TempVal::Res::Frame;
    emit(Opcode::MOV, Saved.Op, T.Op, {}, "Save across call");
    release(T);
    T = Saved;
  }

  //===--- variables ------------------------------------------------------===//
  struct VarAccess {
    enum class Kind { Direct, Heap, Special, Thunk } K;
    Operand Op;      ///< Direct
    int Depth = 0;   ///< Heap: hops from the innermost scope/incoming ENV
    int Index = 0;   ///< Heap: slot index
    bool Local = false; ///< Heap: starts from a local scope slot
    int ScopeSlot = 0;  ///< Heap/Local: frame slot holding the env pointer
  };

  VarAccess accessOf(const Variable *V);
  TempVal readVar(const Variable *V);
  void writeVar(const Variable *V, TempVal &Val);

  //===--- compilation ----------------------------------------------------===//
  bool prologue();
  void epilogue();

  TempVal compileValue(const Node *N);
  void compileInto(const Node *N, Operand Dest, Rep DestRep);
  void compileEffect(const Node *N);
  void compileJump(const Node *N, int TrueLabel, int FalseLabel);
  void compileTail(const Node *N);

  TempVal compileCallValue(const CallNode *C);
  TempVal compilePrimValue(const CallNode *C, const PrimInfo &P);
  TempVal compileLet(const CallNode *C, int Mode, Operand Dest, Rep DestRep);
  void setupLet(const CallNode *C, std::vector<const Variable *> &SpecialParams,
                bool &PushedEnvScope, std::vector<ThunkInfo *> &Thunks);
  void finishLet(const std::vector<const Variable *> &SpecialParams,
                 bool PushedEnvScope, const std::vector<ThunkInfo *> &Thunks,
                 int JoinLabel, Operand Dest, Rep DestRep, bool Tail);
  void compileUserCall(const CallNode *C, bool Tail, TempVal *Result);
  void compileFuncall(const CallNode *C, bool Tail, TempVal *Result,
                      bool IsApply);
  TempVal emitArithChain(const CallNode *C, Opcode Op, Rep R);
  TempVal compileArithOperand(const Node *N, Rep R);
  TempVal compileArefOperand(const CallNode *C);
  TempVal emitCarCdr(const CallNode *C, const PrimInfo &P);
  void emitJumpForPrim(const CallNode *C, const PrimInfo &P, int TrueLabel,
                       int FalseLabel);
  TempVal resultFromRv(Rep R);
  TempVal emitGenericBinary(Syscall S, int64_t Sub, const Node *A, const Node *B);
  int DynBinds = 0; ///< active dynamic bindings (disable tail calls)
  TempVal materialize(TempVal V, Rep Want, const Node *Origin);
  void moveInto(TempVal &V, Operand Dest, Rep DestRep, const Node *Origin);
  TempVal makeClosureValue(const LambdaNode *L);
  Operand currentEnvOperand();
  TempVal boolFromJump(const Node *N);
  void pushPointerArgs(const std::vector<Node *> &Args);
  TempVal ensureInReg(TempVal V);

  uint64_t litWord(Value V) { return MC.encodeStatic(V); }
};

//===----------------------------------------------------------------------===//
// ModuleCompiler
//===----------------------------------------------------------------------===//

uint64_t ModuleCompiler::symbolCell(const sexpr::Symbol *S) {
  auto It = SymIdx.find(S);
  if (It != SymIdx.end())
    return It->second;
  uint64_t Idx = SymList.size();
  SymList.push_back(S);
  SymIdx[S] = Idx;
  return Idx;
}

uint64_t ModuleCompiler::encodeStatic(Value V) {
  switch (V.kind()) {
  case sexpr::ValueKind::Nil:
    return NilWord;
  case sexpr::ValueKind::Fixnum:
    if (V.fixnum() < INT32_MIN || V.fixnum() > INT32_MAX) {
      Error = "literal fixnum out of the compiled 32-bit range";
      return NilWord;
    }
    return makeFixnum(V.fixnum());
  case sexpr::ValueKind::Symbol:
    return makePointer(Tag::Symbol, symbolCell(V.symbol()));
  case sexpr::ValueKind::Flonum: {
    uint64_t Addr = 16 + Static.size();
    uint64_t Bits;
    double D = V.flonum();
    static_assert(sizeof(Bits) == sizeof(D));
    __builtin_memcpy(&Bits, &D, sizeof(Bits));
    Static.push_back(Bits);
    return makePointer(Tag::SingleFlonum, Addr);
  }
  case sexpr::ValueKind::Ratio: {
    uint64_t Addr = 16 + Static.size();
    Static.push_back(static_cast<uint64_t>(V.ratio().Num));
    Static.push_back(static_cast<uint64_t>(V.ratio().Den));
    return makePointer(Tag::Ratio, Addr);
  }
  case sexpr::ValueKind::String: {
    uint64_t Addr = 16 + Static.size();
    Static.push_back(V.stringValue().size());
    Strings.push_back({Addr, V.stringValue()});
    return makePointer(Tag::String, Addr);
  }
  case sexpr::ValueKind::Cons: {
    uint64_t Car = encodeStatic(V.car());
    uint64_t Cdr = encodeStatic(V.cdr());
    uint64_t Addr = 16 + Static.size();
    PtrSlots.push_back(Static.size());
    Static.push_back(Car);
    PtrSlots.push_back(Static.size());
    Static.push_back(Cdr);
    return makePointer(Tag::Cons, Addr);
  }
  }
  return NilWord;
}

int ModuleCompiler::liftClosure(const LambdaNode *L, ir::Function *IrF,
                                int EnvLayoutId) {
  ++NumClosuresLifted;
  int LocalIndex = static_cast<int>(LiftCounter);
  std::string Name = IrF->name() + "$lambda-" + std::to_string(++LiftCounter);
  LiftQueue.push_back({L, IrF, EnvLayoutId, LocalIndex, Name});
  // The global index of a lifted closure is unknowable while units compile
  // concurrently; MakeClosure carries -1 - ordinal until the link patches
  // it. Module-function references stay positive and need no patching.
  return -1 - LocalIndex;
}

bool ModuleCompiler::run(ir::Function &F) {
  annotate::annotate(F, Opts.Annotate);
  {
    FunctionCompiler FC(*this, F, F.Root, /*IncomingLayout=*/-1, F.name());
    AsmFunction Asm;
    if (!FC.compile(Asm))
      return false;
    Fns.push_back(std::move(Asm));
  }

  // Compile lifted closures (the queue may grow while we drain it).
  while (!LiftQueue.empty()) {
    LiftedLambda L = LiftQueue.front();
    LiftQueue.pop_front();
    assert(static_cast<int>(Fns.size()) == L.LocalIndex + 1 &&
           "lift queue out of order");
    FunctionCompiler FC(*this, *L.IrFunction, L.Lambda, L.EnvLayoutId, L.Name);
    AsmFunction Asm;
    if (!FC.compile(Asm))
      return false;
    Fns.push_back(std::move(Asm));
  }
  return Error.empty();
}

//===----------------------------------------------------------------------===//
// FunctionCompiler: frame, variables
//===----------------------------------------------------------------------===//

FunctionCompiler::VarAccess FunctionCompiler::accessOf(const Variable *V) {
  VarAccess A;
  if (ActiveThunks.count(V)) {
    A.K = VarAccess::Kind::Thunk;
    return A;
  }
  if (V->isSpecial()) {
    A.K = VarAccess::Kind::Special;
    return A;
  }
  if (V->HeapAllocated) {
    A.K = VarAccess::Kind::Heap;
    // Search local scopes innermost-first.
    int Hops = 0;
    for (size_t J = EnvScopes.size(); J > 0; --J, ++Hops) {
      const EnvLayout &L = MC.layout(EnvScopes[J - 1].LayoutId);
      for (size_t K = 0; K < L.Slots.size(); ++K)
        if (L.Slots[K] == V) {
          A.Local = true;
          A.ScopeSlot = EnvScopes[J - 1].FrameSlot;
          A.Depth = 0;
          A.Index = static_cast<int>(K);
          return A;
        }
    }
    // Then the captured chain.
    int Depth = 0;
    for (int Id = IncomingLayout; Id >= 0; Id = MC.layout(Id).Parent, ++Depth) {
      const EnvLayout &L = MC.layout(Id);
      for (size_t K = 0; K < L.Slots.size(); ++K)
        if (L.Slots[K] == V) {
          A.Local = false;
          A.Depth = Depth;
          A.Index = static_cast<int>(K);
          return A;
        }
    }
    fail("heap variable " + V->debugName() + " not found in any environment");
    return A;
  }
  A.K = VarAccess::Kind::Direct;
  auto It = Tns.VarLocs.find(V);
  if (It == Tns.VarLocs.end()) {
    fail("variable " + V->debugName() + " has no TN location");
    A.Op = Operand::reg(0);
    return A;
  }
  A.Op = It->second.isRegister() ? Operand::reg(It->second.Reg)
                                 : frameOp(It->second.Slot);
  return A;
}

TempVal FunctionCompiler::readVar(const Variable *V) {
  VarAccess A = accessOf(V);
  switch (A.K) {
  case VarAccess::Kind::Direct: {
    TempVal T;
    T.Op = A.Op;
    T.R = V->VarRep;
    return T;
  }
  case VarAccess::Kind::Heap: {
    int R = acquireReg();
    TempVal T;
    if (R < 0) {
      // Walk through R0 scratch, land in a frame temp.
      emit(Opcode::MOV, Operand::reg(0),
           A.Local ? frameOp(A.ScopeSlot) : Operand::reg(ENV), {}, "Env chain");
      for (int J = 0; J < A.Depth; ++J)
        emit(Opcode::MOV, Operand::reg(0), Operand::mem(0, 0), {}, "Outer env");
      T = acquireTemp(Rep::POINTER, false);
      emit(Opcode::MOV, T.Op, Operand::mem(0, 1 + A.Index), {},
           "Heap variable " + V->debugName());
      return T;
    }
    T.Op = Operand::reg(static_cast<uint8_t>(R));
    T.Owned = TempVal::Res::Reg;
    T.R = Rep::POINTER;
    emit(Opcode::MOV, T.Op,
         A.Local ? frameOp(A.ScopeSlot) : Operand::reg(ENV), {}, "Env chain");
    for (int J = 0; J < A.Depth; ++J)
      emit(Opcode::MOV, T.Op, Operand::mem(T.Op.R, 0), {}, "Outer env");
    emit(Opcode::MOV, T.Op, Operand::mem(T.Op.R, 1 + A.Index), {},
         "Heap variable " + V->debugName());
    return T;
  }
  case VarAccess::Kind::Special: {
    int Slot;
    auto It = SpecialCacheSlot.find(V->name());
    if (It != SpecialCacheSlot.end()) {
      Slot = It->second;
    } else {
      // Uncached (ablation): look it up right here, every time.
      emit(Opcode::PUSH, Operand::imm(static_cast<int64_t>(
                             litWord(Value::symbol(V->name())))));
      emitSyscall(Syscall::SpecLookup, 0, 0,
                  "Deep search for " + V->name()->name());
      Slot = -1;
    }
    TempVal Addr = acquireTemp(Rep::POINTER, false);
    if (Slot >= 0)
      emit(Opcode::MOV, Addr.Op, frameOp(Slot), {},
           "Cached binding address of " + V->name()->name());
    else
      emit(Opcode::MOV, Addr.Op, Operand::reg(RV));
    TempVal ValueT = Addr; // reuse the register for the value
    Operand Cell = Addr.Op.M == Operand::Mode::Reg
                       ? Operand::mem(Addr.Op.R, 0)
                       : Operand();
    if (Addr.Op.M != Operand::Mode::Reg) {
      // Frame temp: bounce through R0.
      emit(Opcode::MOV, Operand::reg(0), Addr.Op);
      Cell = Operand::mem(0, 0);
    }
    emit(Opcode::MOV, ValueT.Op, Cell, {}, "Special value " + V->name()->name());
    int LOk = Out.newLabel();
    emitJcc(Cond::NEQ, ValueT.Op, Operand::imm(static_cast<int64_t>(~0ull)), LOk);
    emitSyscall(Syscall::Error, static_cast<int64_t>(RtError::UnboundVariable));
    Out.placeLabel(LOk);
    ValueT.R = Rep::POINTER;
    return ValueT;
  }
  case VarAccess::Kind::Thunk:
    fail("jump thunk variable used as a value");
    return TempVal();
  }
  return TempVal();
}

void FunctionCompiler::writeVar(const Variable *V, TempVal &Val) {
  VarAccess A = accessOf(V);
  switch (A.K) {
  case VarAccess::Kind::Direct: {
    moveInto(Val, A.Op, V->VarRep, nullptr);
    return;
  }
  case VarAccess::Kind::Heap: {
    TempVal P = materialize(std::move(Val), Rep::POINTER, nullptr);
    Val = P;
    emit(Opcode::MOV, Operand::reg(0),
         A.Local ? frameOp(A.ScopeSlot) : Operand::reg(ENV), {}, "Env chain");
    for (int J = 0; J < A.Depth; ++J)
      emit(Opcode::MOV, Operand::reg(0), Operand::mem(0, 0));
    TempVal M = materialize(std::move(Val), Rep::POINTER, nullptr);
    Val = M;
    emit(Opcode::MOV, Operand::mem(0, 1 + A.Index), Val.Op, {},
         "Store heap variable " + V->debugName());
    return;
  }
  case VarAccess::Kind::Special: {
    TempVal P = materialize(std::move(Val), Rep::POINTER, nullptr);
    Val = P;
    auto It = SpecialCacheSlot.find(V->name());
    if (It != SpecialCacheSlot.end()) {
      emit(Opcode::MOV, Operand::reg(0), frameOp(It->second));
    } else {
      emit(Opcode::PUSH, Operand::imm(static_cast<int64_t>(
                             litWord(Value::symbol(V->name())))));
      emitSyscall(Syscall::SpecLookup);
      emit(Opcode::MOV, Operand::reg(0), Operand::reg(RV));
    }
    emit(Opcode::MOV, Operand::mem(0, 0), Val.Op, {},
         "Set special " + V->name()->name());
    return;
  }
  case VarAccess::Kind::Thunk:
    fail("setq of a jump thunk variable");
    return;
  }
}

//===----------------------------------------------------------------------===//
// FunctionCompiler: prologue / epilogue
//===----------------------------------------------------------------------===//

bool FunctionCompiler::compile(AsmFunction &Result) {
  analysis::analyzeTails(IrF);
  Tns = tnbind::allocateVariables(Entry, MC.Opts.TnBind);
  NextSlot = static_cast<int>(Tns.FrameSlots);
  for (uint8_t R = 7; R <= 26; ++R) {
    bool Taken = false;
    for (uint8_t Used : Tns.RegistersUsed)
      Taken |= Used == R;
    if (!Taken && isAllocatableReg(R))
      ScratchRegs.push_back(R);
  }

  if (prologue()) {
    EpilogueLabel = Out.newLabel();
    compileTail(Entry->Body);
    epilogue();
  }
  if (Failed) {
    MC.Error = Err;
    return false;
  }
  Out.FrameSize = static_cast<unsigned>(FrameBase + NextSlot);
  // Patch the frame allocation in the prologue.
  Out.Code[FramePatchIndex].B.Imm = NextSlot;
  std::string FinalizeError;
  if (!Out.finalize(FinalizeError)) {
    MC.Error = FinalizeError;
    return false;
  }
  Result = std::move(Out);
  return true;
}

bool FunctionCompiler::prologue() {
  const LambdaNode *L = Entry;
  size_t MinA = L->minArgs(), MaxA = L->maxFixedArgs();
  Out.MinArgs = static_cast<unsigned>(MinA);
  Out.MaxArgs = static_cast<unsigned>(MaxA);
  Out.HasRest = L->Rest != nullptr;
  if (L->Rest && !L->Optionals.empty()) {
    fail("&optional together with &rest is not supported by the compiler");
    return false;
  }

  emit(Opcode::PUSH, Operand::reg(FP), {}, {}, "Prologue: save FP");
  emit(Opcode::MOV, Operand::reg(FP), Operand::reg(SP));
  emit(Opcode::PUSH, Operand::reg(ENV), {}, {}, "Save caller environment");
  emit(Opcode::PUSH, Operand::reg(RTA), {}, {}, "Save argument count");
  if (IncomingLayout >= 0)
    emit(Opcode::MOV, Operand::reg(ENV), Operand::reg(1), {},
         "Closure environment from %CALLPTR");
  FramePatchIndex = static_cast<int>(Out.Code.size());
  emit(Opcode::ADD, Operand::reg(SP), Operand::imm(0), {}, "Allocate frame");

  // Arity checking (Table 4's first two instructions).
  int LArityOk = Out.newLabel();
  int LArityBad = Out.newLabel();
  emitJcc(Cond::LT, Operand::reg(RTA), Operand::imm(static_cast<int64_t>(MinA)),
          LArityBad, "Jump if too few arguments");
  if (!L->Rest)
    emitJcc(Cond::GT, Operand::reg(RTA), Operand::imm(static_cast<int64_t>(MaxA)),
            LArityBad, "Jump if too many arguments");
  emitJcc(Cond::GE, Operand::reg(RTA), Operand::imm(0), LArityOk);
  Out.placeLabel(LArityBad);
  emitSyscall(Syscall::Error, static_cast<int64_t>(RtError::WrongNumberOfArguments));
  Out.placeLabel(LArityOk);

  // Allocate a local heap environment when parameters are captured.
  std::vector<const Variable *> HeapParams;
  for (const Variable *P : L->allParams())
    if (P->HeapAllocated && !P->isSpecial())
      HeapParams.push_back(P);
  // Parameters land in a temp slot first when they need heap/special homes.
  std::unordered_map<const Variable *, int> StageSlot;
  for (const Variable *P : L->allParams())
    if (P->HeapAllocated || P->isSpecial())
      StageSlot[P] = permanentSlot();

  if (!HeapParams.empty()) {
    emit(Opcode::PUSH, currentEnvOperand(), {}, {}, "Parent environment");
    emitSyscall(Syscall::MakeEnv, static_cast<int64_t>(HeapParams.size()), 0,
                "Heap-allocate parameter environment");
    int Slot = permanentSlot();
    emit(Opcode::MOV, frameOp(Slot), Operand::reg(RV));
    EnvScopes.push_back({MC.addEnvLayout(IncomingLayout, HeapParams), Slot});
  }

  auto StoreParam = [&](const Variable *P, Operand Src) {
    auto It = StageSlot.find(P);
    if (It != StageSlot.end()) {
      if (Src.M != Operand::Mode::None) {
        emit(Opcode::MOV, Operand::reg(0), Src);
        emit(Opcode::MOV, frameOp(It->second), Operand::reg(0), {},
             "Stage parameter " + P->name()->name());
      }
      return;
    }
    TempVal V;
    V.Op = Src;
    V.R = Rep::POINTER;
    moveInto(V, accessOf(P).Op, P->VarRep, nullptr);
  };
  auto StoreParamValue = [&](const Variable *P, TempVal V) {
    auto It = StageSlot.find(P);
    if (It != StageSlot.end()) {
      moveInto(V, frameOp(It->second), Rep::POINTER, nullptr);
      release(V);
      return;
    }
    moveInto(V, accessOf(P).Op, P->VarRep, nullptr);
    release(V);
  };

  std::vector<Variable *> Params = L->allParams();
  size_t NFixed = L->Rest ? Params.size() - 1 : Params.size();

  if (L->Rest) {
    // Compute the argument base: FP - 2 - argc.
    emit(Opcode::MOV, Operand::reg(0), Operand::reg(FP));
    emit(Opcode::SUB, Operand::reg(0), Operand::mem(FP, 1), {},
         "FP - argc");
    emit(Opcode::SUB, Operand::reg(0), Operand::imm(2), {}, "Argument base");
    for (size_t I = 0; I < NFixed; ++I)
      StoreParam(Params[I], Operand::mem(0, static_cast<int64_t>(I)));
    emit(Opcode::MOV, Operand::reg(1), Operand::reg(0));
    emit(Opcode::ADD, Operand::reg(1), Operand::imm(static_cast<int64_t>(NFixed)));
    emit(Opcode::PUSH, Operand::reg(1), {}, {}, "&rest base");
    emit(Opcode::MOV, Operand::reg(1), Operand::mem(FP, 1));
    emit(Opcode::SUB, Operand::reg(1), Operand::imm(static_cast<int64_t>(NFixed)));
    emit(Opcode::PUSH, Operand::reg(1), {}, {}, "&rest count");
    emitSyscall(Syscall::MakeRestList, 0, 0, "Collect &rest arguments");
    TempVal RestV;
    RestV.Op = Operand::reg(RV);
    RestV.R = Rep::POINTER;
    StoreParamValue(L->Rest, RestV);
  } else if (L->Optionals.empty()) {
    // Exactly MaxA arguments.
    for (size_t I = 0; I < Params.size(); ++I)
      StoreParam(Params[I],
                 Operand::mem(FP, -2 - static_cast<int64_t>(Params.size()) +
                                      static_cast<int64_t>(I)));
  } else {
    // Table 4's dispatch on the number of arguments: one customized case
    // per supplied-argument count, each initializing the defaulted
    // parameters with arbitrary computations.
    int LBody = Out.newLabel();
    std::vector<int> CaseLabels;
    for (size_t K = MinA; K <= MaxA; ++K)
      CaseLabels.push_back(Out.newLabel());
    for (size_t K = MinA; K < MaxA; ++K)
      emitJcc(Cond::EQ, Operand::reg(RTA), Operand::imm(static_cast<int64_t>(K)),
              CaseLabels[K - MinA], "Dispatch on number of arguments");
    emitJcc(Cond::GE, Operand::reg(RTA), Operand::imm(0),
            CaseLabels[MaxA - MinA]);
    for (size_t K = MinA; K <= MaxA; ++K) {
      Out.placeLabel(CaseLabels[K - MinA],
                     "Come here if " + std::to_string(K) + " arguments");
      for (size_t I = 0; I < K; ++I)
        StoreParam(Params[I], Operand::mem(FP, -2 - static_cast<int64_t>(K) +
                                                   static_cast<int64_t>(I)));
      for (size_t I = K; I < MaxA; ++I) {
        const auto &O = L->Optionals[I - MinA];
        TempVal D = compileValue(O.Default);
        StoreParamValue(O.Var, D);
      }
      emitJcc(Cond::GE, Operand::reg(RTA), Operand::imm(0), LBody);
    }
    Out.placeLabel(LBody);
  }

  // Move heap-allocated parameters into the environment and push dynamic
  // bindings for special parameters, in parameter order.
  for (const Variable *P : Params) {
    auto It = StageSlot.find(P);
    if (It == StageSlot.end())
      continue;
    if (P->isSpecial()) {
      emit(Opcode::PUSH, Operand::imm(static_cast<int64_t>(
                             litWord(Value::symbol(P->name())))));
      emit(Opcode::PUSH, frameOp(It->second));
      emitSyscall(Syscall::SpecBind, 0, 0, "Bind special " + P->name()->name());
      ++SpecialBindCount;
    } else {
      TempVal V;
      V.Op = frameOp(It->second);
      V.R = Rep::POINTER;
      writeVar(P, V);
    }
  }

  // Special-variable lookup caching (§4.4): one search per special on
  // entry, after our own bindings are in place.
  if (MC.Opts.SpecialCache) {
    // Symbols this unit dynamically binds anywhere below the entry (LET
    // special params) cannot use the entry-time cache: the binding they
    // must see does not exist yet. The paper's smallest-subtree refinement
    // would cache those at the inner binding; we fall back to per-access
    // lookups for them.
    std::unordered_set<const sexpr::Symbol *> BoundBelow;
    forEachNode(static_cast<const Node *>(Entry), [&](const Node *N) {
      const auto *IL = dyn_cast<LambdaNode>(N);
      if (!IL || IL == Entry)
        return;
      for (const Variable *P : IL->allParams())
        if (P->isSpecial())
          BoundBelow.insert(P->name());
    });
    std::vector<const sexpr::Symbol *> Specials;
    forEachNode(static_cast<const Node *>(Entry), [&](const Node *N) {
      const Variable *V = nullptr;
      if (const auto *VR = dyn_cast<VarRefNode>(N))
        V = VR->Var;
      else if (const auto *SQ = dyn_cast<SetqNode>(N))
        V = SQ->Var;
      if (V && V->isSpecial() && !BoundBelow.count(V->name())) {
        for (const sexpr::Symbol *S : Specials)
          if (S == V->name())
            return;
        Specials.push_back(V->name());
      }
    });
    for (const sexpr::Symbol *S : Specials) {
      int Slot = permanentSlot();
      emit(Opcode::PUSH,
           Operand::imm(static_cast<int64_t>(litWord(Value::symbol(S)))));
      emitSyscall(Syscall::SpecLookup, 0, 0,
                  "Cache binding address of " + S->name());
      emit(Opcode::MOV, frameOp(Slot), Operand::reg(RV));
      SpecialCacheSlot[S] = Slot;
      ++NumSpecialsCached;
    }
  }
  return !Failed;
}

void FunctionCompiler::epilogue() {
  Out.placeLabel(EpilogueLabel, "Function exit");
  if (SpecialBindCount > 0)
    emitSyscall(Syscall::SpecUnbind, static_cast<int64_t>(SpecialBindCount), 0,
                "Unwind dynamic bindings");
  emit(Opcode::MOV, Operand::reg(ENV), Operand::mem(FP, 0), {},
       "Restore caller environment");
  emit(Opcode::MOV, Operand::reg(SP), Operand::reg(FP));
  emit(Opcode::POP, Operand::reg(FP), {}, {}, "Restore FP");
  emit(Opcode::RET, {}, {}, {}, "Return");
}

Operand FunctionCompiler::currentEnvOperand() {
  if (!EnvScopes.empty())
    return frameOp(EnvScopes.back().FrameSlot);
  if (IncomingLayout >= 0)
    return Operand::reg(ENV);
  return Operand::imm(0); // NIL: no environment
}

//===----------------------------------------------------------------------===//
// Expression compilation is split into CodegenExpr.inc (same translation
// unit) to keep each file reviewable.
//===----------------------------------------------------------------------===//

#include "codegen/CodegenExpr.inc"

} // namespace

size_t CompiledUnit::byteSize() const {
  size_t Bytes = sizeof(CompiledUnit) + Error.size();
  for (const s1::AsmFunction &F : Fns) {
    Bytes += sizeof(s1::AsmFunction) + F.Name.size() +
             F.Code.size() * sizeof(s1::Instruction) +
             F.LabelPos.size() * sizeof(int);
    for (const s1::Instruction &I : F.Code)
      Bytes += I.Comment.size();
  }
  Bytes += Static.size() * sizeof(uint64_t);
  Bytes += PtrSlots.size() * sizeof(size_t);
  for (const std::string &S : SymNames)
    Bytes += sizeof(std::string) + S.size();
  for (const auto &[Addr, Str] : Strings)
    Bytes += sizeof(Addr) + sizeof(std::string) + Str.size();
  return Bytes;
}

CompiledUnit codegen::compileFunctionUnit(
    ir::Module &M, ir::Function &F, const CodegenOptions &Opts,
    const std::unordered_map<std::string, int> &FuncIndex) {
  stats::PhaseTimer Timer("codegen");
  ModuleCompiler MC(M, Opts, FuncIndex);
  CompiledUnit Unit;
  if (!MC.run(F)) {
    Unit.Error = MC.Error;
    return Unit;
  }
  Unit.Ok = true;
  Unit.Fns = std::move(MC.Fns);
  Unit.Static = std::move(MC.Static);
  Unit.PtrSlots = std::move(MC.PtrSlots);
  Unit.SymNames.reserve(MC.SymList.size());
  for (const sexpr::Symbol *S : MC.SymList)
    Unit.SymNames.push_back(S->name());
  Unit.Strings = std::move(MC.Strings);
  return Unit;
}

CompileResult codegen::linkUnits(ir::Module &M,
                                 const std::vector<const CompiledUnit *> &Units) {
  stats::PhaseTimer Timer("codegen.link");
  CompileResult Result;
  const size_t NumUnits = Units.size();
  for (const CompiledUnit *U : Units)
    if (!U->Ok) {
      Result.Error = U->Error;
      return Result;
    }

  //===--- link: relocate units in module order ---------------------------===//
  s1::Program P;
  const int NumModuleFns = static_cast<int>(NumUnits);
  std::vector<uint64_t> Delta(NumUnits); // unit-local addr + Delta = global
  std::vector<int> LiftBase(NumUnits);   // lifts of earlier units
  uint64_t DataWords = 0;
  int Lifts = 0;
  for (size_t U = 0; U < NumUnits; ++U) {
    Delta[U] = DataWords;
    DataWords += Units[U]->Static.size();
    LiftBase[U] = Lifts;
    Lifts += static_cast<int>(Units[U]->Fns.size()) - 1;
  }

  // Units carry symbol names; resolve them against this module's table
  // (a cached unit may have been compiled for a different Module).
  std::vector<std::vector<const sexpr::Symbol *>> Syms(NumUnits);
  for (size_t U = 0; U < NumUnits; ++U) {
    Syms[U].reserve(Units[U]->SymNames.size());
    for (const std::string &Name : Units[U]->SymNames)
      Syms[U].push_back(M.Syms.intern(Name));
  }

  // Data image: unit pools in module order, then one cell per distinct
  // symbol (first-global-use order), initialized globally unbound.
  P.Static.reserve(DataWords);
  for (const CompiledUnit *U : Units)
    P.Static.insert(P.Static.end(), U->Static.begin(), U->Static.end());
  for (size_t U = 0; U < NumUnits; ++U)
    for (const sexpr::Symbol *S : Syms[U])
      if (!P.SymbolAddr.count(S)) {
        P.SymbolAddr[S] = /*StaticBase*/ 16 + P.Static.size();
        P.Static.push_back(~0ull);
      }

  // Rewrites one encoded word from unit U's local space into the global
  // one. Non-pointer tags (immediates, raw small ints, ~0 markers) pass
  // through untouched.
  auto PatchWord = [&](uint64_t W, size_t U) -> uint64_t {
    switch (tagOf(W)) {
    case Tag::Symbol:
      return makePointer(Tag::Symbol, P.SymbolAddr.at(Syms[U][addrOf(W)]));
    case Tag::Cons:
    case Tag::SingleFlonum:
    case Tag::String:
    case Tag::Ratio:
      return (W & ~AddrMask) | ((addrOf(W) + Delta[U]) & AddrMask);
    default:
      return W;
    }
  };

  for (size_t U = 0; U < NumUnits; ++U)
    for (size_t Slot : Units[U]->PtrSlots) {
      uint64_t &W = P.Static[Delta[U] + Slot];
      W = PatchWord(W, U);
    }
  for (size_t U = 0; U < NumUnits; ++U)
    for (const auto &[Addr, Str] : Units[U]->Strings)
      P.StringAddr.push_back({Addr + Delta[U], Str});

  // Functions: module functions in order, then each unit's lifted closures
  // in unit order. Instruction immediates are patched by tag; MakeClosure
  // operands carrying encoded unit-local lift ordinals (negative) become
  // global indices first, so the general pass sees only small positives.
  // Units stay untouched (a cached unit links into many programs): the
  // patches apply to the program's own copies.
  auto PatchFn = [&](s1::AsmFunction &F, size_t U) {
    for (s1::Instruction &I : F.Code) {
      if (I.Op == Opcode::SYSCALL && I.A.M == Operand::Mode::Imm &&
          I.A.Imm == static_cast<int64_t>(Syscall::MakeClosure) &&
          I.B.Imm < 0)
        I.B.Imm = NumModuleFns + LiftBase[U] + (-1 - I.B.Imm);
      for (Operand *O : {&I.A, &I.B, &I.X})
        if (O->M == Operand::Mode::Imm)
          O->Imm = static_cast<int64_t>(
              PatchWord(static_cast<uint64_t>(O->Imm), U));
    }
  };
  for (size_t U = 0; U < NumUnits; ++U) {
    P.Functions.push_back(Units[U]->Fns[0]);
    PatchFn(P.Functions.back(), U);
  }
  for (size_t U = 0; U < NumUnits; ++U)
    for (size_t L = 1; L < Units[U]->Fns.size(); ++L) {
      P.Functions.push_back(Units[U]->Fns[L]);
      PatchFn(P.Functions.back(), U);
    }

  Result.Program = std::move(P);
  Result.Ok = true;
  for (const s1::AsmFunction &F : Result.Program.Functions) {
    ++NumFunctionsCompiled;
    NumInstructionsEmitted += F.Code.size();
    NumMovsEmitted += F.countOpcode(s1::Opcode::MOV);
  }
  return Result;
}

CompileResult codegen::compileModule(ir::Module &M, const CodegenOptions &Opts) {
  // Pre-assign module-function indices so mutually recursive calls resolve
  // identically in every unit.
  std::unordered_map<std::string, int> FuncIndex;
  for (const auto &F : M.functions())
    FuncIndex[F->name()] = static_cast<int>(FuncIndex.size());

  const size_t NumUnits = M.functions().size();
  std::vector<CompiledUnit> Units(NumUnits);

  // Worker threads leave stats at their default (off); per-unit tallies
  // applied in unit order after the join keep counter totals identical to
  // a serial run.
  std::vector<stats::LocalTally> Tallies(NumUnits);
  const bool Tally = stats::enabled();
  support::parallelFor(NumUnits, Opts.Jobs, [&](size_t U) {
    std::optional<stats::TallyScope> Scope;
    if (Tally)
      Scope.emplace(Tallies[U]);
    Units[U] = compileFunctionUnit(M, *M.functions()[U], Opts, FuncIndex);
  });
  if (Tally)
    for (stats::LocalTally &T : Tallies)
      T.apply();

  std::vector<const CompiledUnit *> UnitPtrs;
  UnitPtrs.reserve(NumUnits);
  for (const CompiledUnit &U : Units)
    UnitPtrs.push_back(&U);
  return linkUnits(M, UnitPtrs);
}
