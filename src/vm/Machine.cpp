//===- vm/Machine.cpp -----------------------------------------------------===//

#include "vm/Machine.h"

#include "sexpr/Numbers.h"
#include "vm/Jit.h"
#include "sexpr/Printer.h"
#include "stats/Stats.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

S1_STAT(VmInstructions, "vm.instructions", "instructions retired");
S1_STAT(VmMovs, "vm.movs", "MOV opcodes retired (the 6.1 metric)");
S1_STAT(VmCalls, "vm.calls", "function calls executed");
S1_STAT(VmTailCalls, "vm.tailcalls", "tail calls executed as jumps");
S1_STAT(VmSyscalls, "vm.syscalls", "runtime (SQ routine) calls");
S1_STAT(VmHeapObjects, "vm.heap.objects", "boxed objects allocated");
S1_STAT(VmHeapWords, "vm.heap.words", "heap words allocated");
S1_STAT(VmStackHighWater, "vm.stack.highwater", "max stack depth in words");
S1_STAT(VmSpecialSearches, "vm.special.searches",
        "deep-binding stack searches");
S1_STAT(VmSpecialSearchSteps, "vm.special.searchsteps",
        "bindings scanned during searches");
S1_STAT(VmGcRuns, "vm.gc.runs", "word-heap collections");
S1_STAT(VmGcWordsReclaimed, "vm.gc.words.reclaimed",
        "heap words reclaimed by the collector");
S1_STAT(VmGcPauseNs, "vm.gc.pause.ns", "total collection pause nanoseconds");
S1_STAT(VmGcPauseMaxNs, "vm.gc.pause.max_ns",
        "longest collection pause in nanoseconds");
S1_STAT(VmJitConsHits, "jit.cons.fast.hits",
        "cons cells bump-allocated by the native tier's inline fast path");
S1_STAT(VmJitConsMisses, "jit.cons.fast.misses",
        "cons allocations that fell back to the C++ allocator");

using namespace s1lisp;
using namespace s1lisp::vm;
using namespace s1lisp::s1;
using sexpr::Value;

namespace {

double asDouble(uint64_t W) {
  double D;
  std::memcpy(&D, &W, sizeof(D));
  return D;
}

uint64_t fromDouble(double D) {
  uint64_t W;
  std::memcpy(&W, &D, sizeof(W));
  return W;
}

/// Return-address words: ((func+1) << 32) | pc, stored raw. Zero is the
/// "return to host" sentinel. The pc half is in the executing engine's
/// units (original index / decoded index); an engine only ever consumes
/// return words it pushed itself, since the engine is fixed per call().
uint64_t makeRetWord(int Func, int Pc) {
  return (static_cast<uint64_t>(Func + 1) << 32) | static_cast<uint32_t>(Pc);
}

/// What every engine's RET raises for a word that is not a return
/// address: it names no function, or a pc past its function's end.
constexpr const char *BadReturnAddress = "bad return address";

bool condHolds(Cond C, int64_t Sign) {
  switch (C) {
  case Cond::EQ:
    return Sign == 0;
  case Cond::NEQ:
    return Sign != 0;
  case Cond::LT:
    return Sign < 0;
  case Cond::GT:
    return Sign > 0;
  case Cond::LE:
    return Sign <= 0;
  case Cond::GE:
    return Sign >= 0;
  }
  return false;
}

} // namespace

std::optional<Engine> vm::engineByName(std::string_view Name) {
  if (Name == "legacy")
    return Engine::Legacy;
  if (Name == "threaded")
    return Engine::Threaded;
  if (Name == "native")
    return Engine::Native;
  return std::nullopt;
}

const char *vm::engineName(Engine E) {
  switch (E) {
  case Engine::Legacy:
    return "legacy";
  case Engine::Native:
    return "native";
  default:
    return "threaded";
  }
}

Machine::Machine(const Program &P, sexpr::SymbolTable &Syms,
                 sexpr::Heap &DecodeHeap)
    : P(P), Syms(Syms), DecodeHeap(DecodeHeap) {
  // Load the static image (the rest of the address space starts zeroed).
  for (size_t I = 0; I < P.Static.size(); ++I)
    Memory[StaticBase + I] = P.Static[I];
  SymbolAddr = P.SymbolAddr;
  for (auto &[Sym, Addr] : P.SymbolAddr)
    AddrSymbol[Addr] = Sym;
  for (auto &[Addr, Str] : P.StringAddr)
    StringContents[Addr] = Str;
}

const std::shared_ptr<const DecodedProgram> &Machine::decodedProgram() {
  if (!Decoded)
    Decoded = predecode(P);
  return Decoded;
}

uint64_t &Machine::mem(uint64_t Addr) {
  static uint64_t Garbage = 0;
  if (Addr >= Memory.size()) {
    Halted = true; // the dispatch loop reports the trap
    return Garbage;
  }
  return Memory[Addr];
}

uint64_t Machine::symbolWord(const sexpr::Symbol *S) {
  auto It = SymbolAddr.find(S);
  if (It != SymbolAddr.end())
    return makePointer(Tag::Symbol, It->second);
  // Symbols unknown to the compiled image get a fresh heap cell.
  uint64_t W = allocate(Tag::Symbol, 1);
  mem(addrOf(W)) = UnboundWord;
  SymbolAddr[S] = addrOf(W);
  AddrSymbol[addrOf(W)] = S;
  return W;
}

uint64_t Machine::trueWord() {
  if (!CachedTWord)
    CachedTWord = symbolWord(Syms.t());
  return CachedTWord;
}

namespace {

// BlockHeader packs a block's size above its 8-bit tag.
static_assert(HeapWords < (1ull << 24), "block sizes must fit a header");

uint32_t blockHeader(Tag T, uint64_t NWords) {
  return static_cast<uint32_t>(NWords << 8) | static_cast<uint8_t>(T);
}
Tag headerTag(uint32_t H) { return static_cast<Tag>(H & 0xFF); }
uint64_t headerWords(uint32_t H) { return H >> 8; }

} // namespace

uint64_t Machine::allocate(Tag T, uint64_t NWords) {
  if (!gcEnabled()) {
    if (NWords > HeapBase + HeapWords - HeapTop) {
      Halted = true;
      return NilWord;
    }
    uint64_t Addr = HeapTop;
    HeapTop += NWords;
    ++Stats.HeapObjects;
    Stats.HeapWordsUsed += NWords;
    return makePointer(T, Addr);
  }
  if (GcInterval && ++AllocsSinceGc >= GcInterval)
    GcPending = true;
  // Exact-size LIFO reuse keeps addresses deterministic across engines.
  uint64_t Addr = popFree(NWords);
  if (Addr) {
    std::fill_n(&Memory[Addr], NWords, 0);
  } else {
    if (NWords > HeapBase + HeapWords - HeapTop) {
      Halted = true;
      return NilWord;
    }
    Addr = HeapTop;
    HeapTop += NWords;
    if (HeapTop - HeapBase > BlockHeader.size())
      growBlockTables(HeapTop - HeapBase);
  }
  // A zero-word block owns no word to mark, free, or link through, so it
  // is not recorded; on a full heap its address is one past every table.
  if (NWords) {
    uint64_t Off = Addr - HeapBase;
    StartBits[Off / 64] |= 1ull << (Off % 64);
    BlockHeader[Off] = blockHeader(T, NWords);
  }
  LiveWords += NWords;
  if (GcBudgetWords && LiveWords >= GcBudgetWords)
    GcPending = true;
  ++Stats.HeapObjects;
  Stats.HeapWordsUsed += NWords;
  return makePointer(T, Addr);
}

void Machine::growBlockTables(uint64_t Words) {
  uint64_t N = std::max<uint64_t>({Words, 2 * BlockHeader.size(), 1024});
  N = std::min<uint64_t>((N + 63) / 64 * 64, HeapWords);
  BlockHeader.resize(N);
  StartBits.resize(N / 64);
  MarkBits.resize(N / 64);
}

uint64_t Machine::popFree(uint64_t NWords) {
  if (NWords < SmallBlockWords) {
    uint64_t Addr = FreeHead[NWords];
    if (Addr)
      FreeHead[NWords] = Memory[Addr];
    return Addr;
  }
  auto It = LargeFreeHead.find(NWords);
  if (It == LargeFreeHead.end())
    return 0;
  uint64_t Addr = It->second;
  if (Memory[Addr])
    It->second = Memory[Addr];
  else
    LargeFreeHead.erase(It);
  return Addr;
}

void Machine::pushFree(uint64_t Addr, uint64_t NWords) {
  uint64_t &Head =
      NWords < SmallBlockWords ? FreeHead[NWords] : LargeFreeHead[NWords];
  Memory[Addr] = Head;
  Head = Addr;
}

void Machine::markWord(uint64_t W, std::vector<uint64_t> &Work) {
  Tag T = tagOf(W);
  if (T == Tag::Nil || T == Tag::Fixnum ||
      static_cast<uint8_t>(T) > static_cast<uint8_t>(Tag::Environment))
    return;
  uint64_t A = addrOf(W);
  if (A < HeapBase || A >= HeapTop || A - HeapBase >= BlockHeader.size())
    return;
  // Certified (§6.3) and otherwise derived pointers may be interior to
  // their block: scan back to the nearest block start.
  uint64_t Off = A - HeapBase;
  uint64_t I = Off / 64;
  uint64_t Bits = StartBits[I] & (~0ull >> (63 - Off % 64));
  while (!Bits) {
    if (I == 0)
      return;
    Bits = StartBits[--I];
  }
  uint64_t Start = I * 64 + std::bit_width(Bits) - 1;
  uint64_t Bit = 1ull << (Start % 64);
  if (Off >= Start + headerWords(BlockHeader[Start]) ||
      (MarkBits[Start / 64] & Bit))
    return;
  MarkBits[Start / 64] |= Bit;
  Work.push_back(Start);
}

void Machine::collectGarbage() {
  auto T0 = std::chrono::steady_clock::now();
  GcPending = false;
  AllocsSinceGc = 0;

  std::vector<uint64_t> Work;
  // Conservative root scan: any word whose tag and address shape say
  // "heap object" pins its block. False positives only delay reclamation;
  // they never corrupt, because nothing moves.
  for (uint64_t R : Regs)
    markWord(R, Work);
  for (uint64_t A = StackBase; A < Regs[SP]; ++A)
    markWord(Memory[A], Work);
  for (uint64_t A = SpecBase; A < SpecTop; ++A)
    markWord(Memory[A], Work);
  for (uint64_t A = StaticBase; A < StaticBase + P.Static.size(); ++A)
    markWord(Memory[A], Work);
  for (const CatchFrame &C : Catches) {
    markWord(C.TagWord, Work);
    markWord(C.Env, Work);
  }
  // Symbol cells are addressable through the C++ symbol registry, so
  // heap-resident cells are permanent roots (their value word is traced).
  for (const auto &[Sym, Addr] : SymbolAddr)
    if (Addr >= HeapBase)
      markWord(makePointer(Tag::Symbol, Addr), Work);
  for (uint64_t W : HostPinned)
    markWord(W, Work);
  markWord(CachedTWord, Work);

  while (!Work.empty()) {
    uint64_t Off = Work.back();
    Work.pop_back();
    uint32_t H = BlockHeader[Off];
    switch (headerTag(H)) {
    case Tag::Cons:
    case Tag::Symbol:
    case Tag::Function:
    case Tag::Environment:
      for (uint64_t J = 0; J < headerWords(H); ++J)
        markWord(Memory[HeapBase + Off + J], Work);
      break;
    default:
      // Raw payloads (flonums, ratios, strings, float arrays): their bit
      // patterns must not be misread as pointers.
      break;
    }
  }

  // Ascending address order, as the free lists' LIFO reuse order depends
  // on it.
  uint64_t Reclaimed = 0;
  for (size_t I = 0; I < StartBits.size(); ++I) {
    uint64_t Dead = StartBits[I] & ~MarkBits[I];
    StartBits[I] = MarkBits[I]; // marks are only ever set on start bits
    MarkBits[I] = 0;
    for (; Dead; Dead &= Dead - 1) {
      uint64_t Off = I * 64 + std::countr_zero(Dead);
      uint32_t H = BlockHeader[Off];
      if (headerTag(H) == Tag::String)
        StringContents.erase(HeapBase + Off);
      pushFree(HeapBase + Off, headerWords(H));
      Reclaimed += headerWords(H);
    }
  }
  LiveWords -= Reclaimed;
  ++Stats.GcRuns;
  Stats.GcWordsReclaimed += Reclaimed;
  uint64_t Ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
  GcPauseNs += Ns;
  GcPauseNsMax = std::max(GcPauseNsMax, Ns);
}

uint64_t Machine::boxFlonum(double D) {
  uint64_t W = allocate(Tag::SingleFlonum, 1);
  mem(addrOf(W)) = fromDouble(D);
  return W;
}

uint64_t Machine::encode(Value V) {
  switch (V.kind()) {
  case sexpr::ValueKind::Nil:
    return NilWord;
  case sexpr::ValueKind::Fixnum:
    assert(V.fixnum() >= INT32_MIN && V.fixnum() <= INT32_MAX &&
           "compiled fixnums are 32-bit immediates");
    return makeFixnum(V.fixnum());
  case sexpr::ValueKind::Flonum:
    return boxFlonum(V.flonum());
  case sexpr::ValueKind::Symbol:
    return symbolWord(V.symbol());
  case sexpr::ValueKind::Ratio: {
    uint64_t W = allocate(Tag::Ratio, 2);
    mem(addrOf(W)) = static_cast<uint64_t>(V.ratio().Num);
    mem(addrOf(W) + 1) = static_cast<uint64_t>(V.ratio().Den);
    return W;
  }
  case sexpr::ValueKind::String: {
    uint64_t W = allocate(Tag::String, 1);
    mem(addrOf(W)) = V.stringValue().size();
    StringContents[addrOf(W)] = V.stringValue();
    return W;
  }
  case sexpr::ValueKind::Cons: {
    uint64_t Car = encode(V.car());
    uint64_t Cdr = encode(V.cdr());
    uint64_t W = allocate(Tag::Cons, 2);
    mem(addrOf(W)) = Car;
    mem(addrOf(W) + 1) = Cdr;
    return W;
  }
  }
  return NilWord;
}

std::optional<Value> Machine::decode(uint64_t Word, unsigned Depth) {
  if (Depth == 0)
    return std::nullopt;
  switch (tagOf(Word)) {
  case Tag::Nil:
    return Value::nil();
  case Tag::Fixnum:
    return Value::fixnum(fixnumValue(Word));
  case Tag::SingleFlonum:
    return Value::flonum(asDouble(Memory[addrOf(Word)]));
  case Tag::Symbol: {
    auto It = AddrSymbol.find(addrOf(Word));
    if (It == AddrSymbol.end())
      return std::nullopt;
    return Value::symbol(It->second);
  }
  case Tag::Ratio:
    return DecodeHeap.makeRatio(static_cast<int64_t>(Memory[addrOf(Word)]),
                                static_cast<int64_t>(Memory[addrOf(Word) + 1]));
  case Tag::String: {
    auto It = StringContents.find(addrOf(Word));
    if (It == StringContents.end())
      return std::nullopt;
    return DecodeHeap.string(It->second);
  }
  case Tag::Cons: {
    auto Car = decode(Memory[addrOf(Word)], Depth - 1);
    if (!Car)
      return std::nullopt;
    // Decoding the cdr can collect the decode heap and free *Car; root it.
    // Rooting is gated like Heap::list: the shadow stack is single-mutator
    // state, and GC-free decode heaps are shared across fuzzing threads.
    sexpr::Heap::RootScope Guard(DecodeHeap);
    if (DecodeHeap.gcEnabled())
      Guard.add(&*Car);
    auto Cdr = decode(Memory[addrOf(Word) + 1], Depth - 1);
    if (!Cdr)
      return std::nullopt;
    return DecodeHeap.cons(*Car, *Cdr);
  }
  default:
    return std::nullopt;
  }
}

bool Machine::setGlobalSpecial(const sexpr::Symbol *Name, Value V) {
  uint64_t SymW = symbolWord(Name);
  mem(addrOf(SymW)) = encode(V);
  return true;
}

uint64_t Machine::makeArrayF(size_t Dim0, size_t Dim1) {
  uint64_t W = allocArrayF(Dim0, Dim1);
  // The host holds this word outside the scanned address space.
  HostPinned.push_back(W);
  return W;
}

uint64_t Machine::allocArrayF(size_t Dim0, size_t Dim1) {
  bool Rank2 = Dim1 != 0;
  size_t D1 = Rank2 ? Dim1 : 1;
  uint64_t W = allocate(Tag::ArrayF, 3 + Dim0 * D1);
  mem(addrOf(W)) = Dim0;
  mem(addrOf(W) + 1) = D1;
  mem(addrOf(W) + 2) = Rank2;
  for (size_t I = 0; I < Dim0 * D1; ++I)
    mem(addrOf(W) + 3 + I) = fromDouble(0.0);
  return W;
}

double Machine::readArrayF(uint64_t ArrayWord, size_t I, size_t J) {
  uint64_t Base = addrOf(ArrayWord);
  return asDouble(Memory[Base + 3 + I * Memory[Base + 1] + J]);
}

void Machine::writeArrayF(uint64_t ArrayWord, size_t I, size_t J, double V) {
  uint64_t Base = addrOf(ArrayWord);
  Memory[Base + 3 + I * Memory[Base + 1] + J] = fromDouble(V);
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

void Machine::publishStats() const {
  VmInstructions += Stats.Instructions;
  VmMovs += Stats.Movs;
  VmCalls += Stats.Calls;
  VmTailCalls += Stats.TailCalls;
  VmSyscalls += Stats.Syscalls;
  VmHeapObjects += Stats.HeapObjects;
  VmHeapWords += Stats.HeapWordsUsed;
  VmStackHighWater.updateMax(Stats.StackHighWater);
  VmSpecialSearches += Stats.SpecialSearches;
  VmSpecialSearchSteps += Stats.SpecialSearchSteps;
  VmGcRuns += Stats.GcRuns;
  VmGcWordsReclaimed += Stats.GcWordsReclaimed;
  VmGcPauseNs += GcPauseNs;
  VmGcPauseMaxNs.updateMax(GcPauseNsMax);
  VmJitConsHits += JitConsHits;
  VmJitConsMisses += JitConsMisses;
}

Machine::RunResult Machine::call(const std::string &Name,
                                 const std::vector<Value> &Args) {
  stats::PhaseTimer Timer("vm.run");
  RunResult R;
  int Idx = P.indexOf(Name);
  if (Idx < 0) {
    R.Error = "undefined compiled function '" + Name + "'";
    return R;
  }
  Regs.fill(0);
  Regs[SP] = StackBase;
  Regs[FP] = StackBase;
  Regs[ENV] = NilWord;
  SpecTop = SpecBase;
  SpecCache.clear();
  Catches.clear();
  Halted = false;

  for (Value A : Args)
    push(encode(A));
  Regs[RTA] = Args.size();
  push(makeRetWord(-1, 0)); // sentinel: return to host

  std::string Error;
  if (!run(Idx, Error)) {
    R.Error = Error;
    return R;
  }
  R.Ok = true;
  R.ResultWord = Regs[RV];
  R.Result = decode(Regs[RV]);
  return R;
}

void Machine::push(uint64_t W) {
  mem(Regs[SP]) = W;
  ++Regs[SP];
  Stats.StackHighWater = std::max(Stats.StackHighWater, Regs[SP] - StackBase);
}

uint64_t Machine::pop() {
  --Regs[SP];
  return mem(Regs[SP]);
}

bool Machine::trap(std::string &Error, const std::string &Msg) {
  Error = Msg;
  if (CurFunc >= 0 && CurFunc < static_cast<int>(P.Functions.size())) {
    int ShowPc = Pc;
    // The threaded and native engines count pcs in decoded units; report
    // them in original assembly-listing units like the legacy engine does.
    // Pc 0 is the same in both, and the only pc a trap can report in a
    // function not yet decoded.
    if (Eng != Engine::Legacy && Decoded && Pc > 0) {
      const DecodedFunction &DF = Decoded->function(CurFunc);
      if (Pc <= static_cast<int>(DF.OrigPc.size()))
        ShowPc = DF.OrigPc[Pc - 1] + 1;
      else
        ShowPc = static_cast<int>(P.Functions[CurFunc].Code.size());
    }
    Error += " [in " + P.Functions[CurFunc].Name + " at pc " +
             std::to_string(ShowPc) + "]";
  }
  Halted = true;
  return false;
}

bool Machine::run(int FuncIndex, std::string &Error) {
  CurFunc = FuncIndex;
  Pc = 0;
  if (Eng == Engine::Native) {
    decodedProgram();
    return runNative(Error);
  }
  if (Eng == Engine::Threaded) {
    decodedProgram(); // build lazily if no shared decode was injected
    return runThreaded(Error);
  }
  return runLegacy(Error);
}

bool Machine::runNative(std::string &Error) {
  if (!Jitted || !Jitted->matches(gcEnabled()) ||
      !Jitted->builtFrom(Decoded.get()))
    Jitted = compileJit(Decoded, {true, gcEnabled()}, *this);
  if (!Jitted) {
    static bool Warned = false;
    if (!Warned) {
      Warned = true;
      std::fprintf(stderr,
                   "s1lisp: warning: --engine=native is unavailable on this "
                   "host (requires x86-64); falling back to the threaded "
                   "engine\n");
    }
    return runThreaded(Error);
  }

  ActiveJit = Jitted.get();
  int St = Jitted->invoke(Regs.data(), &Memory[0], this, Stats.Instructions,
                          Fuel, Jitted->addr(CurFunc, Pc));
  ActiveJit = nullptr;

  switch (static_cast<JitStatus>(St)) {
  case JitStatus::Ok:
    CurFunc = -1; // back to host
    Pc = 0;
    return true;
  case JitStatus::Handoff:
    // The block at CurFunc/Pc does not fit in the remaining fuel, or
    // control fell off the end: the threaded loop retires what is left
    // and raises the exact trap.
    return runThreaded(Error);
  case JitStatus::HaltedMem:
    return trap(Error,
                "machine halted unexpectedly (memory fault or heap full)");
  case JitStatus::StackOv:
    return trap(Error, "stack overflow");
  case JitStatus::Div0:
    return trap(Error, rtErrorMessage(RtError::DivisionByZero));
  case JitStatus::SyscallErr:
    // doSyscall already formatted the trap (with location) and halted.
    Error = std::move(NativeError);
    NativeError.clear();
    return false;
  case JitStatus::Halt:
    return trap(Error, "HALT executed");
  case JitStatus::TailOv:
    return trap(Error, "tail call passes more arguments than the frame holds");
  case JitStatus::HeapExh:
    return trap(Error, "heap exhausted");
  case JitStatus::NotFunc:
    return trap(Error, rtErrorMessage(RtError::NotAFunction));
  case JitStatus::FixOv:
    return trap(Error, "fixnum overflow (compiled fixnums are 32-bit)");
  case JitStatus::BadRet:
    return trap(Error, BadReturnAddress);
  }
  return trap(Error, "native engine returned an unknown status");
}

bool Machine::runLegacy(std::string &Error) {
  while (!Halted) {
    if (Stats.Instructions >= Fuel)
      return trap(Error, "instruction fuel exhausted");
    // Scheduled collections run only at instruction boundaries — mirrored
    // exactly in the threaded loop so both engines collect at identical
    // retirement points.
    if (GcPending)
      collectGarbage();
    if (!step(Error))
      return false;
    if (CurFunc == -1)
      return true; // returned to host
  }
  return trap(Error, "machine halted unexpectedly (memory fault or heap full)");
}

uint64_t Machine::effectiveAddress(const Operand &O) {
  assert(O.M == Operand::Mode::Mem && "EA of a non-memory operand");
  uint64_t Base = addrOf(Regs[O.R]);
  int64_t Idx = 0;
  if (O.Index != 0xFF)
    Idx = static_cast<int64_t>(Regs[O.Index]) << O.Scale;
  return Base + static_cast<uint64_t>(O.Imm + Idx);
}

uint64_t Machine::read(const Operand &O) {
  switch (O.M) {
  case Operand::Mode::Reg:
    return Regs[O.R];
  case Operand::Mode::Imm:
    return static_cast<uint64_t>(O.Imm);
  case Operand::Mode::FImm:
    return fromDouble(O.F);
  case Operand::Mode::Mem:
    return mem(effectiveAddress(O));
  default:
    assert(false && "unreadable operand");
    return 0;
  }
}

void Machine::write(const Operand &O, uint64_t V) {
  switch (O.M) {
  case Operand::Mode::Reg:
    Regs[O.R] = V;
    return;
  case Operand::Mode::Mem:
    mem(effectiveAddress(O)) = V;
    return;
  default:
    assert(false && "unwritable operand");
  }
}

bool Machine::step(std::string &Error) {
  const AsmFunction &F = P.Functions[CurFunc];
  // LABELs are pseudo-ops: branches land on them, but they retire no
  // instruction (and cost no fuel) — skip before fetching, exactly as the
  // pre-decode pass strips them for the threaded engine.
  while (Pc >= 0 && Pc < static_cast<int>(F.Code.size()) &&
         F.Code[Pc].Op == Opcode::LABEL)
    ++Pc;
  if (Pc < 0 || Pc >= static_cast<int>(F.Code.size()))
    return trap(Error, "pc out of range");
  const Instruction &I = F.Code[Pc++];
  ++Stats.Instructions;
  ++Stats.PerOpcode[static_cast<size_t>(I.Op)];

  switch (I.Op) {
  case Opcode::LABEL: // unreachable: skipped before fetch
    return trap(Error, "LABEL retired as an instruction");
  case Opcode::HALT:
    return trap(Error, "HALT executed");

  case Opcode::MOV:
    ++Stats.Movs;
    write(I.A, read(I.B));
    return true;

  case Opcode::MOVTAG: {
    uint64_t Addr = I.B.M == Operand::Mode::Mem ? effectiveAddress(I.B)
                                                : addrOf(read(I.B));
    write(I.A, makePointer(static_cast<Tag>(I.X.Imm), Addr));
    return true;
  }

  case Opcode::GETTAG:
    write(I.A, static_cast<uint64_t>(tagOf(read(I.B))));
    return true;

  case Opcode::LEA:
    write(I.A, effectiveAddress(I.B));
    return true;

  case Opcode::PUSH:
    if (Regs[SP] + 1 >= StackBase + StackWords)
      return trap(Error, "stack overflow");
    push(read(I.A));
    return true;

  case Opcode::POP:
    write(I.A, pop());
    return true;

  case Opcode::ADD:
  case Opcode::SUB:
  case Opcode::MULT:
  case Opcode::DIV: {
    bool TwoOp = I.X.M == Operand::Mode::None;
    int64_t A = static_cast<int64_t>(read(TwoOp ? I.A : I.B));
    int64_t B = static_cast<int64_t>(read(TwoOp ? I.B : I.X));
    int64_t R;
    switch (I.Op) {
    case Opcode::ADD:
      R = A + B;
      break;
    case Opcode::SUB:
      R = A - B;
      break;
    case Opcode::MULT:
      R = A * B;
      break;
    default:
      if (B == 0)
        return trap(Error, rtErrorMessage(RtError::DivisionByZero));
      R = A / B;
      break;
    }
    write(I.A, static_cast<uint64_t>(R));
    return true;
  }

  case Opcode::FADD:
  case Opcode::FSUB:
  case Opcode::FMULT:
  case Opcode::FDIV:
  case Opcode::FMAX:
  case Opcode::FMIN: {
    bool TwoOp = I.X.M == Operand::Mode::None;
    double A = asDouble(read(TwoOp ? I.A : I.B));
    double B = asDouble(read(TwoOp ? I.B : I.X));
    double R;
    switch (I.Op) {
    case Opcode::FADD:
      R = A + B;
      break;
    case Opcode::FSUB:
      R = A - B;
      break;
    case Opcode::FMULT:
      R = A * B;
      break;
    case Opcode::FDIV:
      R = A / B;
      break;
    case Opcode::FMAX:
      R = std::max(A, B);
      break;
    default:
      R = std::min(A, B);
      break;
    }
    write(I.A, fromDouble(R));
    return true;
  }

  case Opcode::FNEG:
  case Opcode::FABS:
  case Opcode::FSQRT:
  case Opcode::FSIN:
  case Opcode::FCOS:
  case Opcode::FEXP:
  case Opcode::FLOG: {
    double X = asDouble(read(I.B));
    double R;
    switch (I.Op) {
    case Opcode::FNEG:
      R = -X;
      break;
    case Opcode::FABS:
      R = std::fabs(X);
      break;
    case Opcode::FSQRT:
      R = std::sqrt(X);
      break;
    case Opcode::FSIN:
      R = std::sin(X * 2.0 * M_PI); // the S-1 trig unit takes cycles
      break;
    case Opcode::FCOS:
      R = std::cos(X * 2.0 * M_PI);
      break;
    case Opcode::FEXP:
      R = std::exp(X);
      break;
    default:
      R = std::log(X);
      break;
    }
    write(I.A, fromDouble(R));
    return true;
  }

  case Opcode::FATAN: {
    double Y = asDouble(read(I.B));
    double X = asDouble(read(I.X));
    write(I.A, fromDouble(std::atan2(Y, X)));
    return true;
  }

  case Opcode::ITOF:
    write(I.A, fromDouble(static_cast<double>(static_cast<int64_t>(read(I.B)))));
    return true;
  case Opcode::FTOI:
    write(I.A, static_cast<uint64_t>(static_cast<int64_t>(asDouble(read(I.B)))));
    return true;

  case Opcode::JMPA:
    Pc = F.LabelPos[I.A.Label];
    return true;

  case Opcode::JMPZ: {
    int64_t A = static_cast<int64_t>(read(I.A));
    int64_t B = static_cast<int64_t>(read(I.B));
    int64_t Sign = A < B ? -1 : (A > B ? 1 : 0);
    if (condHolds(I.C, Sign))
      Pc = F.LabelPos[I.X.Label];
    return true;
  }

  case Opcode::FJMPZ: {
    double A = asDouble(read(I.A));
    double B = asDouble(read(I.B));
    int64_t Sign = A < B ? -1 : (A > B ? 1 : 0);
    if ((std::isnan(A) || std::isnan(B)) ? I.C == Cond::NEQ : condHolds(I.C, Sign))
      Pc = F.LabelPos[I.X.Label];
    return true;
  }

  case Opcode::CALL: {
    ++Stats.Calls;
    if (Regs[SP] + 4 >= StackBase + StackWords)
      return trap(Error, "stack overflow");
    push(makeRetWord(CurFunc, Pc));
    CurFunc = static_cast<int>(I.A.Imm);
    Pc = 0;
    return true;
  }

  case Opcode::CALLPTR: {
    ++Stats.Calls;
    uint64_t Fn = read(I.A);
    if (tagOf(Fn) != Tag::Function)
      return trap(Error, rtErrorMessage(RtError::NotAFunction));
    Regs[1] = mem(addrOf(Fn) + 1); // closure environment for the prologue
    push(makeRetWord(CurFunc, Pc));
    CurFunc = static_cast<int>(mem(addrOf(Fn)));
    Pc = 0;
    return true;
  }

  case Opcode::TAILCALL:
  case Opcode::TAILCALLPTR: {
    ++Stats.TailCalls;
    int Target;
    uint64_t K;
    if (I.Op == Opcode::TAILCALL) {
      K = static_cast<uint64_t>(I.A.Imm);
      Target = static_cast<int>(I.B.Imm);
    } else {
      K = static_cast<uint64_t>(I.B.Imm);
      uint64_t Fn = read(I.A);
      if (tagOf(Fn) != Tag::Function)
        return trap(Error, rtErrorMessage(RtError::NotAFunction));
      Regs[1] = mem(addrOf(Fn) + 1);
      Target = static_cast<int>(mem(addrOf(Fn)));
    }
    // New args were computed at the stack top. The original caller pops
    // exactly the arguments it pushed after the eventual return, so the
    // return word must stay put at FP-2 no matter how many arguments this
    // activation received: the K new arguments are placed right-justified
    // against it. Codegen only emits a tail call when K is at most the
    // current function's minimum arity, so they always fit inside the
    // activation's own argument area (slot FP+1 holds the received count).
    if (K > mem(Regs[FP] + 1))
      return trap(Error, "tail call passes more arguments than the frame holds");
    uint64_t ArgBase = Regs[FP] - 2 - K;
    uint64_t OldFp = mem(Regs[FP] - 1);
    Regs[ENV] = mem(Regs[FP] + 0);
    for (uint64_t J = 0; J < K; ++J)
      mem(ArgBase + J) = mem(Regs[SP] - K + J);
    Regs[SP] = Regs[FP] - 1;
    Regs[FP] = OldFp;
    Regs[RTA] = K;
    CurFunc = Target;
    Pc = 0;
    return true;
  }

  case Opcode::RET: {
    uint64_t RetW = pop();
    if (RetW == makeRetWord(-1, 0)) {
      CurFunc = -1; // back to host
      return true;
    }
    const uint64_t Fn = (RetW >> 32) - 1, RetPc = RetW & 0xFFFFFFFF;
    if (Fn >= P.Functions.size() || RetPc > P.Functions[Fn].Code.size())
      return trap(Error, BadReturnAddress);
    CurFunc = static_cast<int>(Fn);
    Pc = static_cast<int>(RetPc);
    return true;
  }

  case Opcode::ALLOC: {
    uint64_t W = allocate(static_cast<Tag>(I.B.Imm), static_cast<uint64_t>(I.X.Imm));
    if (Halted)
      return trap(Error, "heap exhausted");
    write(I.A, W);
    return true;
  }

  case Opcode::SYSCALL: {
    ++Stats.Syscalls;
    Syscall S = static_cast<Syscall>(I.A.Imm);
    int HandlerPc = S == Syscall::PushCatch
                        ? F.LabelPos[static_cast<int>(I.B.Imm)]
                        : -1;
    return doSyscall(S, I.B.Imm, I.X.Imm, HandlerPc, Error);
  }
  }
  return trap(Error, "unimplemented opcode");
}

//===----------------------------------------------------------------------===//
// Threaded engine
//===----------------------------------------------------------------------===//

uint64_t Machine::xea(const XMem &M) {
  uint64_t Base = addrOf(Regs[M.Base]);
  int64_t Idx = 0;
  if (M.Index != 0xFF)
    Idx = static_cast<int64_t>(Regs[M.Index]) << M.Scale;
  return Base + static_cast<uint64_t>(M.Disp + Idx);
}

uint64_t Machine::xread(const XArg &A) {
  switch (A.M) {
  case XArg::Mode::Reg:
    return Regs[A.R];
  case XArg::Mode::Const:
    return A.K;
  case XArg::Mode::Mem:
    return mem(xea(A.Mem));
  default:
    assert(false && "unreadable operand");
    return 0;
  }
}

void Machine::xwrite(const XArg &A, uint64_t V) {
  switch (A.M) {
  case XArg::Mode::Reg:
    Regs[A.R] = V;
    return;
  case XArg::Mode::Mem:
    mem(xea(A.Mem)) = V;
    return;
  default:
    assert(false && "unwritable operand");
  }
}

[[gnu::always_inline]] inline int Machine::execCold(XOp Op, const XInsn &I) {
  switch (Op) {
  case XOp::PopM: {
    uint64_t V = pop();
    xwrite(I.GA, V);
    return 0;
  }
  case XOp::Alu2G:
  case XOp::Alu3G: {
    bool Three = Op == XOp::Alu3G;
    int64_t A = static_cast<int64_t>(xread(Three ? I.GB : I.GA));
    int64_t B = static_cast<int64_t>(xread(Three ? I.GX : I.GB));
    int64_t R;
    switch (I.OrigOp) {
    case Opcode::ADD:
      R = A + B;
      break;
    case Opcode::SUB:
      R = A - B;
      break;
    case Opcode::MULT:
      R = A * B;
      break;
    default:
      if (B == 0)
        return -1;
      R = A / B;
      break;
    }
    xwrite(I.GA, static_cast<uint64_t>(R));
    return 0;
  }
  case XOp::JmpzG: {
    int64_t A = static_cast<int64_t>(xread(I.GA));
    int64_t B = static_cast<int64_t>(xread(I.GB));
    return condHolds(I.C, A < B ? -1 : (A > B ? 1 : 0)) ? 1 : 0;
  }
  case XOp::FJmpzG: {
    double A = asDouble(xread(I.GA));
    double B = asDouble(xread(I.GB));
    int64_t Sign = A < B ? -1 : (A > B ? 1 : 0);
    bool Taken = (std::isnan(A) || std::isnan(B)) ? I.C == Cond::NEQ
                                                  : condHolds(I.C, Sign);
    return Taken ? 1 : 0;
  }
  case XOp::MovTag: {
    uint64_t Addr =
        I.GB.M == XArg::Mode::Mem ? xea(I.GB.Mem) : addrOf(xread(I.GB));
    xwrite(I.GA, makePointer(static_cast<Tag>(I.S1), Addr));
    return 0;
  }
  case XOp::GetTag:
    xwrite(I.GA, static_cast<uint64_t>(tagOf(xread(I.GB))));
    return 0;
  case XOp::Lea:
    xwrite(I.GA, xea(I.GB.Mem));
    return 0;
  case XOp::FAlu2:
  case XOp::FAlu3: {
    bool Three = Op == XOp::FAlu3;
    double A = asDouble(xread(Three ? I.GB : I.GA));
    double B = asDouble(xread(Three ? I.GX : I.GB));
    double R;
    switch (I.OrigOp) {
    case Opcode::FADD:
      R = A + B;
      break;
    case Opcode::FSUB:
      R = A - B;
      break;
    case Opcode::FMULT:
      R = A * B;
      break;
    case Opcode::FDIV:
      R = A / B;
      break;
    case Opcode::FMAX:
      R = std::max(A, B);
      break;
    default:
      R = std::min(A, B);
      break;
    }
    xwrite(I.GA, fromDouble(R));
    return 0;
  }
  case XOp::FUnary: {
    double X = asDouble(xread(I.GB));
    double R;
    switch (I.OrigOp) {
    case Opcode::FNEG:
      R = -X;
      break;
    case Opcode::FABS:
      R = std::fabs(X);
      break;
    case Opcode::FSQRT:
      R = std::sqrt(X);
      break;
    case Opcode::FSIN:
      R = std::sin(X * 2.0 * M_PI); // the S-1 trig unit takes cycles
      break;
    case Opcode::FCOS:
      R = std::cos(X * 2.0 * M_PI);
      break;
    case Opcode::FEXP:
      R = std::exp(X);
      break;
    default:
      R = std::log(X);
      break;
    }
    xwrite(I.GA, fromDouble(R));
    return 0;
  }
  case XOp::FAtan: {
    double Y = asDouble(xread(I.GB));
    double X = asDouble(xread(I.GX));
    xwrite(I.GA, fromDouble(std::atan2(Y, X)));
    return 0;
  }
  case XOp::Itof:
    xwrite(I.GA, fromDouble(static_cast<double>(
                     static_cast<int64_t>(xread(I.GB)))));
    return 0;
  case XOp::Ftoi:
    xwrite(I.GA, static_cast<uint64_t>(
                     static_cast<int64_t>(asDouble(xread(I.GB)))));
    return 0;
  default:
    assert(false && "hot op routed to the cold executor");
    return 0;
  }
}

int Machine::coldOp(const XInsn &I) { return execCold(I.Op, I); }

void Machine::decodeOnEntry(const XInsn &Stub) {
  --Stats.Instructions;
  --Stats.PerOpcode[static_cast<size_t>(Stub.OrigOp)];
  Decoded->function(CurFunc);
}

inline bool Machine::fastSyscall(Syscall S, int64_t SubCode) {
  // Operands are peeked, B (pushed last) at Sp-1 and A below it (a unary
  // call's A is B), and popped only once the call is handled. Exact
  // 64-bit arithmetic on 32-bit inputs cannot wrap; a result outside 32
  // bits declines, and doSyscall's general route raises the trap.
  uint64_t N;
  switch (S) {
  case Syscall::GenericAdd:
  case Syscall::GenericSub:
  case Syscall::GenericMul:
  case Syscall::GenericCompare:
  case Syscall::Cons:
    N = 2;
    break;
  case Syscall::GenericUnary:
  case Syscall::GenericNumPred:
    N = 1;
    break;
  default:
    return false;
  }
  const uint64_t Sp = Regs[SP];
  if (Sp < N || Sp > Memory.size())
    return false;
  const uint64_t AW = Memory[Sp - N], BW = Memory[Sp - 1];
  if (S == Syscall::Cons) {
    Regs[SP] = Sp - 2;
    uint64_t W = allocate(Tag::Cons, 2);
    mem(addrOf(W)) = AW;
    mem(addrOf(W) + 1) = BW;
    Regs[RV] = W;
    return true;
  }
  if (tagOf(AW) != Tag::Fixnum || tagOf(BW) != Tag::Fixnum)
    return false;
  const int64_t A = fixnumValue(AW), B = fixnumValue(BW);
  int64_t R;
  switch (S) {
  case Syscall::GenericAdd:
    R = A + B;
    break;
  case Syscall::GenericSub:
    R = A - B;
    break;
  case Syscall::GenericMul:
    R = A * B;
    break;
  case Syscall::GenericUnary:
    switch (static_cast<UnaryCode>(SubCode)) {
    case UnaryCode::Neg:
      R = -A;
      break;
    case UnaryCode::Abs:
      R = A < 0 ? -A : A;
      break;
    case UnaryCode::Add1:
      R = A + 1;
      break;
    case UnaryCode::Sub1:
      R = A - 1;
      break;
    default: // Sqrt / ToFloat produce flonums
      return false;
    }
    break;
  default: {
    // A compare holds at the signs of A - B its condition's mask names;
    // zerop, plusp and minusp compare A with 0 the same way.
    bool T;
    if (S == Syscall::GenericCompare) {
      const Cond C = static_cast<Cond>(SubCode);
      if (C > Cond::GE)
        return false;
      T = (takenMask(C) >> ((A > B) - (A < B) + 1)) & 1;
    } else {
      switch (static_cast<PredCode>(SubCode)) {
      case PredCode::Oddp:
        T = (A & 1) != 0;
        break;
      case PredCode::Evenp:
        T = (A & 1) == 0;
        break;
      case PredCode::Zerop:
        T = A == 0;
        break;
      case PredCode::Plusp:
        T = A > 0;
        break;
      default:
        T = A < 0;
        break;
      }
    }
    Regs[SP] = Sp - N;
    Regs[RV] = T ? trueWord() : NilWord;
    return true;
  }
  }
  if (R < INT32_MIN || R > INT32_MAX)
    return false;
  Regs[SP] = Sp - N;
  Regs[RV] = makeFixnum(R);
  return true;
}

bool Machine::runThreaded(std::string &Error) {
  const DecodedProgram &DP = *Decoded;
  const XInsn *Code = nullptr;
  int Size = 0;
  // An undecoded function's entry is the decode stub (H_Decode). Code,
  // Size and LPc must stay in registers: a helper that captures them
  // and is not inlined costs the dispatch a store and a load per
  // instruction, hence always_inline.
  auto Reload = [&]() __attribute__((always_inline)) {
    const DecodedProgram::Entry &E = DP.entry(CurFunc);
    Code = E.Code.load(std::memory_order_acquire);
    Size = E.Size.load(std::memory_order_relaxed);
  };
  Reload();
  int LPc = Pc;
  // One past the last instruction the current block entry charged.
  int BlockEnd = 0;
  const XInsn *I = nullptr;

  // Performs the frame surgery shared by TAILCALL/TAILCALLPTR; returns
  // false when the argument count cannot fit (the caller traps).
  auto TailTransfer = [&](uint64_t K, int Target)
                          __attribute__((always_inline)) -> bool {
    if (K > mem(Regs[FP] + 1))
      return false;
    uint64_t ArgBase = Regs[FP] - 2 - K;
    uint64_t OldFp = mem(Regs[FP] - 1);
    Regs[ENV] = mem(Regs[FP] + 0);
    for (uint64_t J = 0; J < K; ++J)
      mem(ArgBase + J) = mem(Regs[SP] - K + J);
    Regs[SP] = Regs[FP] - 1;
    Regs[FP] = OldFp;
    Regs[RTA] = K;
    CurFunc = Target;
    Reload();
    LPc = 0;
    return true;
  };

  auto EaS = [&](const XMem &M) {
    return addrOf(Regs[M.Base]) + static_cast<uint64_t>(M.Disp);
  };
  auto EaX = [&](const XMem &M) {
    return addrOf(Regs[M.Base]) +
           static_cast<uint64_t>(M.Disp +
                                 (static_cast<int64_t>(Regs[M.Index]) << M.Scale));
  };

  // Dispatch by computed goto (GNU labels-as-values, which GCC and Clang
  // provide). A straight-line handler ends in `goto Next` (`goto
  // NextInBlock` if it touches no memory, so cannot fault), which runs
  // the next instruction of its block directly; a control transfer ends
  // in `continue`, back to the block entry at the top of the loop. Must
  // match the XOp enumerator order exactly.
  static const void *Table[] = {
      &&H_MovRR,  &&H_MovRK,  &&H_MovRM,  &&H_MovRX,
      &&H_MovMR,  &&H_MovMK,  &&H_MovMM,  &&H_MovMX,
      &&H_MovXR,  &&H_MovXK,  &&H_MovXM,  &&H_MovXX,
      &&H_PushR,  &&H_PushK,  &&H_PushM,  &&H_PushX,
      &&H_PopR,   &&H_PopM,
      &&H_AddRR,  &&H_AddRK,  &&H_SubRR,  &&H_SubRK,
      &&H_Alu2G,  &&H_Alu3G,
      &&H_Jmp,    &&H_JmpzRR, &&H_JmpzRK, &&H_JmpzG,  &&H_FJmpzG,
      &&H_Call,   &&H_CallPtr, &&H_TailCall, &&H_TailCallPtr, &&H_Ret,
      &&H_MovTag, &&H_GetTag, &&H_Lea,
      &&H_FAlu2,  &&H_FAlu3,  &&H_FUnary, &&H_FAtan,  &&H_Itof, &&H_Ftoi,
      &&H_Alloc,  &&H_Syscall, &&H_Halt,   &&H_Decode,
  };
  static_assert(std::size(Table) == static_cast<size_t>(XOp::Decode) + 1);

  for (;;) {
    // Block entry. Identical trap ordering to runLegacy's per-instruction
    // boundary: halted, fuel, pending collection, pc range. Inside a
    // block none of them can change: the block's instructions are
    // charged here, only allocations and syscalls (which end blocks)
    // raise GcPending, and a memory fault is caught before the next
    // instruction.
    if (Halted) {
      Pc = LPc;
      return trap(Error,
                  "machine halted unexpectedly (memory fault or heap full)");
    }
    if (Stats.Instructions >= Fuel) {
      Pc = LPc;
      return trap(Error, "instruction fuel exhausted");
    }
    if (GcPending)
      collectGarbage();
    if (LPc < 0 || LPc >= Size) {
      // Legacy skips trailing labels before it traps, so past the end it
      // reports the function's original length: trap() maps any pc
      // beyond the decoded code there.
      Pc = LPc < 0 ? LPc : Size + 1;
      return trap(Error, "pc out of range");
    }
    // Charge the rest of the block when it fits in the remaining fuel;
    // otherwise step one instruction, so the fuel trap lands exactly at
    // the boundary where legacy raises it.
    I = &Code[LPc];
    {
      const uint64_t Run = static_cast<uint64_t>(I->Run);
      const uint64_t Charge = Run <= Fuel - Stats.Instructions ? Run : 1;
      Stats.Instructions += Charge;
      BlockEnd = LPc + static_cast<int>(Charge);
    }
    goto Execute;

  Dispatch:
    I = &Code[LPc];
  Execute:
    ++LPc;
    ++Stats.PerOpcode[static_cast<size_t>(I->OrigOp)];
    goto *Table[static_cast<size_t>(I->Op)];

  Next:
    if (Halted) {
      // A memory fault: un-charge the block's unexecuted tail; the block
      // entry then reports the fault.
      Stats.Instructions -= static_cast<uint64_t>(BlockEnd - LPc);
      continue;
    }
  NextInBlock: // from the handlers that touch no memory
    if (LPc != BlockEnd)
      goto Dispatch;
    continue;

    H_MovRR: {
      ++Stats.Movs;
      Regs[I->A] = Regs[I->B];
    }
    goto NextInBlock;

    H_MovRK: {
      ++Stats.Movs;
      Regs[I->A] = I->K;
    }
    goto NextInBlock;

    H_MovRM: {
      ++Stats.Movs;
      Regs[I->A] = mem(EaS(I->MB));
    }
    goto Next;

    H_MovRX: {
      ++Stats.Movs;
      Regs[I->A] = mem(EaX(I->MB));
    }
    goto Next;

    H_MovMR: {
      ++Stats.Movs;
      mem(EaS(I->MA)) = Regs[I->B];
    }
    goto Next;

    H_MovMK: {
      ++Stats.Movs;
      mem(EaS(I->MA)) = I->K;
    }
    goto Next;

    H_MovMM: {
      ++Stats.Movs;
      uint64_t V = mem(EaS(I->MB));
      mem(EaS(I->MA)) = V;
    }
    goto Next;

    H_MovMX: {
      ++Stats.Movs;
      uint64_t V = mem(EaX(I->MB));
      mem(EaS(I->MA)) = V;
    }
    goto Next;

    H_MovXR: {
      ++Stats.Movs;
      mem(EaX(I->MA)) = Regs[I->B];
    }
    goto Next;

    H_MovXK: {
      ++Stats.Movs;
      mem(EaX(I->MA)) = I->K;
    }
    goto Next;

    H_MovXM: {
      ++Stats.Movs;
      uint64_t V = mem(EaS(I->MB));
      mem(EaX(I->MA)) = V;
    }
    goto Next;

    H_MovXX: {
      ++Stats.Movs;
      uint64_t V = mem(EaX(I->MB));
      mem(EaX(I->MA)) = V;
    }
    goto Next;

    // A trap inside a block un-charges the block's unexecuted tail first.
#define S1_PUSH(op, value)                                                     \
  H_##op: {                                                                    \
    if (Regs[SP] + 1 >= StackBase + StackWords) {                              \
      Stats.Instructions -= static_cast<uint64_t>(BlockEnd - LPc);             \
      Pc = LPc;                                                                \
      return trap(Error, "stack overflow");                                    \
    }                                                                          \
    push(value);                                                               \
  }                                                                            \
  goto Next;
    S1_PUSH(PushR, Regs[I->B])
    S1_PUSH(PushK, I->K)
    S1_PUSH(PushM, mem(EaS(I->MB)))
    S1_PUSH(PushX, mem(EaX(I->MB)))
#undef S1_PUSH

    H_PopR: {
      Regs[I->A] = pop();
    }
    goto Next;

    H_AddRR: {
      Regs[I->A] = static_cast<uint64_t>(static_cast<int64_t>(Regs[I->A]) +
                                         static_cast<int64_t>(Regs[I->B]));
    }
    goto NextInBlock;

    H_AddRK: {
      Regs[I->A] = static_cast<uint64_t>(static_cast<int64_t>(Regs[I->A]) +
                                         static_cast<int64_t>(I->K));
    }
    goto NextInBlock;

    H_SubRR: {
      Regs[I->A] = static_cast<uint64_t>(static_cast<int64_t>(Regs[I->A]) -
                                         static_cast<int64_t>(Regs[I->B]));
    }
    goto NextInBlock;

    H_SubRK: {
      Regs[I->A] = static_cast<uint64_t>(static_cast<int64_t>(Regs[I->A]) -
                                         static_cast<int64_t>(I->K));
    }
    goto NextInBlock;

    H_Jmp: {
      LPc = I->Target;
    }
    continue;

    // The branch is taken when bit Sign+1 of the decoded mask is set.
    H_JmpzRR: {
      int64_t A = static_cast<int64_t>(Regs[I->A]);
      int64_t B = static_cast<int64_t>(Regs[I->B]);
      if ((I->TakenMask >> ((A > B) - (A < B) + 1)) & 1)
        LPc = I->Target;
    }
    continue;

    H_JmpzRK: {
      int64_t A = static_cast<int64_t>(Regs[I->A]);
      int64_t B = static_cast<int64_t>(I->K);
      if ((I->TakenMask >> ((A > B) - (A < B) + 1)) & 1)
        LPc = I->Target;
    }
    continue;

    H_Call: {
      ++Stats.Calls;
      if (Regs[SP] + 4 >= StackBase + StackWords) {
        Pc = LPc;
        return trap(Error, "stack overflow");
      }
      push(makeRetWord(CurFunc, LPc));
      CurFunc = I->Target;
      Reload();
      LPc = 0;
    }
    continue;

    H_CallPtr: {
      ++Stats.Calls;
      uint64_t Fn = xread(I->GA);
      if (tagOf(Fn) != Tag::Function) {
        Pc = LPc;
        return trap(Error, rtErrorMessage(RtError::NotAFunction));
      }
      Regs[1] = mem(addrOf(Fn) + 1); // closure environment for the prologue
      push(makeRetWord(CurFunc, LPc));
      CurFunc = static_cast<int>(mem(addrOf(Fn)));
      Reload();
      LPc = 0;
    }
    continue;

    H_TailCall: {
      ++Stats.TailCalls;
      if (!TailTransfer(static_cast<uint64_t>(I->S2), I->Target)) {
        Pc = LPc;
        return trap(Error,
                    "tail call passes more arguments than the frame holds");
      }
    }
    continue;

    H_TailCallPtr: {
      ++Stats.TailCalls;
      uint64_t Fn = xread(I->GA);
      if (tagOf(Fn) != Tag::Function) {
        Pc = LPc;
        return trap(Error, rtErrorMessage(RtError::NotAFunction));
      }
      Regs[1] = mem(addrOf(Fn) + 1);
      if (!TailTransfer(static_cast<uint64_t>(I->S2),
                        static_cast<int>(mem(addrOf(Fn))))) {
        Pc = LPc;
        return trap(Error,
                    "tail call passes more arguments than the frame holds");
      }
    }
    continue;

    H_Ret: {
      uint64_t RetW = pop();
      if (RetW == makeRetWord(-1, 0)) {
        CurFunc = -1; // back to host
        Pc = 0;
        return true;
      }
      // Only a word no CALL pushed can fail this check. Until a function
      // is decoded its entry's Size is the decode stub's 1, so a pc at or
      // past Size is measured against the decoded function.
      const uint64_t Fn = (RetW >> 32) - 1, RetPc = RetW & 0xFFFFFFFF;
      bool Valid = Fn < DP.size();
      if (Valid) {
        const int F = static_cast<int>(Fn);
        const int32_t EntrySize =
            DP.entry(F).Size.load(std::memory_order_relaxed);
        Valid = RetPc < static_cast<uint64_t>(EntrySize) ||
                RetPc <= DP.function(F).Code.size();
      }
      if (!Valid) {
        Pc = LPc;
        return trap(Error, BadReturnAddress);
      }
      CurFunc = static_cast<int>(Fn);
      LPc = static_cast<int>(RetPc);
      Reload();
    }
    continue;

    // The cold ops share one definition with the native tier's coldShim;
    // inlined with a constant op, the executor's switch folds away. A
    // taken branch goes back to the block entry.
#define S1_COLD(op)                                                            \
  H_##op: {                                                                    \
    int R = execCold(XOp::op, *I);                                             \
    if (R > 0) {                                                               \
      LPc = I->Target;                                                         \
      continue;                                                                \
    }                                                                          \
    if (R < 0) {                                                               \
      Stats.Instructions -= static_cast<uint64_t>(BlockEnd - LPc);             \
      Pc = LPc;                                                                \
      return trap(Error, rtErrorMessage(RtError::DivisionByZero));             \
    }                                                                          \
  }                                                                            \
  goto Next;
    S1_COLD(PopM)
    S1_COLD(Alu2G)
    S1_COLD(Alu3G)
    S1_COLD(JmpzG)
    S1_COLD(FJmpzG)
    S1_COLD(MovTag)
    S1_COLD(GetTag)
    S1_COLD(Lea)
    S1_COLD(FAlu2)
    S1_COLD(FAlu3)
    S1_COLD(FUnary)
    S1_COLD(FAtan)
    S1_COLD(Itof)
    S1_COLD(Ftoi)
#undef S1_COLD

    H_Alloc: {
      uint64_t W = allocate(static_cast<Tag>(I->S1),
                            static_cast<uint64_t>(I->S2));
      if (Halted) {
        Pc = LPc;
        return trap(Error, "heap exhausted");
      }
      xwrite(I->GA, W);
    }
    continue;

    H_Syscall: {
      ++Stats.Syscalls;
      // Each selector with a fast path passes fastSyscall a constant, so
      // the compiler folds it to that selector's case and inlines it here.
      switch (static_cast<Syscall>(I->S1)) {
#define S1_FAST(s)                                                             \
  case Syscall::s:                                                             \
    if (fastSyscall(Syscall::s, I->S2))                                        \
      continue;                                                                \
    break;
        S1_FAST(GenericAdd)
        S1_FAST(GenericSub)
        S1_FAST(GenericMul)
        S1_FAST(GenericUnary)
        S1_FAST(GenericCompare)
        S1_FAST(GenericNumPred)
        S1_FAST(Cons)
#undef S1_FAST
      default:
        break;
      }
      Pc = LPc;
      if (!doSyscall(static_cast<Syscall>(I->S1), I->S2, I->S3, I->Target,
                     Error))
        return false;
      // Throw may have transferred control to another function's handler.
      Reload();
      LPc = Pc;
    }
    continue;

    H_Halt:
      Pc = LPc;
      return trap(Error, "HALT executed");

    H_Decode: {
      // First entry into CurFunc: restart at pc 0 once decoded, where the
      // block entry runs again on unchanged state.
      decodeOnEntry(*I);
      Reload();
      LPc = 0;
    }
    continue;
  }
}

//===----------------------------------------------------------------------===//
// Runtime services
//===----------------------------------------------------------------------===//

bool Machine::wordEql(uint64_t A, uint64_t B) {
  if (A == B)
    return true;
  if (tagOf(A) != tagOf(B))
    return false;
  switch (tagOf(A)) {
  case Tag::SingleFlonum:
    return asDouble(Memory[addrOf(A)]) == asDouble(Memory[addrOf(B)]);
  case Tag::Ratio:
    return Memory[addrOf(A)] == Memory[addrOf(B)] &&
           Memory[addrOf(A) + 1] == Memory[addrOf(B) + 1];
  default:
    return false;
  }
}

uint64_t Machine::certify(uint64_t W) {
  uint64_t Addr = addrOf(W);
  if (!isStackAddress(Addr))
    return W;
  switch (tagOf(W)) {
  case Tag::SingleFlonum: {
    uint64_t NewW = allocate(Tag::SingleFlonum, 1);
    mem(addrOf(NewW)) = Memory[Addr];
    return NewW;
  }
  case Tag::Ratio: {
    uint64_t NewW = allocate(Tag::Ratio, 2);
    mem(addrOf(NewW)) = Memory[Addr];
    mem(addrOf(NewW) + 1) = Memory[Addr + 1];
    return NewW;
  }
  default:
    return W;
  }
}

void Machine::invalidateSpecCacheAbove(uint64_t NewTop) {
  if (SpecCache.empty())
    return;
  // Erase the cache entry of every symbol bound in the popped region.
  // Erasing a symbol whose topmost binding survives below merely costs a
  // re-scan (and re-cache) on its next lookup.
  for (uint64_t A = NewTop; A < SpecTop; A += 2)
    SpecCache.erase(mem(A));
}

bool Machine::doSyscall(Syscall S, int64_t SubCode, int64_t XImm,
                        int HandlerPc, std::string &Error) {
  auto DecodeNum = [this](uint64_t W) -> std::optional<Value> {
    switch (tagOf(W)) {
    case Tag::Fixnum:
      return Value::fixnum(fixnumValue(W));
    case Tag::SingleFlonum:
      return Value::flonum(asDouble(Memory[addrOf(W)]));
    case Tag::Ratio:
      return DecodeHeap.makeRatio(static_cast<int64_t>(Memory[addrOf(W)]),
                                  static_cast<int64_t>(Memory[addrOf(W) + 1]));
    default:
      return std::nullopt;
    }
  };
  auto EncodeNum = [this, &Error](Value V, bool &Ok) -> uint64_t {
    Ok = true;
    switch (V.kind()) {
    case sexpr::ValueKind::Fixnum:
      if (V.fixnum() < INT32_MIN || V.fixnum() > INT32_MAX) {
        Ok = trap(Error, "fixnum overflow (compiled fixnums are 32-bit)");
        return NilWord;
      }
      return makeFixnum(V.fixnum());
    case sexpr::ValueKind::Flonum:
      return boxFlonum(V.flonum());
    case sexpr::ValueKind::Ratio: {
      uint64_t W = allocate(Tag::Ratio, 2);
      mem(addrOf(W)) = static_cast<uint64_t>(V.ratio().Num);
      mem(addrOf(W) + 1) = static_cast<uint64_t>(V.ratio().Den);
      return W;
    }
    default:
      Ok = trap(Error, "non-numeric result");
      return NilWord;
    }
  };
  auto TBool = [this](bool B) { Regs[RV] = B ? trueWord() : NilWord; };
  auto TypeError = [this, &Error] {
    return trap(Error, rtErrorMessage(RtError::WrongTypeOfArgument));
  };

  if (fastSyscall(S, SubCode))
    return true;
  switch (S) {
  case Syscall::GenericAdd:
  case Syscall::GenericSub:
  case Syscall::GenericMul:
  case Syscall::GenericDiv:
  case Syscall::GenericArith2: {
    uint64_t BW = pop(), AW = pop();
    auto A = DecodeNum(AW), B = DecodeNum(BW);
    if (!A || !B)
      return TypeError();
    sexpr::ArithOp Op;
    switch (S) {
    case Syscall::GenericAdd:
      Op = sexpr::ArithOp::Add;
      break;
    case Syscall::GenericSub:
      Op = sexpr::ArithOp::Sub;
      break;
    case Syscall::GenericMul:
      Op = sexpr::ArithOp::Mul;
      break;
    case Syscall::GenericDiv:
      Op = sexpr::ArithOp::Div;
      break;
    default:
      switch (static_cast<ArithCode>(SubCode)) {
      case ArithCode::Floor:
        Op = sexpr::ArithOp::Floor;
        break;
      case ArithCode::Ceiling:
        Op = sexpr::ArithOp::Ceiling;
        break;
      case ArithCode::Truncate:
        Op = sexpr::ArithOp::Truncate;
        break;
      case ArithCode::Round:
        Op = sexpr::ArithOp::Round;
        break;
      case ArithCode::Mod:
        Op = sexpr::ArithOp::Mod;
        break;
      case ArithCode::Rem:
        Op = sexpr::ArithOp::Rem;
        break;
      case ArithCode::Expt:
        Op = sexpr::ArithOp::Expt;
        break;
      case ArithCode::Max:
        Op = sexpr::ArithOp::Max;
        break;
      default:
        Op = sexpr::ArithOp::Min;
        break;
      }
      break;
    }
    auto R = sexpr::arith(DecodeHeap, Op, *A, *B);
    if (!R)
      return TypeError();
    bool Ok;
    Regs[RV] = EncodeNum(*R, Ok);
    return Ok;
  }

  case Syscall::GenericUnary: {
    uint64_t AW = pop();
    UnaryCode UC = static_cast<UnaryCode>(SubCode);
    auto A = DecodeNum(AW);
    if (!A)
      return TypeError();
    std::optional<Value> R;
    switch (UC) {
    case UnaryCode::Neg:
      R = sexpr::negate(DecodeHeap, *A);
      break;
    case UnaryCode::Abs:
      R = sexpr::numAbs(DecodeHeap, *A);
      break;
    case UnaryCode::Add1:
      R = sexpr::add1(DecodeHeap, *A);
      break;
    case UnaryCode::Sub1:
      R = sexpr::sub1(DecodeHeap, *A);
      break;
    case UnaryCode::Sqrt: {
      auto D = sexpr::toDouble(*A);
      if (D && *D >= 0)
        R = Value::flonum(std::sqrt(*D));
      break;
    }
    case UnaryCode::ToFloat: {
      auto D = sexpr::toDouble(*A);
      if (D)
        R = Value::flonum(*D);
      break;
    }
    }
    if (!R)
      return TypeError();
    bool Ok;
    Regs[RV] = EncodeNum(*R, Ok);
    return Ok;
  }

  case Syscall::GenericCompare: {
    uint64_t BW = pop(), AW = pop();
    auto A = DecodeNum(AW), B = DecodeNum(BW);
    if (!A || !B)
      return TypeError();
    sexpr::CompareOp Op;
    switch (static_cast<Cond>(SubCode)) {
    case Cond::EQ:
      Op = sexpr::CompareOp::Eq;
      break;
    case Cond::NEQ:
      Op = sexpr::CompareOp::Ne;
      break;
    case Cond::LT:
      Op = sexpr::CompareOp::Lt;
      break;
    case Cond::GT:
      Op = sexpr::CompareOp::Gt;
      break;
    case Cond::LE:
      Op = sexpr::CompareOp::Le;
      break;
    default:
      Op = sexpr::CompareOp::Ge;
      break;
    }
    auto R = sexpr::compare(Op, *A, *B);
    if (!R)
      return TypeError();
    TBool(*R);
    return true;
  }

  case Syscall::GenericNumPred: {
    uint64_t AW = pop();
    auto A = DecodeNum(AW);
    if (!A)
      return TypeError();
    std::optional<bool> R;
    switch (static_cast<PredCode>(SubCode)) {
    case PredCode::Zerop:
      R = sexpr::isZero(*A);
      break;
    case PredCode::Oddp:
      R = sexpr::isOdd(*A);
      break;
    case PredCode::Evenp:
      R = sexpr::isEven(*A);
      break;
    case PredCode::Plusp:
      R = sexpr::isPlus(*A);
      break;
    default:
      R = sexpr::isMinus(*A);
      break;
    }
    if (!R)
      return TypeError();
    TBool(*R);
    return true;
  }

  case Syscall::ConsFlonum:
    Regs[RV] = boxFlonum(asDouble(pop()));
    return true;

  case Syscall::ConsFixnum: {
    int64_t V = static_cast<int64_t>(pop());
    if (V < INT32_MIN || V > INT32_MAX)
      return trap(Error, "fixnum overflow (compiled fixnums are 32-bit)");
    Regs[RV] = makeFixnum(V);
    return true;
  }

  case Syscall::UnboxFloat: {
    uint64_t W = pop();
    auto A = DecodeNum(W);
    auto D = A ? sexpr::toDouble(*A) : std::nullopt;
    if (!D)
      return TypeError();
    Regs[RV] = fromDouble(*D);
    return true;
  }

  case Syscall::UnboxFixnum: {
    uint64_t W = pop();
    if (tagOf(W) != Tag::Fixnum)
      return TypeError();
    Regs[RV] = static_cast<uint64_t>(fixnumValue(W));
    return true;
  }

  case Syscall::Cons: {
    uint64_t Cdr = pop(), Car = pop();
    uint64_t W = allocate(Tag::Cons, 2);
    mem(addrOf(W)) = Car;
    mem(addrOf(W) + 1) = Cdr;
    Regs[RV] = W;
    return true;
  }

  case Syscall::ListPrim: {
    ListCode Code = static_cast<ListCode>(SubCode);
    auto IsList = [this](uint64_t W) {
      return tagOf(W) == Tag::Nil || tagOf(W) == Tag::Cons;
    };
    auto CarOf = [this](uint64_t W) {
      return tagOf(W) == Tag::Cons ? Memory[addrOf(W)] : NilWord;
    };
    auto CdrOf = [this](uint64_t W) {
      return tagOf(W) == Tag::Cons ? Memory[addrOf(W) + 1] : NilWord;
    };
    switch (Code) {
    case ListCode::Length: {
      uint64_t L = pop();
      if (tagOf(L) == Tag::String) {
        Regs[RV] = makeFixnum(static_cast<int64_t>(Memory[addrOf(L)]));
        return true;
      }
      if (!IsList(L))
        return TypeError();
      int64_t N = 0;
      while (tagOf(L) == Tag::Cons) {
        ++N;
        L = CdrOf(L);
      }
      Regs[RV] = makeFixnum(N);
      return true;
    }
    case ListCode::Reverse: {
      uint64_t L = pop();
      if (!IsList(L))
        return TypeError();
      uint64_t R = NilWord;
      while (tagOf(L) == Tag::Cons) {
        uint64_t W = allocate(Tag::Cons, 2);
        mem(addrOf(W)) = CarOf(L);
        mem(addrOf(W) + 1) = R;
        R = W;
        L = CdrOf(L);
      }
      Regs[RV] = R;
      return true;
    }
    case ListCode::Append2: {
      uint64_t B = pop(), A = pop();
      if (!IsList(A))
        return TypeError();
      std::vector<uint64_t> Items;
      for (uint64_t L = A; tagOf(L) == Tag::Cons; L = CdrOf(L))
        Items.push_back(CarOf(L));
      uint64_t R = B;
      for (size_t J = Items.size(); J > 0; --J) {
        uint64_t W = allocate(Tag::Cons, 2);
        mem(addrOf(W)) = Items[J - 1];
        mem(addrOf(W) + 1) = R;
        R = W;
      }
      Regs[RV] = R;
      return true;
    }
    case ListCode::Member: {
      uint64_t L = pop(), X = pop();
      while (tagOf(L) == Tag::Cons) {
        if (wordEql(CarOf(L), X)) {
          Regs[RV] = L;
          return true;
        }
        L = CdrOf(L);
      }
      Regs[RV] = NilWord;
      return true;
    }
    case ListCode::Assoc: {
      uint64_t L = pop(), X = pop();
      while (tagOf(L) == Tag::Cons) {
        uint64_t Pair = CarOf(L);
        if (tagOf(Pair) == Tag::Cons && wordEql(CarOf(Pair), X)) {
          Regs[RV] = Pair;
          return true;
        }
        L = CdrOf(L);
      }
      Regs[RV] = NilWord;
      return true;
    }
    case ListCode::Nth:
    case ListCode::NthCdr: {
      uint64_t L = pop(), NW = pop();
      if (tagOf(NW) != Tag::Fixnum)
        return TypeError();
      for (int64_t J = 0; J < fixnumValue(NW) && tagOf(L) == Tag::Cons; ++J)
        L = CdrOf(L);
      Regs[RV] = Code == ListCode::Nth ? CarOf(L) : L;
      return true;
    }
    case ListCode::Last: {
      uint64_t L = pop();
      while (tagOf(L) == Tag::Cons && tagOf(CdrOf(L)) == Tag::Cons)
        L = CdrOf(L);
      Regs[RV] = L;
      return true;
    }
    case ListCode::Equal: {
      uint64_t B = pop(), A = pop();
      // Structural equality via decode (bounded).
      auto DA = decode(A), DB = decode(B);
      if (DA && DB)
        TBool(sexpr::equal(*DA, *DB));
      else
        TBool(wordEql(A, B));
      return true;
    }
    case ListCode::ListN: {
      int64_t N = XImm;
      uint64_t R = NilWord;
      for (int64_t J = 0; J < N; ++J) {
        uint64_t W = allocate(Tag::Cons, 2);
        mem(addrOf(W)) = pop(); // rightmost argument first
        mem(addrOf(W) + 1) = R;
        R = W;
      }
      Regs[RV] = R;
      return true;
    }
    }
    return trap(Error, "bad list primitive");
  }

  case Syscall::Certify:
    Regs[RV] = certify(pop());
    return true;

  case Syscall::SpecBind: {
    uint64_t V = pop(), Sym = pop();
    mem(SpecTop) = Sym;
    mem(SpecTop + 1) = V;
    SpecCache[Sym] = SpecTop + 1; // this pair is now the topmost binding
    SpecTop += 2;
    return true;
  }

  case Syscall::SpecUnbind: {
    uint64_t NewTop = SpecTop - 2 * static_cast<uint64_t>(SubCode);
    invalidateSpecCacheAbove(NewTop);
    SpecTop = NewTop;
    return true;
  }

  case Syscall::SpecLookup: {
    uint64_t Sym = pop();
    ++Stats.SpecialSearches;
    auto It = SpecCache.find(Sym);
    if (It != SpecCache.end()) {
      // Shallow-cache hit: skip the scan but charge SpecialSearchSteps
      // exactly what the linear search below would have counted, so the
      // §4.4 deep-binding cost tables stay honest.
      uint64_t Cell = It->second;
      if (Cell >= SpecBase && Cell < SpecTop)
        Stats.SpecialSearchSteps += (SpecTop - Cell + 1) / 2;
      else
        Stats.SpecialSearchSteps += (SpecTop - SpecBase) / 2; // full scan
      Regs[RV] = Cell;
      return true;
    }
    for (uint64_t A = SpecTop; A > SpecBase; A -= 2) {
      ++Stats.SpecialSearchSteps;
      if (mem(A - 2) == Sym) {
        Regs[RV] = A - 1;
        SpecCache.emplace(Sym, A - 1);
        return true;
      }
    }
    // Fall back to the symbol's global value cell. An unbound cell is
    // still a valid cache target: reads check for UnboundWord, and a setq
    // through it creates the global binding.
    Regs[RV] = addrOf(Sym);
    SpecCache.emplace(Sym, addrOf(Sym));
    return true;
  }

  case Syscall::MakeClosure: {
    uint64_t Env = pop();
    uint64_t W = allocate(Tag::Function, 2);
    mem(addrOf(W)) = static_cast<uint64_t>(SubCode);
    mem(addrOf(W) + 1) = Env;
    Regs[RV] = W;
    return true;
  }

  case Syscall::MakeEnv: {
    uint64_t Parent = pop();
    uint64_t Size = static_cast<uint64_t>(SubCode);
    uint64_t W = allocate(Tag::Environment, 1 + Size);
    mem(addrOf(W)) = Parent;
    Regs[RV] = W;
    return true;
  }

  case Syscall::MakeRestList: {
    uint64_t Count = pop();
    uint64_t Base = pop();
    uint64_t R = NilWord;
    for (uint64_t J = Count; J > 0; --J) {
      uint64_t W = allocate(Tag::Cons, 2);
      mem(addrOf(W)) = mem(Base + J - 1);
      mem(addrOf(W) + 1) = R;
      R = W;
    }
    Regs[RV] = R;
    return true;
  }

  case Syscall::SpreadList: {
    uint64_t L = pop();
    uint64_t N = 0;
    while (tagOf(L) == Tag::Cons) {
      push(Memory[addrOf(L)]);
      L = Memory[addrOf(L) + 1];
      ++N;
    }
    if (tagOf(L) != Tag::Nil)
      return TypeError();
    Regs[RV] = N;
    return true;
  }

  case Syscall::ArrayMake: {
    uint64_t D1W = pop(), D0W = pop();
    if (tagOf(D0W) != Tag::Fixnum || fixnumValue(D0W) < 0)
      return TypeError();
    size_t D1 = 0;
    if (tagOf(D1W) == Tag::Fixnum) {
      if (fixnumValue(D1W) < 0)
        return TypeError();
      D1 = static_cast<size_t>(fixnumValue(D1W));
    } else if (tagOf(D1W) != Tag::Nil) {
      return TypeError();
    }
    Regs[RV] = allocArrayF(static_cast<size_t>(fixnumValue(D0W)), D1);
    return true;
  }

  case Syscall::Error:
    return trap(Error, rtErrorMessage(static_cast<RtError>(SubCode)));

  case Syscall::Print: {
    uint64_t W = pop();
    auto V = decode(W);
    Out += V ? sexpr::toString(*V)
             : (tagOf(W) == Tag::Function ? "#<function>" : "#<object>");
    Out += '\n';
    Regs[RV] = W;
    return true;
  }

  case Syscall::Throw: {
    uint64_t V = pop(), TagW = pop();
    for (size_t J = Catches.size(); J > 0; --J) {
      CatchFrame &C = Catches[J - 1];
      if (wordEql(C.TagWord, TagW)) {
        Regs[SP] = C.Sp;
        Regs[FP] = C.Fp;
        Regs[ENV] = C.Env;
        uint64_t NewTop = SpecBase + 2 * C.SpecDepth;
        if (NewTop < SpecTop)
          invalidateSpecCacheAbove(NewTop);
        SpecTop = NewTop;
        CurFunc = C.Func;
        Pc = C.Pc;
        Regs[RV] = V;
        Catches.resize(C.CatchDepth);
        return true;
      }
    }
    return trap(Error, rtErrorMessage(RtError::UncaughtThrow));
  }

  case Syscall::PushCatch: {
    uint64_t TagW = pop();
    CatchFrame C;
    C.TagWord = TagW;
    C.Func = CurFunc;
    C.Pc = HandlerPc; // in the executing engine's pc units
    C.Sp = Regs[SP];
    C.Fp = Regs[FP];
    C.Env = Regs[ENV];
    C.SpecDepth = (SpecTop - SpecBase) / 2;
    C.CatchDepth = Catches.size();
    Catches.push_back(C);
    return true;
  }

  case Syscall::PopCatch:
    if (!Catches.empty())
      Catches.pop_back();
    return true;
  }
  return trap(Error, "unimplemented syscall");
}
