//===- vm/Jit.cpp - x86-64 block compiler over the XInsn stream -----------===//
//
// Two-pass native tier. Pass 1 is Predecode's block sweep: a basic block
// starts at function entry, every branch/catch target and the
// fall-through after any control transfer or allocation, and each
// decoded instruction's Run counts the instructions left in its block,
// so the block at leader L ends at L + Code[L].Run. The threaded loop
// charges the same blocks at their entries. Pass 2 compiles each block
// once:
//
//   [fit test]  r14 += N; cmp r14, r15 — bulk-retires all N instructions
//               (plus a fused branch, below) when they fit in the
//               remaining fuel. A block that does not fit, exhausted fuel
//               included, jumps to a hand-off stub that un-retires the
//               charge, stores the block's (function, pc) and returns
//               JitStatus::Handoff; Machine::runNative continues there in
//               the threaded loop, which retires the instructions that
//               still fit and raises the exact fuel trap. The fall-off
//               trailer hands off the same way, for the pc-range trap.
//   [gc check]  with a GC schedule, a pending collection runs after the
//               fit test, so a fuel trap wins over it as in the threaded
//               loop;
//   [body]      instruction templates with no per-instruction safepoints;
//               trap stubs subtract the not-yet-retired tail (r14 -= adj)
//               so every trap reports the exact instruction count the
//               threaded engine would.
//
// Pending GC is checked only at block entries, as in the threaded loop:
// GcPending can only be raised by allocation and syscalls, and Predecode
// makes the successor of every such instruction a leader, so the check
// sits at the same boundary where the other engines perform the
// collection.
//
// A write-through virtual operand stack keeps the top of the VM stack in
// host registers (r8-r11, up to four deep) across instruction boundaries
// inside a block. Pushed words are still stored to Memory eagerly —
// memory stays bit-identical to the threaded engine's at every point, so
// the conservative GC and aliased reads observe the same words — but
// Regs[SP] stores, StackHighWater updates and pop reloads are deferred
// until the segment materializes: at block exits, C++ shim calls, any
// SP-touching instruction, or a memory-destination store (which could
// alias a virtual slot). rbp caches the deferred Regs[SP] base while a
// segment is live. Trap stubs carry the deferred (sp delta, peak) pair
// and reconstruct the exact architectural state before exiting, so trap
// messages and MachineStats stay byte-identical to the threaded engine.
//
// The GenericCompare / GenericNumPred fixnum fast paths can consume their
// operands straight from the virtual stack, and when the following
// instruction is `JmpzRK RV, 0, EQ|NEQ` (the boolean-branch pattern the
// compiler emits) the boolean feeds one test+jcc directly — compare and
// branch retire as a fused pair without a second dispatch. Cons gets an
// inline bump-allocation fast path in non-GC mode, falling back to the
// generic syscall on heap exhaustion; in GC mode it calls a dedicated
// C++ allocator shim (exact-size free-list reuse and GC accounting
// cannot be inlined) so the allocation schedule stays deterministic.
//
// Code layout of one compiled program:
//
//   [entry thunk]  [epilogue]  [gc stub]  [ok/err/halt stubs]
//   [function 0: blocks..., fall-off trailer, trap stubs]
//   [function 1: ...] ...
//
// Calling convention of the generated code (SysV, callee-saved pins):
//
//   rbx = &Machine::Regs[0]      r13 = Machine*
//   r12 = &Machine::Memory[0]    r14 = Stats.Instructions (live)
//   rbp = cached Regs[SP] while a virtual-stack segment is live
//                                r15 = fuel limit
//
// The entry thunk loads the pins from the six C arguments and jumps to
// the block entry of the resume point (every pc a host or a return word
// enters at is a leader by construction); every exit goes through the
// shared epilogue,
// which writes the retired-instruction count back into MachineStats and
// returns a JitStatus in eax. Trap stubs additionally store the
// (function, decoded pc) of the boundary they represent so Machine::trap
// reports the same location the threaded engine would.
//
// Equivalence contract: each block retires the same architectural counter
// deltas and the same machine-state effects as the corresponding sequence
// of runThreaded handlers, and every trap is raised at the same
// instruction boundary with the same message. States no compiled program
// can reach (corrupted SP/FP making the *stack bookkeeping itself* fault)
// may leave scratch registers or the shared mem()-Garbage cell differing —
// the threaded engine's behavior there is itself degenerate — but all
// counters and reachable state remain bit-identical.
//
//===----------------------------------------------------------------------===//

#include "vm/Jit.h"

#include "stats/Stats.h"
#include "vm/Machine.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <utility>

#if defined(__x86_64__) && (defined(__linux__) || defined(__APPLE__))
#define S1_JIT_AVAILABLE 1
#include <sys/mman.h>
#else
#define S1_JIT_AVAILABLE 0
#endif

using namespace s1lisp;
using namespace s1lisp::vm;
using namespace s1lisp::s1;

namespace s1lisp {
namespace vm {

bool jitAvailable() { return S1_JIT_AVAILABLE != 0; }

JitProgram::~JitProgram() {
#if S1_JIT_AVAILABLE
  if (Base)
    munmap(Base, MapLen);
#endif
}

const void *JitProgram::addr(int Func, int Pc) const {
  return FuncTable[static_cast<size_t>(Func)][Pc];
}

int JitProgram::invoke(uint64_t *Regs, uint64_t *Memory, Machine *M,
                       uint64_t Instructions, uint64_t Fuel,
                       const void *Start) const {
  using Fn = int (*)(uint64_t *, uint64_t *, Machine *, uint64_t, uint64_t,
                     const void *);
  auto F = reinterpret_cast<Fn>(Base + EntryOff);
  return F(Regs, Memory, M, Instructions, Fuel, Start);
}

namespace {

#if S1_JIT_AVAILABLE
// Compile-time observability: shape of the block structure the compiler
// produced, counted as each block is emitted.
S1_STAT(JitStatBlocks, "jit.blocks", "basic blocks compiled");
S1_STAT(JitStatBlockInsns, "jit.block.insns",
        "instructions covered by compiled blocks");
S1_STAT(JitStatBlockInsnsMax, "jit.block.insns.max",
        "largest compiled block (instructions)");
S1_STAT(JitStatBlocks1, "jit.block.size1", "blocks of 1 instruction");
S1_STAT(JitStatBlocks2, "jit.block.size2to3", "blocks of 2-3 instructions");
S1_STAT(JitStatBlocks4, "jit.block.size4to7", "blocks of 4-7 instructions");
S1_STAT(JitStatBlocks8, "jit.block.size8plus", "blocks of 8+ instructions");
S1_STAT(JitStatFused, "jit.fused.cmpbranch",
        "compare+branch pairs fused into one test+jcc");
S1_STAT(JitStatElided, "jit.safepoints.elided",
        "per-instruction safepoints batched into block entries");
S1_STAT(JitStatConsSites, "jit.cons.inline.sites",
        "cons sites compiled with the inline bump-allocation fast path");

// x86-64 register numbers.
enum : unsigned {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

// Condition codes (Jcc 0F 8x / CMOVcc 0F 4x).
enum : uint8_t {
  CC_B = 0x2,
  CC_AE = 0x3,
  CC_E = 0x4,
  CC_NE = 0x5,
  CC_BE = 0x6,
  CC_A = 0x7,
  CC_S = 0x8,
  CC_L = 0xC,
  CC_GE = 0xD,
  CC_LE = 0xE,
  CC_G = 0xF,
};

uint8_t ccFor(Cond C) {
  switch (C) {
  case Cond::EQ:
    return CC_E;
  case Cond::NEQ:
    return CC_NE;
  case Cond::LT:
    return CC_L;
  case Cond::GT:
    return CC_G;
  case Cond::LE:
    return CC_LE;
  case Cond::GE:
    return CC_GE;
  }
  return CC_E;
}

bool fitsI32(int64_t V) { return V >= INT32_MIN && V <= INT32_MAX; }

/// True when the instruction's template always transfers control itself
/// (so the block body must not emit a fall-through jump after it).
bool endsControl(XOp Op) {
  switch (Op) {
  case XOp::Jmp:
  case XOp::Call:
  case XOp::CallPtr:
  case XOp::TailCall:
  case XOp::TailCallPtr:
  case XOp::Ret:
  case XOp::Halt:
  case XOp::Syscall:
    return true;
  default:
    return false;
  }
}

/// Minimal x86-64 emitter: exactly the encodings the templates need.
class Asm {
public:
  std::vector<uint8_t> B;

  size_t pos() const { return B.size(); }
  void u8(uint8_t V) { B.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      B.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      B.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void patch32(size_t At, int32_t V) {
    for (int I = 0; I < 4; ++I)
      B[At + I] = static_cast<uint8_t>(static_cast<uint32_t>(V) >> (8 * I));
  }

  void rex(bool W, unsigned Reg, unsigned Index, unsigned Base) {
    uint8_t R = 0x40 | (W ? 8 : 0) | ((Reg >> 3) << 2) | ((Index >> 3) << 1) |
                (Base >> 3);
    if (R != 0x40)
      u8(R);
  }

  /// op Reg, [Base + Index*2^Scale + Disp]; Index < 0 = none.
  void opMem(bool W, std::initializer_list<uint8_t> Op, unsigned Reg,
             unsigned Base, int Index, unsigned Scale, int32_t Disp) {
    rex(W, Reg, Index < 0 ? 0 : static_cast<unsigned>(Index), Base);
    for (uint8_t O : Op)
      u8(O);
    bool NeedSib = (Base & 7) == 4 || Index >= 0;
    unsigned Mod;
    if (Disp == 0 && (Base & 7) != 5)
      Mod = 0;
    else if (Disp >= -128 && Disp <= 127)
      Mod = 1;
    else
      Mod = 2;
    u8(static_cast<uint8_t>((Mod << 6) | ((Reg & 7) << 3) |
                            (NeedSib ? 4 : (Base & 7))));
    if (NeedSib)
      u8(static_cast<uint8_t>((Scale << 6) |
                              ((Index < 0 ? 4u : (Index & 7u)) << 3) |
                              (Base & 7)));
    if (Mod == 1)
      u8(static_cast<uint8_t>(Disp));
    else if (Mod == 2)
      u32(static_cast<uint32_t>(Disp));
  }

  /// op Reg, Rm with mod=3 (register-direct).
  void opRR(bool W, std::initializer_list<uint8_t> Op, unsigned Reg,
            unsigned Rm) {
    rex(W, Reg, 0, Rm);
    for (uint8_t O : Op)
      u8(O);
    u8(static_cast<uint8_t>(0xC0 | ((Reg & 7) << 3) | (Rm & 7)));
  }

  void loadQ(unsigned R, unsigned Base, int Index, unsigned Scale,
             int32_t Disp) {
    opMem(true, {0x8B}, R, Base, Index, Scale, Disp);
  }
  void storeQ(unsigned R, unsigned Base, int Index, unsigned Scale,
              int32_t Disp) {
    opMem(true, {0x89}, R, Base, Index, Scale, Disp);
  }
  /// 32-bit load: zero-extends into the full register (addrOf()).
  void loadD(unsigned R, unsigned Base, int Index, unsigned Scale,
             int32_t Disp) {
    opMem(false, {0x8B}, R, Base, Index, Scale, Disp);
  }
  void lea(unsigned R, unsigned Base, int Index, unsigned Scale,
           int32_t Disp) {
    opMem(true, {0x8D}, R, Base, Index, Scale, Disp);
  }
  void movRR(unsigned D, unsigned S) { opRR(true, {0x8B}, D, S); }
  /// mov r32, r32 — zero-extends (the addrOf() idiom).
  void movRR32(unsigned D, unsigned S) { opRR(false, {0x8B}, D, S); }

  void movRI(unsigned R, uint64_t V) {
    if (V <= 0x7FFFFFFFull) { // mov r32, imm32 zero-extends
      rex(false, 0, 0, R);
      u8(static_cast<uint8_t>(0xB8 | (R & 7)));
      u32(static_cast<uint32_t>(V));
    } else if (static_cast<int64_t>(V) ==
               static_cast<int32_t>(static_cast<uint32_t>(V))) {
      rex(true, 0, 0, R); // mov r64, simm32
      u8(0xC7);
      u8(static_cast<uint8_t>(0xC0 | (R & 7)));
      u32(static_cast<uint32_t>(V));
    } else {
      rex(true, 0, 0, R); // movabs
      u8(static_cast<uint8_t>(0xB8 | (R & 7)));
      u64(V);
    }
  }

  /// 81/83 /Ext: add(0) or(1) and(4) sub(5) xor(6) cmp(7) reg, imm.
  void aluRI(uint8_t Ext, unsigned R, int32_t Imm) {
    rex(true, 0, 0, R);
    if (Imm >= -128 && Imm <= 127) {
      u8(0x83);
      u8(static_cast<uint8_t>(0xC0 | (Ext << 3) | (R & 7)));
      u8(static_cast<uint8_t>(Imm));
    } else {
      u8(0x81);
      u8(static_cast<uint8_t>(0xC0 | (Ext << 3) | (R & 7)));
      u32(static_cast<uint32_t>(Imm));
    }
  }
  void addRI(unsigned R, int32_t I) { aluRI(0, R, I); }
  void subRI(unsigned R, int32_t I) { aluRI(5, R, I); }
  void cmpRI(unsigned R, int32_t I) { aluRI(7, R, I); }

  /// Same, on a qword memory operand [Base+Disp].
  void aluMemI(uint8_t Ext, unsigned Base, int32_t Disp, int32_t Imm) {
    if (Imm >= -128 && Imm <= 127) {
      opMem(true, {0x83}, Ext, Base, -1, 0, Disp);
      u8(static_cast<uint8_t>(Imm));
    } else {
      opMem(true, {0x81}, Ext, Base, -1, 0, Disp);
      u32(static_cast<uint32_t>(Imm));
    }
  }

  void addRR(unsigned D, unsigned S) { opRR(true, {0x03}, D, S); }
  void subRR(unsigned D, unsigned S) { opRR(true, {0x2B}, D, S); }
  void cmpRR(unsigned A, unsigned Bb) { opRR(true, {0x3B}, A, Bb); }
  void testRR(unsigned A, unsigned Bb) { opRR(true, {0x85}, A, Bb); }
  void orRR(unsigned D, unsigned S) { opRR(true, {0x0B}, D, S); }
  void xorRR32(unsigned D, unsigned S) { opRR(false, {0x33}, D, S); }
  void negR(unsigned R) { opRR(true, {0xF7}, 3, R); }
  void incR(unsigned R) { opRR(true, {0xFF}, 0, R); }
  void movsxd(unsigned D, unsigned S) { opRR(true, {0x63}, D, S); }
  void imulRR(unsigned D, unsigned S) { opRR(true, {0x0F, 0xAF}, D, S); }
  void cmov(uint8_t CC, unsigned D, unsigned S) {
    opRR(true, {0x0F, static_cast<uint8_t>(0x40 | CC)}, D, S);
  }
  void shlRI(unsigned R, uint8_t N) {
    rex(true, 0, 0, R);
    u8(0xC1);
    u8(static_cast<uint8_t>(0xC0 | (4 << 3) | (R & 7)));
    u8(N);
  }
  void shrRI(unsigned R, uint8_t N) {
    rex(true, 0, 0, R);
    u8(0xC1);
    u8(static_cast<uint8_t>(0xC0 | (5 << 3) | (R & 7)));
    u8(N);
  }
  void btsRI(unsigned R, uint8_t Bit) { // bts r64, imm8
    rex(true, 0, 0, R);
    u8(0x0F);
    u8(0xBA);
    u8(static_cast<uint8_t>(0xC0 | (5 << 3) | (R & 7)));
    u8(Bit);
  }
  void incMemQ(unsigned Base, int32_t Disp) {
    opMem(true, {0xFF}, 0, Base, -1, 0, Disp);
  }
  /// cmp byte [Base+Disp], imm8.
  void cmpByteMemI(unsigned Base, int32_t Disp, uint8_t Imm) {
    opMem(false, {0x80}, 7, Base, -1, 0, Disp);
    u8(Imm);
  }
  /// cmp Reg, qword [Base+Disp].
  void cmpRM(unsigned R, unsigned Base, int32_t Disp) {
    opMem(true, {0x3B}, R, Base, -1, 0, Disp);
  }
  /// mov dword [Base+Disp], imm32.
  void storeDImm(unsigned Base, int32_t Disp, int32_t Imm) {
    opMem(false, {0xC7}, 0, Base, -1, 0, Disp);
    u32(static_cast<uint32_t>(Imm));
  }
  /// mov qword [Base+Disp], simm32.
  void storeQImm(unsigned Base, int32_t Disp, int32_t Imm) {
    opMem(true, {0xC7}, 0, Base, -1, 0, Disp);
    u32(static_cast<uint32_t>(Imm));
  }

  void jmpReg(unsigned R) { opRR(false, {0xFF}, 4, R); }
  void callReg(unsigned R) { opRR(false, {0xFF}, 2, R); }
  void ret() { u8(0xC3); }
  void pushR(unsigned R) {
    rex(false, 0, 0, R);
    u8(static_cast<uint8_t>(0x50 | (R & 7)));
  }
  void popR(unsigned R) {
    rex(false, 0, 0, R);
    u8(static_cast<uint8_t>(0x58 | (R & 7)));
  }

  /// Forward local jump; returns the rel32 position for bind().
  size_t jccL(uint8_t CC) {
    u8(0x0F);
    u8(static_cast<uint8_t>(0x80 | CC));
    size_t P = pos();
    u32(0);
    return P;
  }
  size_t jmpL() {
    u8(0xE9);
    size_t P = pos();
    u32(0);
    return P;
  }
  void bind(size_t P) { patch32(P, static_cast<int32_t>(pos() - (P + 4))); }

  /// Jump/call to an already-emitted absolute buffer offset.
  void jmpFixed(size_t TargetOff) {
    u8(0xE9);
    u32(static_cast<uint32_t>(
        static_cast<int64_t>(TargetOff) - static_cast<int64_t>(pos() + 4)));
  }
  void jccFixed(uint8_t CC, size_t TargetOff) {
    u8(0x0F);
    u8(static_cast<uint8_t>(0x80 | CC));
    u32(static_cast<uint32_t>(
        static_cast<int64_t>(TargetOff) - static_cast<int64_t>(pos() + 4)));
  }
  void callFixed(size_t TargetOff) {
    u8(0xE8);
    u32(static_cast<uint32_t>(
        static_cast<int64_t>(TargetOff) - static_cast<int64_t>(pos() + 4)));
  }
};

#endif // S1_JIT_AVAILABLE

} // namespace

/// Friend bridge into Machine: member offsets baked into generated code
/// plus the C++ helpers the templates call back into. (Machine is not
/// standard-layout — it holds references — so offsets are computed from a
/// live instance rather than offsetof.)
struct JitAccess {
  struct Offsets {
    int32_t CurFunc, Pc, Halted, GcPending, CachedT, HeapTop;
    int32_t Instr, Movs, Calls, TailCalls, Syscalls, SHW, PerOp0;
    int32_t HeapObjects, HeapWords, ConsHits, ConsMisses;
  };

  static int32_t off(const Machine &M, const void *Field) {
    return static_cast<int32_t>(reinterpret_cast<const char *>(Field) -
                                reinterpret_cast<const char *>(&M));
  }

  static Offsets offsets(const Machine &M) {
    Offsets O;
    O.CurFunc = off(M, &M.CurFunc);
    O.Pc = off(M, &M.Pc);
    O.Halted = off(M, &M.Halted);
    O.GcPending = off(M, &M.GcPending);
    O.CachedT = off(M, &M.CachedTWord);
    O.HeapTop = off(M, &M.HeapTop);
    O.Instr = off(M, &M.Stats.Instructions);
    O.Movs = off(M, &M.Stats.Movs);
    O.Calls = off(M, &M.Stats.Calls);
    O.TailCalls = off(M, &M.Stats.TailCalls);
    O.Syscalls = off(M, &M.Stats.Syscalls);
    O.SHW = off(M, &M.Stats.StackHighWater);
    O.PerOp0 = off(M, M.Stats.PerOpcode.data());
    O.HeapObjects = off(M, &M.Stats.HeapObjects);
    O.HeapWords = off(M, &M.Stats.HeapWordsUsed);
    O.ConsHits = off(M, &M.JitConsHits);
    O.ConsMisses = off(M, &M.JitConsMisses);
    return O;
  }

  // ---- helpers called from generated code (SysV ABI) -------------------

  static void gcShim(Machine *M) { M->collectGarbage(); }

  static uint64_t allocShim(Machine *M, uint64_t T, uint64_t N) {
    return M->allocate(static_cast<Tag>(T), N);
  }

  /// Cons allocator for the GC-enabled fast path: exact-size free-list
  /// reuse and the GC trigger accounting live in Machine::allocate and
  /// cannot be inlined without changing the allocation schedule. The
  /// template has already popped the operands and counted the syscall.
  static uint64_t consShim(Machine *M, uint64_t Car, uint64_t Cdr) {
    uint64_t W = M->allocate(Tag::Cons, 2);
    M->mem(addrOf(W)) = Car;
    M->mem(addrOf(W) + 1) = Cdr;
    return W;
  }

  /// Full SYSCALL fallback. Counter and Pc bookkeeping mirror the threaded
  /// handler: the template stored CurFunc/Pc(=next) before the call, Throw
  /// may retarget both, and the continuation is resolved from wherever the
  /// machine ended up. Returns nullptr when the syscall trapped (the
  /// formatted message is left in Machine::NativeError).
  static const void *syscallShim(Machine *M, const XInsn *I) {
    ++M->Stats.Syscalls;
    if (!M->doSyscall(static_cast<Syscall>(I->S1), I->S2, I->S3, I->Target,
                      M->NativeError))
      return nullptr;
    return M->ActiveJit->addr(M->CurFunc, M->Pc);
  }

  /// Cold opcodes run the threaded handlers' own executor: 0 = fall
  /// through, 1 = branch taken, -1 = division by zero.
  static int64_t coldShim(Machine *M, const XInsn *I) { return M->coldOp(*I); }

#if S1_JIT_AVAILABLE
  static std::shared_ptr<const JitProgram>
  compile(std::shared_ptr<const DecodedProgram> DP, const JitOptions &Opts,
          Machine &Layout);
#endif
};

#if S1_JIT_AVAILABLE

std::shared_ptr<const JitProgram>
JitAccess::compile(std::shared_ptr<const DecodedProgram> DP,
                   const JitOptions &Opts, Machine &Layout) {
  const Offsets MO = offsets(Layout);
  const bool GcOn = Opts.GcEnabled;
  const int32_t MW = static_cast<int32_t>(MemoryWords);
  const int32_t StackLimit = static_cast<int32_t>(StackBase + StackWords);
  const int32_t HeapEnd = static_cast<int32_t>(HeapBase + HeapWords);
  const int32_t SpOff = static_cast<int32_t>(s1::SP) * 8;
  const size_t NF = DP->size();
  // The virtual operand stack's register file, top of stack last.
  static constexpr unsigned VRegs[4] = {R8, R9, R10, R11};

  auto JP = std::make_shared<JitProgram>();
  JP->DP = DP;
  JP->GcOn = GcOn;
  JP->Offs.resize(NF);
  JP->AddrArrays.resize(NF);
  // Sized before emission: the movabs of FuncTable.data() and
  // Sizes.data() baked into RET / CALLPTR templates must stay valid.
  JP->FuncTable.resize(NF);
  JP->Sizes.resize(NF);
  const uint64_t FTData = reinterpret_cast<uint64_t>(JP->FuncTable.data());
  const uint64_t SizesData = reinterpret_cast<uint64_t>(JP->Sizes.data());

  Asm A;

  // ---- entry thunk -----------------------------------------------------
  // int entry(uint64_t *regs, uint64_t *mem, Machine *m, uint64_t instr,
  //           uint64_t fuel, const void *start)
  JP->EntryOff = A.pos();
  A.pushR(RBP);
  A.pushR(RBX);
  A.pushR(R12);
  A.pushR(R13);
  A.pushR(R14);
  A.pushR(R15);
  A.subRI(4 /*rsp*/, 8); // align: template call sites sit at rsp%16==0
  A.movRR(RBX, RDI);
  A.movRR(R12, RSI);
  A.movRR(R13, RDX);
  A.movRR(R14, RCX);
  A.movRR(R15, R8);
  A.jmpReg(R9);

  // ---- shared epilogue: status already in eax --------------------------
  const size_t EpiOff = A.pos();
  A.storeQ(R14, R13, -1, 0, MO.Instr);
  A.addRI(4 /*rsp*/, 8);
  A.popR(R15);
  A.popR(R14);
  A.popR(R13);
  A.popR(R12);
  A.popR(RBX);
  A.popR(RBP);
  A.ret();

  // ---- shared GC stub (called from block entries when GcPending) -------
  // The collector reads no run counter, so the block's precharged count
  // stays in r14.
  const size_t GcStubOff = A.pos();
  A.subRI(4 /*rsp*/, 8);
  A.movRR(RDI, R13);
  A.movRI(RAX, reinterpret_cast<uint64_t>(&JitAccess::gcShim));
  A.callReg(RAX);
  A.addRI(4 /*rsp*/, 8);
  A.ret();

  // ---- shared exit stubs ----------------------------------------------
  const size_t OkStubOff = A.pos(); // RET popped the host sentinel
  A.xorRR32(RAX, RAX);
  A.jmpFixed(EpiOff);
  const size_t SysErrStubOff = A.pos(); // doSyscall trapped
  A.movRI(RAX, static_cast<uint64_t>(JitStatus::SyscallErr));
  A.jmpFixed(EpiOff);
  const size_t HaltDynStubOff = A.pos(); // halted with CurFunc/Pc already set
  A.movRI(RAX, static_cast<uint64_t>(JitStatus::HaltedMem));
  A.jmpFixed(EpiOff);
  // Every address-table slot that starts no block. Only RET jumps through
  // one, for a return word no compiled program pushes: hand the function
  // index and pc the RET template left in edx/ecx to the threaded engine.
  const size_t MidBlockStubOff = A.pos();
  A.opMem(false, {0x89}, RDX, R13, -1, 0, MO.CurFunc);
  A.opMem(false, {0x89}, RCX, R13, -1, 0, MO.Pc);
  A.movRI(RAX, static_cast<uint64_t>(JitStatus::Handoff));
  A.jmpFixed(EpiOff);

  // ---- function bodies -------------------------------------------------
  struct Fixup {
    size_t At;
    int Func;
    int Idx;
  };
  std::vector<Fixup> Fixups; // rel32 to block entry Idx of Func

  /// Compile-time view of the virtual operand stack inside one block
  /// body. Depth entries live in VRegs[0..Depth-1] (and, write-through,
  /// in Memory at [SP_base .. SP_base+Depth)); Peak is the deferred
  /// StackHighWater high-water mark; SpCached says rbp == Regs[SP]
  /// (the segment base — Regs[SP] itself is not yet bumped).
  struct VCtx {
    int End = 0;   // one past the block's last instruction
    int Extra = 0; // fused-branch precharge riding on the bulk retire
    int Depth = 0;
    int Peak = 0;
    bool SpCached = false;
  };

  // Pseudo-status for the combined push guard: the stub discriminates a
  // plain stack overflow from the Sp == 2^64-1 wrap that the threaded
  // engine lets through its overflow check only to fault in mem().
  constexpr JitStatus PushColdStatus = static_cast<JitStatus>(1000);

  for (size_t F = 0; F < NF; ++F) {
    const DecodedFunction &DF = DP->function(static_cast<int>(F));
    const int Size = static_cast<int>(DF.Code.size());
    JP->Sizes[F] = static_cast<uint64_t>(Size);
    JP->Offs[F].assign(static_cast<size_t>(Size) + 1,
                       static_cast<uint32_t>(MidBlockStubOff));

    // Per-function exit stubs, deduplicated by the full reconstruction
    // tuple: {status, reported pc, r14 adjustment, deferred sp delta,
    // deferred stack peak}, plus the sorted original opcodes of the
    // block's unexecuted tail. A trap stub rolls the bulk-retired count
    // back to the trap boundary, subtracts the tail's block-entry
    // PerOpcode bumps, and materializes the virtual stack's deferred
    // Regs[SP]/StackHighWater updates before exiting, so trapped state is
    // bit-identical to the threaded engine's. A hand-off stub only
    // un-retires the charge of a block that did not fit.
    using StubKey = std::pair<std::array<int32_t, 5>, std::vector<int32_t>>;
    std::map<StubKey, std::vector<size_t>> StubSites;
    // The sites of the stub for a trap at the boundary after Idx.
    auto trapStub = [&](JitStatus St, int PcVal, const VCtx &C,
                        int Idx) -> std::vector<size_t> & {
      std::vector<int32_t> Tail;
      for (int J = Idx + 1; J < C.End; ++J)
        Tail.push_back(static_cast<int32_t>(
            static_cast<size_t>(DF.Code[static_cast<size_t>(J)].OrigOp)));
      std::sort(Tail.begin(), Tail.end());
      return StubSites[{{static_cast<int32_t>(St), PcVal,
                         C.End - Idx - 1 + C.Extra, C.Depth, C.Peak},
                        std::move(Tail)}];
    };
    auto jccStubC = [&](uint8_t CC, JitStatus St, int PcVal, const VCtx &C,
                        int Idx) {
      trapStub(St, PcVal, C, Idx).push_back(A.jccL(CC));
    };
    auto handoffStub = [&](int Pc, int Charge) -> std::vector<size_t> & {
      return StubSites[{{static_cast<int32_t>(JitStatus::Handoff), Pc,
                         Charge, 0, 0},
                        {}}];
    };
    auto jmpTo = [&](int Fn, int Idx) {
      A.u8(0xE9);
      Fixups.push_back({A.pos(), Fn, Idx});
      A.u32(0);
    };
    auto jccTo = [&](uint8_t CC, int Fn, int Idx) {
      A.u8(0x0F);
      A.u8(static_cast<uint8_t>(0x80 | CC));
      Fixups.push_back({A.pos(), Fn, Idx});
      A.u32(0);
    };

    // addrOf(Regs[Base]) [+ Disp] into Dst.
    auto emitEaS = [&](unsigned Dst, unsigned Tmp, const XMem &Mm) {
      A.loadD(Dst, RBX, -1, 0, static_cast<int32_t>(Mm.Base) * 8);
      if (Mm.Disp != 0) {
        if (fitsI32(Mm.Disp))
          A.lea(Dst, Dst, -1, 0, static_cast<int32_t>(Mm.Disp));
        else {
          A.movRI(Tmp, static_cast<uint64_t>(Mm.Disp));
          A.addRR(Dst, Tmp);
        }
      }
    };
    // addrOf(Regs[Base]) + (Disp + (Regs[Index] << Scale)) into Dst.
    auto emitEaX = [&](unsigned Dst, unsigned Tmp, unsigned Tmp2,
                       const XMem &Mm) {
      A.loadD(Dst, RBX, -1, 0, static_cast<int32_t>(Mm.Base) * 8);
      A.loadQ(Tmp, RBX, -1, 0, static_cast<int32_t>(Mm.Index) * 8);
      if (Mm.Scale)
        A.shlRI(Tmp, Mm.Scale);
      A.addRR(Dst, Tmp);
      if (Mm.Disp != 0) {
        if (fitsI32(Mm.Disp))
          A.lea(Dst, Dst, -1, 0, static_cast<int32_t>(Mm.Disp));
        else {
          A.movRI(Tmp2, static_cast<uint64_t>(Mm.Disp));
          A.addRR(Dst, Tmp2);
        }
      }
    };
    auto emitEa = [&](unsigned Dst, unsigned Tmp, unsigned Tmp2,
                      const XMem &Mm) {
      if (Mm.Index == 0xFF)
        emitEaS(Dst, Tmp, Mm);
      else
        emitEaX(Dst, Tmp, Tmp2, Mm);
    };
    // mem() fault guard: word address in R must be < MemoryWords.
    auto checkAddrC = [&](unsigned R, int PcVal, const VCtx &C, int Idx) {
      A.cmpRI(R, MW);
      jccStubC(CC_AE, JitStatus::HaltedMem, PcVal, C, Idx);
    };
    // Regs[SP] update + StackHighWater, with the new SP in R (always
    // maintained, exactly like Machine::push). Used by the materialized
    // call templates.
    auto emitShw = [&](unsigned NewSp, unsigned Tmp) {
      A.lea(Tmp, NewSp, -1, 0, -static_cast<int32_t>(StackBase));
      A.cmpRM(Tmp, R13, MO.SHW);
      size_t Skip = A.jccL(CC_BE);
      A.storeQ(Tmp, R13, -1, 0, MO.SHW);
      A.bind(Skip);
    };

    // ---- virtual-stack bookkeeping (clobbers rax/rcx only) -------------
    auto ensureSpBase = [&](VCtx &C) {
      if (!C.SpCached) {
        A.loadQ(RBP, RBX, -1, 0, SpOff);
        C.SpCached = true;
      }
    };
    // Flush the deferred StackHighWater update without moving Regs[SP].
    auto syncShw = [&](VCtx &C) {
      if (C.Peak == 0)
        return;
      ensureSpBase(C);
      A.lea(RCX, RBP, -1, 0, C.Peak - static_cast<int32_t>(StackBase));
      A.cmpRM(RCX, R13, MO.SHW);
      size_t Skip = A.jccL(CC_BE);
      A.storeQ(RCX, R13, -1, 0, MO.SHW);
      A.bind(Skip);
      C.Peak = 0;
    };
    // Materialize: commit the deferred Regs[SP] bump and StackHighWater,
    // then forget the segment. Values are already in Memory
    // (write-through), so this is pure bookkeeping.
    auto mat = [&](VCtx &C) {
      if (C.Depth > 0) {
        ensureSpBase(C);
        A.lea(RAX, RBP, -1, 0, C.Depth);
        A.storeQ(RAX, RBX, -1, 0, SpOff);
      }
      syncShw(C);
      C.Depth = 0;
      C.SpCached = false;
    };

    // Loads an XArg value into Dst (Reg/Const/Mem), faulting like xread.
    auto emitXRead = [&](unsigned Dst, unsigned T1, unsigned T2, unsigned T3,
                         const XArg &G, int PcVal, const VCtx &C, int Idx) {
      switch (G.M) {
      case XArg::Mode::Reg:
        A.loadQ(Dst, RBX, -1, 0, static_cast<int32_t>(G.R) * 8);
        break;
      case XArg::Mode::Const:
        A.movRI(Dst, G.K);
        break;
      case XArg::Mode::Mem:
        emitEa(T1, T2, T3, G.Mem);
        checkAddrC(T1, PcVal, C, Idx);
        A.loadQ(Dst, R12, static_cast<int>(T1), 3, 0);
        break;
      case XArg::Mode::None:
        A.movRI(Dst, 0);
        break;
      }
    };

    // The full SYSCALL fallback template; also the slow path behind the
    // inline fixnum fast paths. Callers materialize first.
    auto emitSyscallGeneric = [&](const XInsn &I, int ThisIdx) {
      A.storeDImm(R13, MO.CurFunc, static_cast<int32_t>(F));
      A.storeDImm(R13, MO.Pc, ThisIdx + 1);
      A.storeQ(R14, R13, -1, 0, MO.Instr);
      A.movRR(RDI, R13);
      A.movRI(RSI, reinterpret_cast<uint64_t>(&I));
      A.movRI(RAX, reinterpret_cast<uint64_t>(&JitAccess::syscallShim));
      A.callReg(RAX);
      A.testRR(RAX, RAX);
      A.jccFixed(CC_E, SysErrStubOff);
      A.cmpByteMemI(R13, MO.Halted, 0);
      A.jccFixed(CC_NE, HaltDynStubOff);
      A.jmpReg(RAX); // continuation resolved by the shim (Throw may move it)
    };

    const int Fi = static_cast<int>(F);
    auto memUsesSp = [](const XMem &Mm) {
      return Mm.Base == static_cast<uint8_t>(s1::SP) ||
             (Mm.Index != 0xFF && Mm.Index == static_cast<uint8_t>(s1::SP));
    };

    // Compare/NumPred fast paths can fuse with a following boolean branch:
    // the compiler's test pattern is always `JmpzRK RV, 0, EQ|NEQ` right
    // after the predicate syscall (which ends the block, so the branch is
    // a one-instruction block of its own).
    auto fusedBranch = [&](int Idx) -> const XInsn * {
      int Nx = Idx + 1;
      if (Nx >= Size)
        return nullptr;
      const XInsn &Br = DF.Code[static_cast<size_t>(Nx)];
      if (Br.Op != XOp::JmpzRK || Br.A != static_cast<uint8_t>(s1::RV) ||
          Br.K != 0 || (Br.C != Cond::EQ && Br.C != Cond::NEQ))
        return nullptr;
      return &Br;
    };

    // Retire a fused branch inline. On entry the boolean RV word is live
    // in rdi and the virtual stack is materialized. The block's fit test
    // already charged the branch, and nothing on the fast path can raise
    // Halted or GcPending, so its boundary is free: bump its opcode and
    // dispatch on the boolean directly. The standalone branch block is
    // still emitted for other predecessors and for the slow path, which
    // resumes at the branch's own entry.
    auto emitBoolTail = [&](int Idx, const XInsn &Br) {
      A.incMemQ(R13, MO.PerOp0 +
                         8 * static_cast<int32_t>(
                                 static_cast<size_t>(Br.OrigOp)));
      A.testRR(RDI, RDI);
      // JmpzRK RV,0: EQ takes when the boolean is NilWord (false).
      jccTo(Br.C == Cond::EQ ? CC_E : CC_NE, Fi, Br.Target);
      jmpTo(Fi, Idx + 2);
    };

    // One instruction template, emitted inside a block body. `C` carries
    // the virtual-stack state; instruction retirement (r14) and the
    // PerOpcode histogram are the block loop's job.
    auto emitInsn = [&](int Idx, VCtx &C) {
      const XInsn &I = DF.Code[static_cast<size_t>(Idx)];
      const int Next = Idx + 1;

      switch (I.Op) {
      // ---- MOV family (inline, all twelve mode pairs) ------------------
      case XOp::MovRR:
      case XOp::MovRK:
      case XOp::MovRM:
      case XOp::MovRX:
      case XOp::MovMR:
      case XOp::MovMK:
      case XOp::MovMM:
      case XOp::MovMX:
      case XOp::MovXR:
      case XOp::MovXK:
      case XOp::MovXM:
      case XOp::MovXX: {
        bool RegDst = I.Op == XOp::MovRR || I.Op == XOp::MovRK ||
                      I.Op == XOp::MovRM || I.Op == XOp::MovRX;
        // A live virtual segment defers Regs[SP]: materialize when the
        // instruction reads SP (stale in memory), writes SP (invalidates
        // the cached base), or stores to memory (could overwrite a
        // virtual slot's write-through copy, making the register stale).
        bool SrcSp =
            (I.Op == XOp::MovRR && I.B == static_cast<uint8_t>(s1::SP)) ||
            ((I.Op == XOp::MovRM || I.Op == XOp::MovRX) && memUsesSp(I.MB));
        if (!RegDst || I.A == static_cast<uint8_t>(s1::SP) || SrcSp)
          mat(C);
        A.incMemQ(R13, MO.Movs);
        // Source value into RCX (register/constant sources), or source EA
        // into RAX then load.
        auto loadSrc = [&] {
          switch (I.Op) {
          case XOp::MovRR:
          case XOp::MovMR:
          case XOp::MovXR:
            A.loadQ(RCX, RBX, -1, 0, static_cast<int32_t>(I.B) * 8);
            break;
          case XOp::MovRK:
          case XOp::MovMK:
          case XOp::MovXK:
            A.movRI(RCX, I.K);
            break;
          case XOp::MovRM:
          case XOp::MovMM:
          case XOp::MovXM:
            emitEaS(RAX, RCX, I.MB);
            checkAddrC(RAX, Next, C, Idx);
            A.loadQ(RCX, R12, RAX, 3, 0);
            break;
          default: // MovRX / MovMX / MovXX
            emitEaX(RAX, RCX, RDX, I.MB);
            checkAddrC(RAX, Next, C, Idx);
            A.loadQ(RCX, R12, RAX, 3, 0);
            break;
          }
        };
        loadSrc();
        switch (I.Op) {
        case XOp::MovRR:
        case XOp::MovRK:
        case XOp::MovRM:
        case XOp::MovRX:
          A.storeQ(RCX, RBX, -1, 0, static_cast<int32_t>(I.A) * 8);
          break;
        case XOp::MovMR:
        case XOp::MovMK:
        case XOp::MovMM:
        case XOp::MovMX:
          emitEaS(RAX, RDX, I.MA);
          checkAddrC(RAX, Next, C, Idx);
          A.storeQ(RCX, R12, RAX, 3, 0);
          break;
        default: // MovX* destinations
          emitEaX(RAX, RDX, RSI, I.MA);
          checkAddrC(RAX, Next, C, Idx);
          A.storeQ(RCX, R12, RAX, 3, 0);
          break;
        }
        break;
      }

      // ---- stack traffic ----------------------------------------------
      case XOp::PushR:
      case XOp::PushK:
      case XOp::PushM:
      case XOp::PushX: {
        // Virtual push: bound-check first (threaded traps before reading
        // the value), value into the next virtual register with its
        // write-through store, Regs[SP]/StackHighWater deferred.
        bool SrcSp =
            (I.Op == XOp::PushR && I.B == static_cast<uint8_t>(s1::SP)) ||
            ((I.Op == XOp::PushM || I.Op == XOp::PushX) && memUsesSp(I.MB));
        if (SrcSp)
          mat(C);
        if (C.Depth == 4)
          mat(C); // register file full: commit and start a new segment
        ensureSpBase(C);
        unsigned V = VRegs[C.Depth];
        // One combined guard on the segment base: slots below
        // StackLimit-1 are in bounds, so a single compare covers both the
        // overflow check and the store fault, and the store indexes off
        // rbp directly. The cold stub reconstructs the slot (rbp is still
        // live there) and separates overflow from the Sp = 2^64-1 wrap,
        // which the threaded engine lets through its overflow check only
        // to fault in mem() — status and boundary match either way. A
        // wrapping rbp + Depth is unreachable for Depth > 0: the
        // segment's earlier pushes trap first.
        static_assert(StackBase + StackWords <= MemoryWords,
                      "the stack region lies inside memory");
        A.cmpRI(RBP, StackLimit - 1 - C.Depth);
        jccStubC(CC_AE, PushColdStatus, Next, C, Idx);
        switch (I.Op) {
        case XOp::PushR:
          A.loadQ(V, RBX, -1, 0, static_cast<int32_t>(I.B) * 8);
          break;
        case XOp::PushK:
          A.movRI(V, I.K);
          break;
        case XOp::PushM:
          emitEaS(RDX, RSI, I.MB);
          checkAddrC(RDX, Next, C, Idx);
          A.loadQ(V, R12, RDX, 3, 0);
          break;
        default: // PushX
          emitEaX(RDX, RSI, RDI, I.MB);
          checkAddrC(RDX, Next, C, Idx);
          A.loadQ(V, R12, RDX, 3, 0);
          break;
        }
        A.storeQ(V, R12, RBP, 3, C.Depth * 8);
        C.Depth += 1;
        C.Peak = std::max(C.Peak, C.Depth);
        break;
      }

      case XOp::PopR: {
        if (I.A == static_cast<uint8_t>(s1::SP))
          mat(C); // popping into SP rewrites the deferred base itself
        if (C.Depth > 0) {
          // Virtual pop: the value is still live in a host register.
          A.storeQ(VRegs[C.Depth - 1], RBX, -1, 0,
                   static_cast<int32_t>(I.A) * 8);
          C.Depth -= 1;
          break;
        }
        // Popping below the segment base: settle the deferred high-water
        // mark, then run the classic template against memory SP (which is
        // architecturally correct — the deferred delta is zero).
        syncShw(C);
        C.SpCached = false;
        A.loadQ(RAX, RBX, -1, 0, SpOff);
        A.subRI(RAX, 1);
        A.storeQ(RAX, RBX, -1, 0, SpOff);
        checkAddrC(RAX, Next, C, Idx);
        A.loadQ(RCX, R12, RAX, 3, 0);
        A.storeQ(RCX, RBX, -1, 0, static_cast<int32_t>(I.A) * 8);
        break;
      }

      // ---- integer ALU register forms ---------------------------------
      case XOp::AddRR:
      case XOp::SubRR: {
        if (I.A == static_cast<uint8_t>(s1::SP) ||
            I.B == static_cast<uint8_t>(s1::SP))
          mat(C);
        A.loadQ(RAX, RBX, -1, 0, static_cast<int32_t>(I.A) * 8);
        A.opMem(true, {I.Op == XOp::AddRR ? uint8_t(0x03) : uint8_t(0x2B)},
                RAX, RBX, -1, 0, static_cast<int32_t>(I.B) * 8);
        A.storeQ(RAX, RBX, -1, 0, static_cast<int32_t>(I.A) * 8);
        break;
      }
      case XOp::AddRK:
      case XOp::SubRK: {
        if (I.A == static_cast<uint8_t>(s1::SP))
          mat(C);
        A.loadQ(RAX, RBX, -1, 0, static_cast<int32_t>(I.A) * 8);
        int64_t K = static_cast<int64_t>(I.K);
        if (fitsI32(K)) {
          A.aluRI(I.Op == XOp::AddRK ? 0 : 5, RAX, static_cast<int32_t>(K));
        } else {
          A.movRI(RCX, I.K);
          if (I.Op == XOp::AddRK)
            A.addRR(RAX, RCX);
          else
            A.subRR(RAX, RCX);
        }
        A.storeQ(RAX, RBX, -1, 0, static_cast<int32_t>(I.A) * 8);
        break;
      }

      // ---- control (always block terminators: materialize first) ------
      case XOp::Jmp:
        mat(C);
        jmpTo(Fi, I.Target);
        break;

      case XOp::JmpzRR: {
        mat(C);
        A.loadQ(RAX, RBX, -1, 0, static_cast<int32_t>(I.A) * 8);
        A.opMem(true, {0x3B}, RAX, RBX, -1, 0,
                static_cast<int32_t>(I.B) * 8);
        jccTo(ccFor(I.C), Fi, I.Target);
        break;
      }
      case XOp::JmpzRK: {
        mat(C);
        A.loadQ(RAX, RBX, -1, 0, static_cast<int32_t>(I.A) * 8);
        int64_t K = static_cast<int64_t>(I.K);
        if (fitsI32(K)) {
          A.cmpRI(RAX, static_cast<int32_t>(K));
        } else {
          A.movRI(RCX, I.K);
          A.cmpRR(RAX, RCX);
        }
        jccTo(ccFor(I.C), Fi, I.Target);
        break;
      }

      case XOp::Call: {
        mat(C);
        A.incMemQ(R13, MO.Calls);
        A.loadQ(RAX, RBX, -1, 0, SpOff);
        A.lea(RCX, RAX, -1, 0, 4);
        A.cmpRI(RCX, StackLimit);
        jccStubC(CC_AE, JitStatus::StackOv, Next, C, Idx);
        checkAddrC(RAX, Next, C, Idx);
        A.movRI(RCX, (static_cast<uint64_t>(F + 1) << 32) |
                         static_cast<uint32_t>(Next));
        A.storeQ(RCX, R12, RAX, 3, 0);
        A.incR(RAX);
        A.storeQ(RAX, RBX, -1, 0, SpOff);
        emitShw(RAX, RCX);
        jmpTo(I.Target, 0);
        break;
      }

      case XOp::CallPtr:
      case XOp::TailCallPtr: {
        mat(C);
        bool IsTail = I.Op == XOp::TailCallPtr;
        A.incMemQ(R13, IsTail ? MO.TailCalls : MO.Calls);
        emitXRead(RAX, RAX, RCX, RDX, I.GA, Next, C, Idx); // Fn word
        A.movRR(RCX, RAX);
        A.shrRI(RCX, static_cast<uint8_t>(TagShift));
        A.cmpRI(RCX, static_cast<int32_t>(Tag::Function));
        jccStubC(CC_NE, JitStatus::NotFunc, Next, C, Idx);
        A.movRR32(RDX, RAX); // addrOf(Fn)
        // Regs[1] = mem(addr + 1): the closure environment.
        A.lea(RCX, RDX, -1, 0, 1);
        checkAddrC(RCX, Next, C, Idx);
        A.loadQ(RSI, R12, RCX, 3, 0);
        A.storeQ(RSI, RBX, -1, 0, 1 * 8);
        // Callee function index from the function cell (addr < MW is
        // implied by addr+1 < MW — addrOf is 32-bit, no wrap).
        A.loadQ(R11, R12, RDX, 3, 0);
        A.movRR32(R11, R11);
        if (!IsTail) {
          // push(makeRetWord(F, Next)) — no +4 headroom check, exactly
          // like the threaded CALLPTR handler.
          A.loadQ(RAX, RBX, -1, 0, SpOff);
          checkAddrC(RAX, Next, C, Idx);
          A.movRI(RCX, (static_cast<uint64_t>(F + 1) << 32) |
                           static_cast<uint32_t>(Next));
          A.storeQ(RCX, R12, RAX, 3, 0);
          A.incR(RAX);
          A.storeQ(RAX, RBX, -1, 0, SpOff);
          emitShw(RAX, RCX);
        } else {
          // TailTransfer(K, callee) with the callee index live in r11.
          int32_t K = static_cast<int32_t>(I.S2);
          A.loadQ(RAX, RBX, -1, 0, static_cast<int32_t>(s1::FP) * 8);
          checkAddrC(RAX, Next, C, Idx);
          A.lea(RCX, RAX, -1, 0, 1);
          checkAddrC(RCX, Next, C, Idx);
          A.loadQ(RDX, R12, RCX, 3, 0); // frame argc
          A.cmpRI(RDX, K);
          jccStubC(CC_B, JitStatus::TailOv, Next, C, Idx);
          A.loadQ(RSI, R12, RAX, 3, 0); // env slot = mem(FP+0)
          A.storeQ(RSI, RBX, -1, 0, static_cast<int32_t>(s1::ENV) * 8);
          A.lea(RCX, RAX, -1, 0, -1);
          checkAddrC(RCX, Next, C, Idx);
          A.loadQ(RDI, R12, RCX, 3, 0); // old FP
          if (K > 0) {
            A.loadQ(RSI, RBX, -1, 0, SpOff);
            A.subRI(RSI, K);                // arg source base
            A.lea(RCX, RAX, -1, 0, -2 - K); // arg destination base
            A.movRI(R8, 0);
            size_t LoopTop = A.pos();
            A.cmpRI(R8, K);
            size_t Done = A.jccL(CC_E);
            A.lea(R9, RSI, R8, 0, 0);
            checkAddrC(R9, Next, C, Idx);
            A.loadQ(R10, R12, R9, 3, 0);
            A.lea(R9, RCX, R8, 0, 0);
            checkAddrC(R9, Next, C, Idx);
            A.storeQ(R10, R12, R9, 3, 0);
            A.addRI(R8, 1);
            A.jmpFixed(LoopTop);
            A.bind(Done);
          }
          A.lea(RDX, RAX, -1, 0, -1);
          A.storeQ(RDX, RBX, -1, 0, SpOff);
          A.storeQ(RDI, RBX, -1, 0, static_cast<int32_t>(s1::FP) * 8);
          A.storeQImm(RBX, static_cast<int32_t>(s1::RTA) * 8, K);
        }
        // Indirect transfer to the callee's entry template.
        A.movRI(RSI, FTData);
        A.loadQ(RSI, RSI, R11, 3, 0);
        A.loadQ(RSI, RSI, -1, 0, 0);
        A.jmpReg(RSI);
        break;
      }

      case XOp::TailCall: {
        mat(C);
        A.incMemQ(R13, MO.TailCalls);
        int32_t K = static_cast<int32_t>(I.S2);
        A.loadQ(RAX, RBX, -1, 0, static_cast<int32_t>(s1::FP) * 8);
        checkAddrC(RAX, Next, C, Idx);
        A.lea(RCX, RAX, -1, 0, 1);
        checkAddrC(RCX, Next, C, Idx);
        A.loadQ(RDX, R12, RCX, 3, 0);
        A.cmpRI(RDX, K);
        jccStubC(CC_B, JitStatus::TailOv, Next, C, Idx);
        A.loadQ(RSI, R12, RAX, 3, 0);
        A.storeQ(RSI, RBX, -1, 0, static_cast<int32_t>(s1::ENV) * 8);
        A.lea(RCX, RAX, -1, 0, -1);
        checkAddrC(RCX, Next, C, Idx);
        A.loadQ(RDI, R12, RCX, 3, 0);
        if (K > 0) {
          A.loadQ(RSI, RBX, -1, 0, SpOff);
          A.subRI(RSI, K);
          A.lea(RCX, RAX, -1, 0, -2 - K);
          A.movRI(R8, 0);
          size_t LoopTop = A.pos();
          A.cmpRI(R8, K);
          size_t Done = A.jccL(CC_E);
          A.lea(R9, RSI, R8, 0, 0);
          checkAddrC(R9, Next, C, Idx);
          A.loadQ(R10, R12, R9, 3, 0);
          A.lea(R9, RCX, R8, 0, 0);
          checkAddrC(R9, Next, C, Idx);
          A.storeQ(R10, R12, R9, 3, 0);
          A.addRI(R8, 1);
          A.jmpFixed(LoopTop);
          A.bind(Done);
        }
        A.lea(RDX, RAX, -1, 0, -1);
        A.storeQ(RDX, RBX, -1, 0, SpOff);
        A.storeQ(RDI, RBX, -1, 0, static_cast<int32_t>(s1::FP) * 8);
        A.storeQImm(RBX, static_cast<int32_t>(s1::RTA) * 8, K);
        jmpTo(I.Target, 0);
        break;
      }

      case XOp::Ret: {
        mat(C);
        A.loadQ(RAX, RBX, -1, 0, SpOff);
        A.subRI(RAX, 1);
        A.storeQ(RAX, RBX, -1, 0, SpOff);
        checkAddrC(RAX, Next, C, Idx);
        A.loadQ(RCX, R12, RAX, 3, 0); // return word
        A.testRR(RCX, RCX);
        A.jccFixed(CC_E, OkStubOff); // host sentinel
        A.movRR(RDX, RCX);
        A.shrRI(RDX, 32);
        A.subRI(RDX, 1); // function index
        A.cmpRI(RDX, static_cast<int32_t>(NF));
        jccStubC(CC_AE, JitStatus::BadRet, Next, C, Idx);
        A.movRR32(RCX, RCX); // pc half, at most the function's size
        A.movRI(RSI, SizesData);
        A.opMem(true, {0x3B}, RCX, RSI, RDX, 3, 0); // cmp rcx, Sizes[rdx]
        jccStubC(CC_A, JitStatus::BadRet, Next, C, Idx);
        A.movRI(RSI, FTData);
        A.loadQ(RSI, RSI, RDX, 3, 0);
        A.loadQ(RSI, RSI, RCX, 3, 0);
        A.jmpReg(RSI);
        break;
      }

      // ---- allocation --------------------------------------------------
      case XOp::Alloc: {
        mat(C);
        A.storeQ(R14, R13, -1, 0, MO.Instr);
        A.movRR(RDI, R13);
        A.movRI(RSI, static_cast<uint64_t>(I.S1));
        A.movRI(RDX, static_cast<uint64_t>(I.S2));
        A.movRI(RAX, reinterpret_cast<uint64_t>(&JitAccess::allocShim));
        A.callReg(RAX);
        A.cmpByteMemI(R13, MO.Halted, 0);
        jccStubC(CC_NE, JitStatus::HeapExh, Next, C, Idx);
        switch (I.GA.M) {
        case XArg::Mode::Reg:
          A.storeQ(RAX, RBX, -1, 0, static_cast<int32_t>(I.GA.R) * 8);
          break;
        case XArg::Mode::Mem:
          emitEa(RCX, RDX, RSI, I.GA.Mem);
          checkAddrC(RCX, Next, C, Idx);
          A.storeQ(RAX, R12, RCX, 3, 0);
          break;
        default:
          break; // xwrite drops Const/None destinations
        }
        break;
      }

      // ---- runtime services -------------------------------------------
      case XOp::Syscall: {
        Syscall S = static_cast<Syscall>(I.S1);
        std::vector<size_t> Slow;
        auto toSlow = [&](uint8_t CC) { Slow.push_back(A.jccL(CC)); };

        // Mat-first-keep-copies: record which virtual registers hold the
        // operands, then materialize. mat() clobbers only rax/rcx, so the
        // copies stay live, every tag-check bail reaches the generic
        // route with fully synced state (identical to the memory-path
        // bails), and the pops below are plain Regs[SP] decrements.
        //
        // Pop elision: when the virtual segment holds exactly the
        // operands the fast path pops, the deferred Regs[SP] bump
        // cancels against the pop — memory already holds the post-pop
        // SP, so only the high-water mark needs flushing and the
        // Regs[SP] round-trip disappears. Bails to the generic route
        // re-materialize the pre-pop SP at the Slow label below.
        const int D0 = C.Depth;
        int NPops = 0;
        if (S == Syscall::GenericAdd || S == Syscall::GenericSub ||
            S == Syscall::GenericMul || S == Syscall::GenericCompare ||
            S == Syscall::Cons)
          NPops = 2;
        else if ((S == Syscall::GenericNumPred &&
                  static_cast<PredCode>(I.S2) >= PredCode::Zerop &&
                  static_cast<PredCode>(I.S2) <= PredCode::Minusp) ||
                 (S == Syscall::GenericUnary &&
                  (static_cast<UnaryCode>(I.S2) == UnaryCode::Neg ||
                   static_cast<UnaryCode>(I.S2) == UnaryCode::Abs ||
                   static_cast<UnaryCode>(I.S2) == UnaryCode::Add1 ||
                   static_cast<UnaryCode>(I.S2) == UnaryCode::Sub1)))
          NPops = 1;
        const bool Popped = NPops > 0 && D0 == NPops;
        if (Popped) {
          syncShw(C);
          C.Depth = 0; // rbp stays cached: it already equals Regs[SP]
        } else {
          mat(C);
        }

        if (S == Syscall::GenericAdd || S == Syscall::GenericSub ||
            S == Syscall::GenericMul) {
          unsigned VA = RCX, VB = RDX;
          if (D0 >= 2) {
            // Both operands are still in virtual registers; the segment's
            // own bound checks proved 2 <= SP <= MemoryWords.
            VA = VRegs[D0 - 2];
            VB = VRegs[D0 - 1];
          } else {
            A.loadQ(RAX, RBX, -1, 0, SpOff);
            A.cmpRI(RAX, 2);
            toSlow(CC_B);
            A.cmpRI(RAX, MW);
            toSlow(CC_A);
            A.loadQ(RCX, R12, RAX, 3, -16); // AW
            A.loadQ(RDX, R12, RAX, 3, -8);  // BW
          }
          A.movRR(RSI, VA);
          A.shrRI(RSI, static_cast<uint8_t>(TagShift));
          A.cmpRI(RSI, static_cast<int32_t>(Tag::Fixnum));
          toSlow(CC_NE);
          A.movRR(RSI, VB);
          A.shrRI(RSI, static_cast<uint8_t>(TagShift));
          A.cmpRI(RSI, static_cast<int32_t>(Tag::Fixnum));
          toSlow(CC_NE);
          A.incMemQ(R13, MO.Syscalls);
          // The threaded fast path pops before it traps on overflow.
          if (!Popped)
            A.aluMemI(5, RBX, SpOff, 2);
          A.movsxd(RCX, VA); // fixnumValue
          A.movsxd(RDX, VB);
          if (S == Syscall::GenericAdd)
            A.addRR(RCX, RDX);
          else if (S == Syscall::GenericSub)
            A.subRR(RCX, RDX);
          else
            A.imulRR(RCX, RDX);
          A.movsxd(RSI, RCX); // 32-bit range check
          A.cmpRR(RSI, RCX);
          jccStubC(CC_NE, JitStatus::FixOv, Next, C, Idx);
          A.movRR32(RCX, RCX); // makeFixnum: zero-extend, set the tag bit
          A.btsRI(RCX, static_cast<uint8_t>(TagShift));
          A.storeQ(RCX, RBX, -1, 0, static_cast<int32_t>(s1::RV) * 8);
          jmpTo(Fi, Next);
        } else if (S == Syscall::GenericCompare) {
          const XInsn *Br = fusedBranch(Idx);
          if (Br)
            ++JitStatFused;
          unsigned VA = RCX, VB = RDX;
          if (D0 >= 2) {
            VA = VRegs[D0 - 2];
            VB = VRegs[D0 - 1];
          } else {
            A.loadQ(RAX, RBX, -1, 0, SpOff);
            A.cmpRI(RAX, 2);
            toSlow(CC_B);
            A.cmpRI(RAX, MW);
            toSlow(CC_A);
            A.loadQ(RCX, R12, RAX, 3, -16);
            A.loadQ(RDX, R12, RAX, 3, -8);
          }
          A.movRR(RSI, VA);
          A.shrRI(RSI, static_cast<uint8_t>(TagShift));
          A.cmpRI(RSI, static_cast<int32_t>(Tag::Fixnum));
          toSlow(CC_NE);
          A.movRR(RSI, VB);
          A.shrRI(RSI, static_cast<uint8_t>(TagShift));
          A.cmpRI(RSI, static_cast<int32_t>(Tag::Fixnum));
          toSlow(CC_NE);
          // trueWord() must already be memoized — a miss could allocate.
          A.loadQ(RSI, R13, -1, 0, MO.CachedT);
          A.testRR(RSI, RSI);
          toSlow(CC_E);
          A.incMemQ(R13, MO.Syscalls);
          A.movsxd(RCX, VA);
          A.movsxd(RDX, VB);
          A.xorRR32(RDI, RDI); // NilWord
          A.cmpRR(RCX, RDX);
          A.cmov(ccFor(static_cast<Cond>(I.S2)), RDI, RSI);
          if (!Popped)
            A.aluMemI(5, RBX, SpOff, 2);
          A.storeQ(RDI, RBX, -1, 0, static_cast<int32_t>(s1::RV) * 8);
          if (Br)
            emitBoolTail(Idx, *Br);
          else
            jmpTo(Fi, Next);
        } else if (S == Syscall::GenericNumPred &&
                   static_cast<PredCode>(I.S2) >= PredCode::Zerop &&
                   static_cast<PredCode>(I.S2) <= PredCode::Minusp) {
          PredCode PC = static_cast<PredCode>(I.S2);
          const XInsn *Br = fusedBranch(Idx);
          if (Br)
            ++JitStatFused;
          unsigned VB = RDX;
          if (D0 >= 1) {
            VB = VRegs[D0 - 1];
          } else {
            A.loadQ(RAX, RBX, -1, 0, SpOff);
            A.cmpRI(RAX, 1);
            toSlow(CC_B);
            A.cmpRI(RAX, MW);
            toSlow(CC_A);
            A.loadQ(RDX, R12, RAX, 3, -8);
          }
          A.movRR(RSI, VB);
          A.shrRI(RSI, static_cast<uint8_t>(TagShift));
          A.cmpRI(RSI, static_cast<int32_t>(Tag::Fixnum));
          toSlow(CC_NE);
          A.loadQ(RSI, R13, -1, 0, MO.CachedT);
          A.testRR(RSI, RSI);
          toSlow(CC_E);
          A.incMemQ(R13, MO.Syscalls);
          if (!Popped)
            A.aluMemI(5, RBX, SpOff, 1);
          A.movsxd(RDX, VB);   // fixnumValue
          A.xorRR32(RDI, RDI); // NilWord — before the flag-setting test
          uint8_t CC = CC_E;
          switch (PC) {
          case PredCode::Zerop:
            A.testRR(RDX, RDX);
            CC = CC_E;
            break;
          case PredCode::Oddp:
            // V & 1 != 0 <=> V % 2 != 0, negatives included (two's compl).
            A.aluRI(4, RDX, 1);
            CC = CC_NE;
            break;
          case PredCode::Evenp:
            A.aluRI(4, RDX, 1);
            CC = CC_E;
            break;
          case PredCode::Plusp:
            A.cmpRI(RDX, 0);
            CC = CC_G;
            break;
          default: // Minusp
            A.cmpRI(RDX, 0);
            CC = CC_L;
            break;
          }
          A.cmov(CC, RDI, RSI);
          A.storeQ(RDI, RBX, -1, 0, static_cast<int32_t>(s1::RV) * 8);
          if (Br)
            emitBoolTail(Idx, *Br);
          else
            jmpTo(Fi, Next);
        } else if (S == Syscall::GenericUnary &&
                   (static_cast<UnaryCode>(I.S2) == UnaryCode::Neg ||
                    static_cast<UnaryCode>(I.S2) == UnaryCode::Abs ||
                    static_cast<UnaryCode>(I.S2) == UnaryCode::Add1 ||
                    static_cast<UnaryCode>(I.S2) == UnaryCode::Sub1)) {
          UnaryCode UC = static_cast<UnaryCode>(I.S2);
          unsigned VB = RCX;
          if (D0 >= 1) {
            VB = VRegs[D0 - 1];
          } else {
            A.loadQ(RAX, RBX, -1, 0, SpOff);
            A.cmpRI(RAX, 1);
            toSlow(CC_B);
            A.cmpRI(RAX, MW);
            toSlow(CC_A);
            A.loadQ(RCX, R12, RAX, 3, -8);
          }
          A.movRR(RSI, VB);
          A.shrRI(RSI, static_cast<uint8_t>(TagShift));
          A.cmpRI(RSI, static_cast<int32_t>(Tag::Fixnum));
          toSlow(CC_NE);
          A.incMemQ(R13, MO.Syscalls);
          if (!Popped)
            A.aluMemI(5, RBX, SpOff, 1); // pop first
          A.movsxd(RCX, VB);
          switch (UC) {
          case UnaryCode::Neg:
            A.negR(RCX);
            break;
          case UnaryCode::Abs: // V < 0 ? -V : V
            A.movRR(RDX, RCX);
            A.negR(RDX);
            A.testRR(RCX, RCX);
            A.cmov(CC_S, RCX, RDX);
            break;
          case UnaryCode::Add1:
            A.addRI(RCX, 1);
            break;
          default: // Sub1
            A.subRI(RCX, 1);
            break;
          }
          A.movsxd(RSI, RCX);
          A.cmpRR(RSI, RCX);
          jccStubC(CC_NE, JitStatus::FixOv, Next, C, Idx);
          A.movRR32(RCX, RCX); // makeFixnum: zero-extend, set the tag bit
          A.btsRI(RCX, static_cast<uint8_t>(TagShift));
          A.storeQ(RCX, RBX, -1, 0, static_cast<int32_t>(s1::RV) * 8);
          jmpTo(Fi, Next);
        } else if (S == Syscall::Cons && !GcOn) {
          // Inline bump allocation. Every bail (operand range, heap
          // exhaustion) happens before any mutation, so the generic route
          // re-runs the whole syscall — including the halt-on-exhaustion
          // protocol — exactly like the threaded engine.
          ++JitStatConsSites;
          unsigned VCar = RSI, VCdr = RDX;
          if (D0 >= 2) {
            VCar = VRegs[D0 - 2]; // threaded pops Cdr first, then Car
            VCdr = VRegs[D0 - 1];
          } else {
            A.loadQ(RAX, RBX, -1, 0, SpOff);
            A.cmpRI(RAX, 2);
            toSlow(CC_B);
            A.cmpRI(RAX, MW);
            toSlow(CC_A);
            A.loadQ(RSI, R12, RAX, 3, -16); // Car
            A.loadQ(RDX, R12, RAX, 3, -8);  // Cdr
          }
          A.loadQ(RAX, R13, -1, 0, MO.HeapTop);
          A.lea(RCX, RAX, -1, 0, 2);
          A.cmpRI(RCX, HeapEnd);
          toSlow(CC_A); // exhausted: the C++ allocator halts the machine
          A.storeQ(RCX, R13, -1, 0, MO.HeapTop);
          A.incMemQ(R13, MO.HeapObjects);
          A.aluMemI(0, R13, MO.HeapWords, 2);
          A.incMemQ(R13, MO.Syscalls);
          A.incMemQ(R13, MO.ConsHits);
          if (!Popped)
            A.aluMemI(5, RBX, SpOff, 2);
          // HeapTop < HeapEnd <= MemoryWords: the stores cannot fault.
          A.storeQ(VCar, R12, RAX, 3, 0);
          A.storeQ(VCdr, R12, RAX, 3, 8);
          A.movRI(RDI, static_cast<uint64_t>(Tag::Cons) << TagShift);
          A.orRR(RAX, RDI); // makePointer(Cons, addr)
          A.storeQ(RAX, RBX, -1, 0, static_cast<int32_t>(s1::RV) * 8);
          jmpTo(Fi, Next);
        } else if (S == Syscall::Cons && GcOn) {
          // GC mode: free-list reuse and the collection-trigger accounting
          // live in Machine::allocate, so call a dedicated shim — still
          // skipping the full syscall dispatch. Operand pops happen before
          // the call, matching the threaded handler's order.
          unsigned VCar = RSI, VCdr = RDX;
          if (D0 >= 2) {
            A.movRR(RSI, VRegs[D0 - 2]);
            A.movRR(RDX, VRegs[D0 - 1]);
          } else {
            A.loadQ(RAX, RBX, -1, 0, SpOff);
            A.cmpRI(RAX, 2);
            toSlow(CC_B);
            A.cmpRI(RAX, MW);
            toSlow(CC_A);
            A.loadQ(RSI, R12, RAX, 3, -16); // Car
            A.loadQ(RDX, R12, RAX, 3, -8);  // Cdr
          }
          (void)VCar;
          (void)VCdr;
          A.incMemQ(R13, MO.Syscalls);
          A.incMemQ(R13, MO.ConsMisses);
          if (!Popped)
            A.aluMemI(5, RBX, SpOff, 2);
          A.storeQ(R14, R13, -1, 0, MO.Instr);
          A.movRR(RDI, R13);
          A.movRI(RAX, reinterpret_cast<uint64_t>(&JitAccess::consShim));
          A.callReg(RAX);
          A.storeQ(RAX, RBX, -1, 0, static_cast<int32_t>(s1::RV) * 8);
          // Heap exhaustion halts inside allocate; the threaded engine
          // observes it at the next boundary.
          A.cmpByteMemI(R13, MO.Halted, 0);
          jccStubC(CC_NE, JitStatus::HaltedMem, Next, C, Idx);
          jmpTo(Fi, Next);
        }

        for (size_t P : Slow)
          A.bind(P);
        if (Popped) {
          // The elided pop means memory holds the post-pop SP; the
          // generic route re-runs the whole syscall and must see the
          // operands still pushed.
          A.lea(RAX, RBP, -1, 0, D0);
          A.storeQ(RAX, RBX, -1, 0, SpOff);
        }
        if (C.Extra > 0)
          A.subRI(R14, C.Extra); // un-retire the unexecuted fused branch
        if (S == Syscall::Cons)
          A.incMemQ(R13, MO.ConsMisses);
        emitSyscallGeneric(I, Idx);
        break;
      }

      case XOp::Halt:
        mat(C);
        trapStub(JitStatus::Halt, Next, C, Idx).push_back(A.jmpL());
        break;

      // ---- cold opcodes: one call into the C++ executor ----------------
      // It reads no run counter, so the bulk charge can stay in r14.
      default: {
        bool Branches = I.Op == XOp::JmpzG || I.Op == XOp::FJmpzG;
        bool CanDiv0 = I.Op == XOp::Alu2G || I.Op == XOp::Alu3G;
        mat(C);
        A.movRR(RDI, R13);
        A.movRI(RSI, reinterpret_cast<uint64_t>(&I));
        A.movRI(RAX, reinterpret_cast<uint64_t>(&JitAccess::coldShim));
        A.callReg(RAX);
        if (CanDiv0) {
          A.cmpRI(RAX, -1);
          jccStubC(CC_E, JitStatus::Div0, Next, C, Idx);
        }
        if (Branches) {
          A.cmpRI(RAX, 1);
          size_t Fall = A.jccL(CC_NE);
          // Taken: the threaded loop would trap at the *target* boundary
          // if the operand reads faulted.
          A.cmpByteMemI(R13, MO.Halted, 0);
          jccStubC(CC_NE, JitStatus::HaltedMem, I.Target, C, Idx);
          jmpTo(Fi, I.Target);
          A.bind(Fall);
        }
        A.cmpByteMemI(R13, MO.Halted, 0);
        jccStubC(CC_NE, JitStatus::HaltedMem, Next, C, Idx);
        break;
      }
      }
    };

    // ---- block loop ----------------------------------------------------
    // Every pc a host or a return word enters at is a leader (Predecode's
    // invariant), so only block entries need the boundary protocol.
    // Does the block's terminating instruction retire a fused boolean
    // branch on its fast path? Must mirror the emitInsn fast-path
    // conditions exactly — the fit test precharges the branch.
    auto blockFusesTail = [&](int Idx) {
      const XInsn &I = DF.Code[static_cast<size_t>(Idx)];
      if (I.Op != XOp::Syscall || !fusedBranch(Idx))
        return false;
      Syscall S = static_cast<Syscall>(I.S1);
      return S == Syscall::GenericCompare ||
             (S == Syscall::GenericNumPred &&
              static_cast<PredCode>(I.S2) >= PredCode::Zerop &&
              static_cast<PredCode>(I.S2) <= PredCode::Minusp);
    };

    int L = 0;
    for (;;) {
      JP->Offs[F][static_cast<size_t>(L)] = static_cast<uint32_t>(A.pos());
      if (L == Size) {
        // Fall-off trailer: the threaded loop raises this boundary's fuel
        // or pc-range trap.
        handoffStub(Size, 0).push_back(A.jmpL());
        break;
      }

      const int E = L + DF.Code[static_cast<size_t>(L)].Run;
      const int N = E - L;
      const bool Ends = endsControl(DF.Code[static_cast<size_t>(E - 1)].Op);
      const bool Fused = blockFusesTail(E - 1);
      const int Charge = N + (Fused ? 1 : 0);

      ++JitStatBlocks;
      JitStatBlockInsns += static_cast<uint64_t>(N);
      JitStatBlockInsnsMax.updateMax(static_cast<uint64_t>(N));
      if (N == 1)
        ++JitStatBlocks1;
      else if (N <= 3)
        ++JitStatBlocks2;
      else if (N <= 7)
        ++JitStatBlocks4;
      else
        ++JitStatBlocks8;
      JitStatElided += static_cast<uint64_t>(Charge - 1);

      // Fit test: bulk-retire the whole block (plus a fused branch, if
      // the tail has one) when it fits in the remaining fuel — threaded
      // runs all of it iff count + Charge <= limit. Otherwise hand off.
      A.addRI(R14, Charge);
      A.opRR(true, {0x3B}, R14, R15); // cmp r14, r15
      handoffStub(L, Charge).push_back(A.jccL(CC_A));
      if (GcOn) {
        A.cmpByteMemI(R13, MO.GcPending, 0);
        size_t Skip = A.jccL(CC_E);
        A.callFixed(GcStubOff);
        A.bind(Skip);
      }
      // Bulk PerOpcode: one add per distinct opcode replaces N
      // per-boundary bumps; trap stubs subtract the unexecuted tail back
      // out. A fused branch is NOT included — emitBoolTail bumps it, and
      // the generic slow route retires it at the branch's own block.
      std::map<int32_t, int32_t> OpCounts;
      for (int J = L; J < E; ++J)
        ++OpCounts[static_cast<int32_t>(static_cast<size_t>(
            DF.Code[static_cast<size_t>(J)].OrigOp))];
      for (const auto &[Op, Cnt] : OpCounts) {
        const int32_t Off = MO.PerOp0 + 8 * Op;
        if (Cnt == 1)
          A.incMemQ(R13, Off);
        else
          A.aluMemI(0, R13, Off, Cnt);
      }
      VCtx C; // blocks begin with the virtual stack empty
      C.End = E;
      C.Extra = Fused ? 1 : 0;
      for (int J = L; J < E; ++J)
        emitInsn(J, C);
      if (!Ends) {
        mat(C);
        jmpTo(Fi, E);
      }

      L = E;
    }

    // -- exit stubs for this function: roll back the bulk-retired tail,
    // settle the deferred stack state, then report ----------------------
    for (auto &[Key, Sites] : StubSites) {
      for (size_t P : Sites)
        A.bind(P);
      const int32_t St = Key.first[0], PcVal = Key.first[1],
                    Adj = Key.first[2], SpD = Key.first[3],
                    Peak = Key.first[4];
      const std::vector<int32_t> &Tail = Key.second;
      auto settleAndReport = [&](JitStatus Status) {
        if (Adj > 0)
          A.subRI(R14, Adj);
        // Un-bump the bulk PerOpcode adds for the unexecuted tail.
        for (size_t T = 0; T < Tail.size();) {
          size_t U = T;
          while (U < Tail.size() && Tail[U] == Tail[T])
            ++U;
          A.aluMemI(5, R13, MO.PerOp0 + 8 * Tail[T],
                    static_cast<int32_t>(U - T));
          T = U;
        }
        if (SpD > 0 || Peak > 0) {
          // Memory still holds the segment base (the bump was deferred).
          A.loadQ(RAX, RBX, -1, 0, SpOff);
          if (Peak > 0) {
            A.lea(RCX, RAX, -1, 0, Peak - static_cast<int32_t>(StackBase));
            A.cmpRM(RCX, R13, MO.SHW);
            size_t Skip = A.jccL(CC_BE);
            A.storeQ(RCX, R13, -1, 0, MO.SHW);
            A.bind(Skip);
          }
          if (SpD > 0) {
            A.lea(RAX, RAX, -1, 0, SpD);
            A.storeQ(RAX, RBX, -1, 0, SpOff);
          }
        }
        A.storeDImm(R13, MO.CurFunc, static_cast<int32_t>(F));
        A.storeDImm(R13, MO.Pc, PcVal);
        A.movRI(RAX, static_cast<uint64_t>(Status));
        A.jmpFixed(EpiOff);
      };
      if (St == static_cast<int32_t>(PushColdStatus)) {
        // Combined push guard: reconstruct the faulting Sp slot (rbp
        // still caches the segment base at every guard site; SpD is the
        // segment depth). The exact value 2^64-1 means the threaded
        // overflow check wrapped and the push faulted in mem() instead;
        // everything else is overflow.
        A.lea(RAX, RBP, -1, 0, SpD);
        A.cmpRI(RAX, -1);
        size_t Hm = A.jccL(CC_E);
        settleAndReport(JitStatus::StackOv);
        A.bind(Hm);
        settleAndReport(JitStatus::HaltedMem);
      } else {
        settleAndReport(static_cast<JitStatus>(St));
      }
    }
  }

  // ---- resolve instruction-address fixups ------------------------------
  for (const Fixup &Fx : Fixups) {
    int64_t Rel =
        static_cast<int64_t>(
            JP->Offs[static_cast<size_t>(Fx.Func)][static_cast<size_t>(
                Fx.Idx)]) -
        static_cast<int64_t>(Fx.At + 4);
    A.patch32(Fx.At, static_cast<int32_t>(Rel));
  }

  // ---- finalize: copy into a fresh RX mapping (W^X) --------------------
  size_t Len = A.B.size();
  void *Map = mmap(nullptr, Len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Map == MAP_FAILED)
    return nullptr;
  std::memcpy(Map, A.B.data(), Len);
  if (mprotect(Map, Len, PROT_READ | PROT_EXEC) != 0) {
    munmap(Map, Len);
    return nullptr;
  }
  JP->Base = static_cast<uint8_t *>(Map);
  JP->MapLen = Len;
  for (size_t F = 0; F < NF; ++F) {
    size_t N = JP->Offs[F].size();
    JP->AddrArrays[F] = std::make_unique<const uint8_t *[]>(N);
    for (size_t Idx = 0; Idx < N; ++Idx)
      JP->AddrArrays[F][Idx] = JP->Base + JP->Offs[F][Idx];
    JP->FuncTable[F] = JP->AddrArrays[F].get();
  }
  return JP;
}

#endif // S1_JIT_AVAILABLE

std::shared_ptr<const JitProgram>
compileJit(std::shared_ptr<const DecodedProgram> DP, const JitOptions &Opts,
           Machine &Layout) {
#if S1_JIT_AVAILABLE
  return JitAccess::compile(std::move(DP), Opts, Layout);
#else
  (void)DP;
  (void)Opts;
  (void)Layout;
  return nullptr;
#endif
}

} // namespace vm
} // namespace s1lisp
