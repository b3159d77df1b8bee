//===- vm/Jit.h - Native execution tier (block compiler) --------*- C++ -*-===//
///
/// \file
/// Translates a pre-decoded program (vm/Predecode.h) into executable
/// x86-64 by compiling whole basic blocks (the block at leader L ends at
/// L + Code[L].Run, the same blocks the threaded loop charges at entry)
/// into a contiguous W^X buffer with direct rel32 jumps for every resolved
/// branch target. Hot handlers (MOV/PUSH/POP/ALU/JMPZ/CALL/RET/tail calls
/// and the fixnum fast paths of the generic-arithmetic/compare/predicate
/// syscalls, plus an inline bump-allocating CONS) are emitted inline; the
/// cold handlers call the threaded engine's own executor
/// (Machine::coldOp) and the runtime-service layer calls doSyscall, so
/// the C++ engines hold the only other copy of their semantics.
///
/// Block-scoped optimizations (details atop vm/Jit.cpp):
///
///  * safepoint batching — each block is compiled once, behind one fit
///    test that bulk-retires the whole block; a block that does not fit in
///    the remaining fuel hands off to the threaded loop, which retires
///    the instructions that do and raises the exact trap, and trap stubs
///    keep every other trap message, pc, and MachineStats counter
///    byte-identical to the threaded engine;
///  * a write-through virtual operand stack — the top of the VM stack
///    rides in host registers across instruction boundaries, with
///    Regs[SP]/StackHighWater updates deferred to block exits and shims;
///  * compare+branch fusion — GenericCompare/GenericNumPred feeding
///    `JmpzRK RV,0` retire as a single test+jcc pair.
///
/// Block entries reproduce the threaded loop's trap ordering bit-exactly:
/// the fit test first, then the pending-GC check (compiled out when no GC
/// schedule is set — GcPending can only be raised by the allocator, and
/// allocating instructions always terminate a block). The threaded
/// engine therefore remains a differential oracle for the native tier:
/// values, error classes, and every architectural MachineStats counter
/// must match bit-identically.
///
/// Buffer lifecycle: code is emitted into ordinary memory, then copied
/// into a fresh anonymous mmap that is made PROT_READ|PROT_EXEC (never
/// writable and executable at once). A JitProgram is immutable after
/// construction and shared_ptr-shareable across Machines, like the
/// DecodedProgram it was compiled from (compileJit() decodes each function
/// as it compiles it). On non-x86-64 hosts compileJit() returns nullptr and
/// the Machine falls back to the threaded engine with a loud remark.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_VM_JIT_H
#define S1LISP_VM_JIT_H

#include "vm/Predecode.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace s1lisp {
namespace vm {

class Machine;

/// True when this build can emit and run native code (x86-64 hosts).
bool jitAvailable();

/// Flags baked into the emitted code.
struct JitOptions {
  /// Ignored: the native tier always keeps the per-opcode and MOV
  /// counters. The field stays only so `{true, Gc}` in
  /// s1bench/RunWorkload.cpp still compiles; delete it with that call.
  bool DetailedStats = true;
  bool GcEnabled = false;
};

/// Exit statuses the generated code returns to Machine::runNative, which
/// maps each onto the exact trap message the threaded engine would have
/// produced at the same instruction boundary.
enum class JitStatus : int {
  Ok = 0,      ///< RET popped the host sentinel
  Handoff,     ///< continue in the threaded loop at Machine's CurFunc/Pc:
               ///< that block does not fit in the remaining fuel, or
               ///< control fell off the end of a function
  HaltedMem,   ///< memory fault / halted flag observed at a boundary
  StackOv,     ///< PUSH/CALL stack-overflow guard
  Div0,        ///< integer division by zero
  SyscallErr,  ///< doSyscall trapped; Machine::NativeError holds the text
  Halt,        ///< HALT retired
  TailOv,      ///< tail call passes more arguments than the frame holds
  HeapExh,     ///< ALLOC exhausted the word heap
  NotFunc,     ///< CALLPTR/TAILCALLPTR through a non-Function word
  FixOv,       ///< inline fixnum fast path overflowed 32 bits
  BadRet,      ///< RET popped a word naming no function, or a pc past
               ///< its function's end
};

/// One program compiled to native code. Immutable; share freely. Keeps
/// the DecodedProgram it was built from alive (templates hold pointers to
/// its XInsns for the cold-handler and syscall fallbacks).
class JitProgram {
public:
  JitProgram() = default;
  ~JitProgram();
  JitProgram(const JitProgram &) = delete;
  JitProgram &operator=(const JitProgram &) = delete;

  bool matches(bool GcEnabled) const { return GcEnabled == GcOn; }

  /// True when this code was emitted from exactly \p P (guards against a
  /// Machine whose decoded program was swapped after compilation).
  bool builtFrom(const DecodedProgram *P) const { return DP.get() == P; }

  /// Native address of the block that starts at decoded index \p Pc of
  /// function \p Func (Pc == code size resolves to the fall-off trailer).
  /// Only leaders have native code; any other pc resolves to a stub that
  /// hands off to the threaded engine at the pc a RET left in edx/ecx.
  const void *addr(int Func, int Pc) const;

  /// Runs generated code starting at \p Start; returns a JitStatus value.
  /// \p Instructions seeds the retired count kept in a host register; the
  /// final value is written back to Machine::Stats by the epilogue.
  int invoke(uint64_t *Regs, uint64_t *Memory, Machine *M,
             uint64_t Instructions, uint64_t Fuel, const void *Start) const;

private:
  friend struct JitAccess;

  std::shared_ptr<const DecodedProgram> DP;
  uint8_t *Base = nullptr; ///< RX mapping; nullptr until finalized
  size_t MapLen = 0;
  size_t EntryOff = 0;
  bool GcOn = false;
  /// Per function, per decoded index (plus the fall-off trailer), the
  /// byte offset of the block that starts there.
  std::vector<std::vector<uint32_t>> Offs;
  /// Materialized address tables, indexed by the emitted code for RET and
  /// indirect calls: FuncTable[f][pc] -> native address.
  std::vector<std::unique_ptr<const uint8_t *[]>> AddrArrays;
  std::vector<const uint8_t **> FuncTable;
  /// Per function, its decoded size: the largest pc RET accepts before
  /// indexing FuncTable.
  std::vector<uint64_t> Sizes;
};

/// Compiles \p DP. \p Layout is any Machine instance — used only to
/// compute member offsets baked into the generated code. Returns nullptr
/// when the tier is unavailable (non-x86-64 build, mmap failure).
std::shared_ptr<const JitProgram>
compileJit(std::shared_ptr<const DecodedProgram> DP, const JitOptions &Opts,
           Machine &Layout);

} // namespace vm
} // namespace s1lisp

#endif // S1LISP_VM_JIT_H
