//===- vm/Predecode.h - Pre-decoded internal program form -------*- C++ -*-===//
///
/// \file
/// Lowers an assembled s1::Program into the dense internal form executed
/// by the simulator's threaded loop and compiled by its native tier:
///
///  * LABEL pseudo-ops are stripped and every branch target is resolved to
///    a decoded instruction index, so the hot loop never skips pseudo-ops;
///  * operand addressing modes are specialized into fused handler variants
///    (MovRR, MovRK, PushM, JmpzRK, ...) so the per-operand mode switch of
///    the legacy interpreter disappears from the hot path — immediates,
///    including float immediates, are pre-folded into raw machine words;
///  * catch handler labels and call targets are resolved at decode time.
///
/// Decoding is demand-driven, one function at a time. predecode() lowers
/// nothing: every function starts as a one-instruction decode stub. The
/// threaded loop lowers a function the first time control enters it (the
/// stub un-retires itself, decodes, and restarts at pc 0, so counters and
/// trap text are those of the decoded function), and compileJit lowers
/// every function it compiles. Each decode is timed as phase `vm.decode`
/// and counted as `vm.decode.functions`.
///
/// A DecodedProgram reads its s1::Program on demand, so the Program must
/// outlive it (and every Machine or JitProgram that shares it). Decoded
/// functions are published with release/acquire atomics under one lock,
/// so any number of Machines on any threads may share one
/// DecodedProgram: each function is decoded once, by whichever Machine
/// enters it first, and never changes afterwards.
///
/// The decoded form preserves the architectural counter semantics of the
/// legacy engine exactly: each decoded instruction remembers its original
/// opcode, which feeds the PerOpcode histogram and selects a cold op's
/// ALU or float operation. OrigPc maps decoded pcs back for trap
/// messages, so every engine reports the same text: decoded pc P > 0
/// reports as OrigPc[P-1]+1, the start of any run of labels before it,
/// which is where s1::AsmFunction::finalize places each label of a run.
/// Control that falls off the end reaches decoded index Code.size(),
/// where the threaded loop reports the "pc out of range" trap at the
/// function's original length, as legacy does after skipping trailing
/// labels.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_VM_PREDECODE_H
#define S1LISP_VM_PREDECODE_H

#include "s1/Isa.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace s1lisp {
namespace vm {

/// Fused handler selectors. Naming: operand shapes are R (register),
/// K (constant word, immediates pre-folded), M (memory base+displacement),
/// X (memory base+displacement+scaled index), G (generic pre-decoded
/// operand, for the cold opcodes).
enum class XOp : uint8_t {
  // MOV dst,src — the §6.1 workhorse, fully split by mode pair.
  MovRR, MovRK, MovRM, MovRX,
  MovMR, MovMK, MovMM, MovMX,
  MovXR, MovXK, MovXM, MovXX,
  // Stack traffic.
  PushR, PushK, PushM, PushX,
  PopR, PopM,
  // Integer ALU: two-op register destination forms are hot (SP bumps,
  // loop counters); everything else goes through the generic forms.
  AddRR, AddRK, SubRR, SubRK,
  Alu2G, Alu3G,
  // Conditional/unconditional control, targets pre-resolved.
  Jmp, JmpzRR, JmpzRK, JmpzG, FJmpzG,
  Call, CallPtr, TailCall, TailCallPtr, Ret,
  // Cold ops, executed over generic pre-decoded operands.
  MovTag, GetTag, Lea,
  FAlu2, FAlu3, FUnary, FAtan, Itof, Ftoi,
  Alloc, Syscall, Halt,
  // The stub an undecoded function holds: decodes the function, then
  // restarts it at pc 0. Never part of a decoded function.
  Decode,
};

/// A pre-decoded memory reference: base register + word displacement
/// [+ index register << scale].
struct XMem {
  uint8_t Base = 0;
  uint8_t Index = 0xFF; ///< 0xFF = none
  uint8_t Scale = 0;
  int64_t Disp = 0;
};

/// A generic pre-decoded operand for the cold handlers: the mode switch
/// is down to four dense cases (no Label/None), and immediates — float
/// immediates included — are already raw words.
struct XArg {
  enum class Mode : uint8_t { Reg, Const, Mem, None } M = Mode::None;
  uint8_t R = 0;
  uint64_t K = 0;
  XMem Mem;
};

/// One decoded instruction. Hot fused handlers read only the leading
/// fields; the XArg tail serves the cold generic handlers.
struct XInsn {
  XOp Op = XOp::Halt;
  /// For the PerOpcode histogram; also selects the operation of the
  /// generic ALU, float and unary cold ops.
  s1::Opcode OrigOp = s1::Opcode::HALT;
  s1::Cond C = s1::Cond::EQ;
  uint8_t A = 0;     ///< fused register field (dst)
  uint8_t B = 0;     ///< fused register field (src)
  int32_t Target = -1; ///< decoded branch target / callee / catch handler
  uint64_t K = 0;      ///< fused constant word
  int64_t S1 = 0;      ///< syscall selector; alloc tag
  int64_t S2 = 0;      ///< syscall B-immediate; alloc size; tail-call argc
  int64_t S3 = 0;      ///< syscall X-immediate (e.g. ListN count)
  XMem MA, MB;         ///< fused memory refs (dst, src)
  XArg GA, GB, GX;     ///< generic operands for cold handlers
};

/// One function in decoded form.
struct DecodedFunction {
  std::vector<XInsn> Code;
  /// Decoded index -> original instruction index, for trap messages that
  /// report pcs in assembly-listing units.
  std::vector<int32_t> OrigPc;
  /// Basic-block leader flags, one per decoded instruction plus one for
  /// the fall-off trailer slot. Leaders[I] is set when decoded index I
  /// starts a basic block: function entry, branch or catch-handler
  /// target, or the fall-through successor of any control transfer
  /// (branch, call, tail call, return, syscall) or allocation. Every pc a
  /// host can enter from outside straight-line code — run() start pcs,
  /// return words, syscall continuations, catch handlers — is a leader by
  /// construction, which is what lets the block-compiling native tier
  /// batch safepoints inside a block. Computed once at decode time so the
  /// compiler and any block-scoped analysis agree on boundaries.
  std::vector<uint8_t> Leaders;
};

/// A whole program, decoded one function at a time on first use.
class DecodedProgram {
public:
  /// What the threaded loop loads when control enters a function: the
  /// decoded code and its length, or the one-instruction decode stub
  /// until the function is decoded. Size is stored before Code is
  /// released, so a thread that acquires decoded Code sees its Size.
  struct Entry {
    std::atomic<const XInsn *> Code;
    std::atomic<int32_t> Size;
  };

  explicit DecodedProgram(const s1::Program &P);

  size_t size() const { return Bodies.size(); }
  const Entry &entry(int F) const { return Entries[static_cast<size_t>(F)]; }

  /// Function \p F in decoded form, lowered now if nothing has entered it
  /// yet. Safe to call from any thread.
  const DecodedFunction &function(int F) const;

  /// True once function \p F has been decoded.
  bool isDecoded(int F) const {
    return entry(F).Code.load(std::memory_order_acquire) != &DecodeStub;
  }

private:
  /// The decode stub every undecoded function's Entry points at.
  static const XInsn DecodeStub;

  const s1::Program &P;
  std::unique_ptr<Entry[]> Entries;
  /// Bodies[F] is written once, under Lock, before Entries[F].Code is
  /// released, and read only by a thread that acquired the decoded Code.
  mutable std::vector<std::unique_ptr<const DecodedFunction>> Bodies;
  mutable std::mutex Lock;
};

/// A DecodedProgram over \p P that has decoded nothing yet. \p P must
/// outlive it.
std::shared_ptr<const DecodedProgram> predecode(const s1::Program &P);

} // namespace vm
} // namespace s1lisp

#endif // S1LISP_VM_PREDECODE_H
