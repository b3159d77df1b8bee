//===- s1/Isa.h - The simulated S-1/64 target ---------------------*- C++ -*-===//
///
/// \file
/// The target machine description: a word-addressed variant of the S-1
/// Mark IIA ("S-1/64"). Deviations from the real hardware are documented
/// in DESIGN.md; the properties the paper's techniques depend on are kept:
///
///  * 32 general-purpose registers, two of which (RTA = R4, RTB = R6) are
///    the "bottleneck registers" of the 2 1/2-address arithmetic format;
///  * tagged pointers: a 5-bit type tag plus an address;
///  * rich memory operands: base register + displacement + optional
///    scaled index, so an array element fetch is a single operand;
///  * FSIN/FCOS taking arguments in *cycles*, not radians (§5's
///    machine-inspired sin$f → sinc$f transformation);
///  * separate stack and heap regions, so "does this pointer point into
///    the stack" (pdl-number certification, §6.3) is an address range test.
///
/// Words are 64-bit. Pointers put the tag in bits 63..59 and a word
/// address in bits 31..0; fixnums are immediate with a 32-bit payload;
/// floats are IEEE doubles held raw (boxed behind DtpSingleFlonum
/// pointers when in LISP pointer form).
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_S1_ISA_H
#define S1LISP_S1_ISA_H

#include "sexpr/Value.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace s1lisp {
namespace s1 {

//===----------------------------------------------------------------------===//
// Registers
//===----------------------------------------------------------------------===//

enum Reg : uint8_t {
  // Fixed-role registers.
  RV = 2,   ///< return value
  RTA = 4,  ///< 2 1/2-address bottleneck register A (also arg count at entry)
  RTB = 6,  ///< 2 1/2-address bottleneck register B
  ENV = 27, ///< current lexical environment (closure chain)
  SP = 28,  ///< stack pointer (grows upward)
  FP = 29,  ///< frame pointer
  TP = 30,  ///< temporaries pointer (scratch / pdl-number area)
  NumRegs = 32,
};

/// Registers TNBIND may hand out freely.
bool isAllocatableReg(uint8_t R);
bool isRtReg(uint8_t R);
const char *regName(uint8_t R);

//===----------------------------------------------------------------------===//
// Tags
//===----------------------------------------------------------------------===//

enum class Tag : uint8_t {
  Nil = 0,    ///< the all-zero word is NIL
  Fixnum = 1, ///< immediate 32-bit payload
  Symbol = 2,
  Cons = 3,
  SingleFlonum = 4,
  String = 5,
  Ratio = 6,
  ArrayF = 7,
  Function = 8, ///< closure object [code index, captured ENV]
  Environment = 9,
};

constexpr uint64_t NilWord = 0;
constexpr unsigned TagShift = 59;
constexpr uint64_t AddrMask = 0xFFFFFFFFull;

inline uint64_t makePointer(Tag T, uint64_t Addr) {
  return (static_cast<uint64_t>(T) << TagShift) | (Addr & AddrMask);
}
inline Tag tagOf(uint64_t Word) {
  return static_cast<Tag>(Word >> TagShift);
}
inline uint64_t addrOf(uint64_t Word) { return Word & AddrMask; }
inline uint64_t makeFixnum(int64_t V) {
  return makePointer(Tag::Fixnum, static_cast<uint64_t>(V) & AddrMask);
}
inline int64_t fixnumValue(uint64_t Word) {
  return static_cast<int32_t>(Word & AddrMask); // sign-extend 32 bits
}
const char *tagName(Tag T);

//===----------------------------------------------------------------------===//
// Instructions
//===----------------------------------------------------------------------===//

enum class Opcode : uint8_t {
  // Data movement.
  MOV,    ///< dst := src
  MOVTAG, ///< dst := pointer(tag=imm, addr of EA of src operand) — the
          ///< paper's MOVP: "creates a pointer to its second operand,
          ///< installing the indicated type in the tag field".
  GETTAG, ///< dst := tag(src) as raw int
  LEA,    ///< dst := effective address of src operand (raw)
  PUSH,   ///< mem[SP++] := src
  POP,    ///< dst := mem[--SP]
  // Raw integer arithmetic (2 1/2-address rules apply).
  ADD, SUB, MULT, DIV,
  // Raw double arithmetic (2 1/2-address rules apply).
  FADD, FSUB, FMULT, FDIV, FMAX, FMIN,
  // Unary float (dst, src — exempt from the RT rule, like the S-1's
  // one-operand-calculation instructions).
  FNEG, FABS, FSQRT, FSIN, FCOS, FEXP, FLOG, FATAN,
  // Conversions between raw ints and raw doubles.
  ITOF, FTOI,
  // Control.
  JMPA,  ///< unconditional jump to label
  JMPZ,  ///< conditional jump: compare raw ints per Cond
  FJMPZ, ///< conditional jump: compare raw doubles per Cond
  CALL,  ///< push return address; jump to function by index (imm)
  CALLPTR, ///< call through a Function-tagged closure word
  TAILCALL, ///< the "parameter-passing goto" (§2): move the K new
            ///< arguments (imm0) over the current frame's argument area,
            ///< unwind the frame, and jump to function imm1
  TAILCALLPTR, ///< tail call through a closure word (src operand)
  RET,   ///< pop return address and jump
  // Storage.
  ALLOC, ///< dst := pointer(tag=imm0, fresh block of imm1 words)
  // Runtime services (the compiler's SQ-routines).
  SYSCALL, ///< imm selects a Syscall; args/results per syscall contract
  HALT,
  // Assembler pseudo-op.
  LABEL,
};

/// Conditions for JMPZ/FJMPZ.
enum class Cond : uint8_t { EQ, NEQ, LT, GT, LE, GE };

/// Runtime services (the compiler's SQ-routines). Stack arguments are
/// pushed left to right; sub-operation codes and argument counts travel in
/// the instruction's B/X immediate operands; results arrive in RV.
enum class Syscall : uint8_t {
  GenericAdd,     ///< 2 pointer args -> pointer
  GenericSub,
  GenericMul,
  GenericDiv,
  GenericArith2,  ///< B=ArithCode (floor family, expt, max, min); 2 args
  GenericUnary,   ///< B=UnaryCode (neg abs 1+ 1- sqrt float); 1 arg
  GenericCompare, ///< B=Cond; 2 args -> t/nil
  GenericNumPred, ///< B=PredCode (zerop oddp evenp plusp minusp); 1 arg
  ConsFlonum,     ///< 1 raw double arg -> flonum pointer (heap box)
  ConsFixnum,     ///< 1 raw int arg -> fixnum word (range-checked)
  UnboxFloat,     ///< 1 pointer arg -> raw double (type-checked coercion)
  UnboxFixnum,    ///< 1 pointer arg -> raw int (type-checked coercion)
  Cons,           ///< 2 args -> cons pointer
  ListPrim,       ///< B=ListCode, X=argc; args on stack
  Certify,        ///< 1 arg: copy stack-allocated object to the heap when
                  ///< the pointer points into the stack (§6.3)
  SpecBind,       ///< 2 args: symbol, value — push a deep binding
  SpecUnbind,     ///< B=count — pop that many bindings
  SpecLookup,     ///< 1 arg: symbol -> raw ADDRESS of the binding cell,
                  ///< the cached pointer of §4.4; traps if unbound
  MakeClosure,    ///< B=function index; 1 arg: env -> function pointer
  MakeEnv,        ///< B=size; 1 arg: parent env or nil -> env pointer
  MakeRestList,   ///< 2 raw args: base addr, count -> list of stack words
  SpreadList,     ///< 1 arg: proper list; pushes elements, RV=count (raw)
  ArrayMake,      ///< 2 args: dim0, dim1 (nil for rank 1) -> array pointer
  Error,          ///< B=RtError code; aborts execution
  Print,          ///< 1 arg: prints to the machine's output buffer
  Throw,          ///< 2 args: tag, value — unwind to a matching catcher
  PushCatch,      ///< 1 arg: tag; B=handler label id
  PopCatch,       ///< no args
};

/// Sub-operation codes for GenericArith2.
enum class ArithCode : int64_t { Floor, Ceiling, Truncate, Round, Mod, Rem, Expt, Max, Min };
/// Sub-operation codes for GenericUnary.
enum class UnaryCode : int64_t { Neg, Abs, Add1, Sub1, Sqrt, ToFloat };
/// Sub-operation codes for GenericNumPred.
enum class PredCode : int64_t { Zerop, Oddp, Evenp, Plusp, Minusp };
/// Sub-operation codes for ListPrim.
enum class ListCode : int64_t {
  Length, Reverse, Append2, Member, Assoc, Nth, NthCdr, Last, Equal, ListN
};

/// One operand: register, immediate, memory (base + displacement
/// [+ index << scale]), or a label reference. The mode says which member
/// of the Imm/F union is live: F for FImm, Imm for every other mode.
struct Operand {
  enum class Mode : uint8_t { None, Reg, Imm, FImm, Mem, Label } M = Mode::None;
  uint8_t R = 0;       ///< Reg; Mem base
  uint8_t Index = 0;   ///< Mem index register (0xFF = none)
  uint8_t Scale = 0;   ///< Mem index shift (0..3)
  int32_t Label = -1;
  union {
    int64_t Imm = 0; ///< Imm payload; Mem displacement (words)
    double F;        ///< FImm payload
  };

  static Operand reg(uint8_t R) {
    Operand O;
    O.M = Mode::Reg;
    O.R = R;
    return O;
  }
  static Operand imm(int64_t V) {
    Operand O;
    O.M = Mode::Imm;
    O.Imm = V;
    return O;
  }
  static Operand fimm(double V) {
    Operand O;
    O.M = Mode::FImm;
    O.F = V;
    return O;
  }
  static Operand mem(uint8_t Base, int64_t Disp) {
    Operand O;
    O.M = Mode::Mem;
    O.R = Base;
    O.Imm = Disp;
    O.Index = 0xFF;
    return O;
  }
  static Operand memIndexed(uint8_t Base, int64_t Disp, uint8_t Index,
                            uint8_t Scale = 0) {
    Operand O = mem(Base, Disp);
    O.Index = Index;
    O.Scale = Scale;
    return O;
  }
  static Operand label(int L) {
    Operand O;
    O.M = Mode::Label;
    O.Label = L;
    return O;
  }

  bool isReg(uint8_t Which) const { return M == Mode::Reg && R == Which; }
  bool isRt() const { return M == Mode::Reg && (R == RTA || R == RTB); }
};

/// One instruction. Its listing comment lives in its function's
/// CommentTable, so an instruction is plain data the linker copies as is.
struct Instruction {
  Opcode Op;
  Cond C = Cond::EQ;
  Operand A, B, X; ///< up to three operands (dst first)
};

// Codegen grows, the link copies and the compile cache stores vectors of
// these: the operand's byte fields and label pack ahead of the union.
static_assert(sizeof(Operand) == 16, "Operand must stay 16 bytes");
static_assert(alignof(int64_t) != 8 || sizeof(Instruction) == 56,
              "Instruction must stay 56 bytes");

/// True for the binary arithmetic opcodes bound by the 2 1/2-address rule.
bool isTwoAndAHalfAddress(Opcode Op);

/// Validates the paper's operand patterns for a 2 1/2-address instruction:
///   OP M1,M2 / OP RT,M1,M2 / OP M1,RT,M2.
bool validOperandPattern(const Instruction &I);

//===----------------------------------------------------------------------===//
// Assembled functions and programs
//===----------------------------------------------------------------------===//

/// The listing comments of one function, packed: instruction I's comment
/// is Text[Offsets[I], Offsets[I + 1]). Instructions past the end of
/// Offsets have none.
struct CommentTable {
  std::string Text;
  std::vector<uint32_t> Offsets;
};

/// A compiled function: a linear instruction list with resolved labels.
class AsmFunction {
public:
  std::string Name;
  std::vector<Instruction> Code;
  unsigned FrameSize = 0;   ///< frame slots at FP+0..FrameSize-1
  unsigned MinArgs = 0;
  unsigned MaxArgs = 0;     ///< fixed params (optionals included)
  bool HasRest = false;

  /// Label id -> index of the first label in the run of consecutive
  /// labels that holds it; built by finalize(). Labels retire nothing, so
  /// every label of a run names the same point, and a trap there reports
  /// the run's start on every engine (the decoded engines strip labels).
  std::vector<int> LabelPos;

  int newLabel() { return NextLabel++; }
  void emit(Instruction I, std::string_view Comment = {});
  void placeLabel(int L, std::string_view Comment = {});

  /// Instruction \p Pc's listing comment; empty when it has none.
  std::string_view comment(size_t Pc) const;
  /// The comment table's heap bytes, for cache accounting.
  size_t commentBytes() const;

  /// Resolves labels; verifies operand patterns. Returns false and fills
  /// \p Error on malformed code.
  bool finalize(std::string &Error);

  /// Counts instructions with opcode \p Op (the MOV-count metric of §6.1).
  unsigned countOpcode(Opcode Op) const;

private:
  int NextLabel = 0;
  /// Shared by every copy of the function: a cached unit's functions are
  /// copied into each program linked from it. emit() appends in place only
  /// while this function is the table's one owner, and copies it first
  /// otherwise, so a table is never written once shared.
  std::shared_ptr<const CommentTable> Comments;
};

/// Runtime error codes raised via Syscall::Error or machine traps.
enum class RtError : int64_t {
  WrongNumberOfArguments = 1,
  WrongTypeOfArgument = 2,
  UndefinedFunction = 3,
  UnboundVariable = 4,
  DivisionByZero = 5,
  IndexOutOfBounds = 6,
  UncaughtThrow = 7,
  UserError = 8,
  NotAFunction = 9,
};
const char *rtErrorMessage(RtError E);

/// A linked program: functions plus a static data image.
struct Program {
  std::vector<AsmFunction> Functions;
  /// Static words at addresses [StaticBase, StaticBase+Static.size()).
  std::vector<uint64_t> Static;
  /// Where each interned symbol's static value cell lives.
  std::unordered_map<const sexpr::Symbol *, uint64_t> SymbolAddr;
  /// Static string objects: (address, contents).
  std::vector<std::pair<uint64_t, std::string>> StringAddr;
  /// Function name -> index.
  int indexOf(const std::string &Name) const;
};

/// Renders a function as a parenthesized assembly listing in the style of
/// the paper's Table 4.
std::string printListing(const AsmFunction &F);

const char *opcodeName(Opcode Op);
const char *condName(Cond C);
std::string printOperand(const Operand &O);

} // namespace s1
} // namespace s1lisp

#endif // S1LISP_S1_ISA_H
