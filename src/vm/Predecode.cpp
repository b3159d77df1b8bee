//===- vm/Predecode.cpp ---------------------------------------------------===//

#include "vm/Predecode.h"

#include "stats/Stats.h"

#include <cstring>

S1_STAT(VmDecodeFunctions, "vm.decode.functions",
        "functions decoded, on first entry or for the native tier");

using namespace s1lisp;
using namespace s1lisp::vm;
using namespace s1lisp::s1;

namespace {

uint64_t rawImmWord(const Operand &O) {
  if (O.M == Operand::Mode::FImm) {
    uint64_t W;
    std::memcpy(&W, &O.F, sizeof(W));
    return W;
  }
  return static_cast<uint64_t>(O.Imm);
}

XMem memRef(const Operand &O) {
  XMem M;
  M.Base = O.R;
  M.Index = O.Index;
  M.Scale = O.Scale;
  M.Disp = O.Imm;
  return M;
}

XArg genArg(const Operand &O) {
  XArg A;
  switch (O.M) {
  case Operand::Mode::Reg:
    A.M = XArg::Mode::Reg;
    A.R = O.R;
    break;
  case Operand::Mode::Imm:
  case Operand::Mode::FImm:
    A.M = XArg::Mode::Const;
    A.K = rawImmWord(O);
    break;
  case Operand::Mode::Mem:
    A.M = XArg::Mode::Mem;
    A.Mem = memRef(O);
    break;
  default:
    A.M = XArg::Mode::None;
    break;
  }
  return A;
}

/// Operand shape class for fused-variant selection.
enum class Shape { Reg, Const, MemS, MemX, Other };

Shape shapeOf(const Operand &O) {
  switch (O.M) {
  case Operand::Mode::Reg:
    return Shape::Reg;
  case Operand::Mode::Imm:
  case Operand::Mode::FImm:
    return Shape::Const;
  case Operand::Mode::Mem:
    return O.Index == 0xFF ? Shape::MemS : Shape::MemX;
  default:
    return Shape::Other;
  }
}

/// Fills the fused source fields (B register / K constant / MB memory)
/// from \p Src and returns the variant offset 0..3 (R, K, M, X).
int fuseSrc(XInsn &D, const Operand &Src) {
  switch (shapeOf(Src)) {
  case Shape::Reg:
    D.B = Src.R;
    return 0;
  case Shape::Const:
    D.K = rawImmWord(Src);
    return 1;
  case Shape::MemS:
    D.MB = memRef(Src);
    return 2;
  default:
    D.MB = memRef(Src);
    return 3;
  }
}

XOp offsetOp(XOp Base, int Offset) {
  return static_cast<XOp>(static_cast<int>(Base) + Offset);
}

XInsn decodeOne(const AsmFunction &F, const Instruction &I,
                const std::vector<int32_t> &PcMap) {
  XInsn D;
  D.OrigOp = I.Op;
  D.C = I.C;

  auto ResolveLabel = [&](int Label) {
    return PcMap[static_cast<size_t>(F.LabelPos[Label])];
  };

  switch (I.Op) {
  case Opcode::MOV: {
    int Src = fuseSrc(D, I.B);
    switch (shapeOf(I.A)) {
    case Shape::Reg:
      D.Op = offsetOp(XOp::MovRR, Src);
      D.A = I.A.R;
      break;
    case Shape::MemS:
      D.Op = offsetOp(XOp::MovMR, Src);
      D.MA = memRef(I.A);
      break;
    default:
      D.Op = offsetOp(XOp::MovXR, Src);
      D.MA = memRef(I.A);
      break;
    }
    return D;
  }

  case Opcode::PUSH:
    // fuseSrc fills B / K / MB; the Push handlers read those fields.
    D.Op = offsetOp(XOp::PushR, fuseSrc(D, I.A));
    return D;

  case Opcode::POP:
    if (shapeOf(I.A) == Shape::Reg) {
      D.Op = XOp::PopR;
      D.A = I.A.R;
    } else {
      D.Op = XOp::PopM;
      D.GA = genArg(I.A);
    }
    return D;

  case Opcode::ADD:
  case Opcode::SUB:
  case Opcode::MULT:
  case Opcode::DIV: {
    bool TwoOp = I.X.M == Operand::Mode::None;
    if (TwoOp && shapeOf(I.A) == Shape::Reg &&
        (I.Op == Opcode::ADD || I.Op == Opcode::SUB)) {
      Shape S = shapeOf(I.B);
      if (S == Shape::Reg) {
        D.Op = I.Op == Opcode::ADD ? XOp::AddRR : XOp::SubRR;
        D.A = I.A.R;
        D.B = I.B.R;
        return D;
      }
      if (S == Shape::Const) {
        D.Op = I.Op == Opcode::ADD ? XOp::AddRK : XOp::SubRK;
        D.A = I.A.R;
        D.K = rawImmWord(I.B);
        return D;
      }
    }
    D.Op = TwoOp ? XOp::Alu2G : XOp::Alu3G;
    D.GA = genArg(I.A);
    D.GB = genArg(I.B);
    D.GX = genArg(I.X);
    return D;
  }

  case Opcode::FADD:
  case Opcode::FSUB:
  case Opcode::FMULT:
  case Opcode::FDIV:
  case Opcode::FMAX:
  case Opcode::FMIN:
    D.Op = I.X.M == Operand::Mode::None ? XOp::FAlu2 : XOp::FAlu3;
    D.GA = genArg(I.A);
    D.GB = genArg(I.B);
    D.GX = genArg(I.X);
    return D;

  case Opcode::FNEG:
  case Opcode::FABS:
  case Opcode::FSQRT:
  case Opcode::FSIN:
  case Opcode::FCOS:
  case Opcode::FEXP:
  case Opcode::FLOG:
    D.Op = XOp::FUnary;
    D.GA = genArg(I.A);
    D.GB = genArg(I.B);
    return D;

  case Opcode::FATAN:
    D.Op = XOp::FAtan;
    D.GA = genArg(I.A);
    D.GB = genArg(I.B);
    D.GX = genArg(I.X);
    return D;

  case Opcode::ITOF:
  case Opcode::FTOI:
    D.Op = I.Op == Opcode::ITOF ? XOp::Itof : XOp::Ftoi;
    D.GA = genArg(I.A);
    D.GB = genArg(I.B);
    return D;

  case Opcode::MOVTAG:
    D.Op = XOp::MovTag;
    D.S1 = I.X.Imm; // the tag
    D.GA = genArg(I.A);
    D.GB = genArg(I.B);
    return D;

  case Opcode::GETTAG:
    D.Op = XOp::GetTag;
    D.GA = genArg(I.A);
    D.GB = genArg(I.B);
    return D;

  case Opcode::LEA:
    D.Op = XOp::Lea;
    D.GA = genArg(I.A);
    D.GB = genArg(I.B);
    return D;

  case Opcode::JMPA:
    D.Op = XOp::Jmp;
    D.Target = ResolveLabel(I.A.Label);
    return D;

  case Opcode::JMPZ: {
    D.Target = ResolveLabel(I.X.Label);
    Shape SA = shapeOf(I.A), SB = shapeOf(I.B);
    if (SA == Shape::Reg && SB == Shape::Reg) {
      D.Op = XOp::JmpzRR;
      D.A = I.A.R;
      D.B = I.B.R;
    } else if (SA == Shape::Reg && SB == Shape::Const) {
      D.Op = XOp::JmpzRK;
      D.A = I.A.R;
      D.K = rawImmWord(I.B);
    } else {
      D.Op = XOp::JmpzG;
      D.GA = genArg(I.A);
      D.GB = genArg(I.B);
    }
    return D;
  }

  case Opcode::FJMPZ:
    D.Op = XOp::FJmpzG;
    D.Target = ResolveLabel(I.X.Label);
    D.GA = genArg(I.A);
    D.GB = genArg(I.B);
    return D;

  case Opcode::CALL:
    D.Op = XOp::Call;
    D.Target = static_cast<int32_t>(I.A.Imm);
    return D;

  case Opcode::CALLPTR:
    D.Op = XOp::CallPtr;
    D.GA = genArg(I.A);
    return D;

  case Opcode::TAILCALL:
    D.Op = XOp::TailCall;
    D.S2 = I.A.Imm; // argc
    D.Target = static_cast<int32_t>(I.B.Imm);
    return D;

  case Opcode::TAILCALLPTR:
    D.Op = XOp::TailCallPtr;
    D.S2 = I.B.Imm; // argc
    D.GA = genArg(I.A);
    return D;

  case Opcode::RET:
    D.Op = XOp::Ret;
    return D;

  case Opcode::ALLOC:
    D.Op = XOp::Alloc;
    D.S1 = I.B.Imm; // tag
    D.S2 = I.X.Imm; // words
    D.GA = genArg(I.A);
    return D;

  case Opcode::SYSCALL:
    D.Op = XOp::Syscall;
    D.S1 = I.A.Imm; // syscall selector
    D.S2 = I.B.Imm; // sub-operation code
    D.S3 = I.X.Imm; // extra immediate (ListN count, ...)
    // PushCatch's handler label resolves to a decoded index here.
    if (static_cast<Syscall>(I.A.Imm) == Syscall::PushCatch)
      D.Target = ResolveLabel(static_cast<int>(I.B.Imm));
    return D;

  case Opcode::HALT:
  case Opcode::LABEL: // stripped before decodeOne; defensive
    D.Op = XOp::Halt;
    return D;
  }
  D.Op = XOp::Halt;
  return D;
}

/// Lowers one function: labels stripped, targets resolved, leaders marked.
std::unique_ptr<const DecodedFunction> decodeFunction(const AsmFunction &F) {
  auto DF = std::make_unique<DecodedFunction>();
  // Pass 1: map each original pc to the decoded index of the first real
  // instruction at or after it (labels occupy no slot).
  std::vector<int32_t> PcMap(F.Code.size() + 1, 0);
  int32_t Next = 0;
  for (size_t Pc = 0; Pc < F.Code.size(); ++Pc) {
    PcMap[Pc] = Next;
    if (F.Code[Pc].Op != Opcode::LABEL)
      ++Next;
  }
  PcMap[F.Code.size()] = Next;
  // Pass 2: lower every real instruction.
  DF->Code.reserve(static_cast<size_t>(Next));
  DF->OrigPc.reserve(static_cast<size_t>(Next));
  for (size_t Pc = 0; Pc < F.Code.size(); ++Pc)
    if (F.Code[Pc].Op != Opcode::LABEL) {
      DF->Code.push_back(decodeOne(F, F.Code[Pc], PcMap));
      DF->OrigPc.push_back(static_cast<int32_t>(Pc));
    }
  // Pass 3: basic-block leaders. Branch/catch targets are already
  // decoded indices, so this is a single linear sweep. Alloc ends a
  // block because it can raise GcPending/Halted, which the threaded
  // engine observes at the next instruction boundary — making the
  // successor a leader keeps those checks at block entries only.
  DF->Leaders.assign(DF->Code.size() + 1, 0);
  DF->Leaders[0] = 1;
  for (size_t I = 0; I < DF->Code.size(); ++I) {
    const XInsn &D = DF->Code[I];
    switch (D.Op) {
    case XOp::Jmp:
    case XOp::JmpzRR:
    case XOp::JmpzRK:
    case XOp::JmpzG:
    case XOp::FJmpzG:
    case XOp::Syscall: // PushCatch resolves its handler label into Target
      if (D.Target >= 0)
        DF->Leaders[static_cast<size_t>(D.Target)] = 1;
      DF->Leaders[I + 1] = 1;
      break;
    case XOp::Call:
    case XOp::CallPtr:
    case XOp::TailCall:
    case XOp::TailCallPtr:
    case XOp::Ret:
    case XOp::Halt:
    case XOp::Alloc:
      DF->Leaders[I + 1] = 1;
      break;
    default:
      break;
    }
  }
  return DF;
}

} // namespace

const XInsn DecodedProgram::DecodeStub = [] {
  XInsn I;
  I.Op = XOp::Decode;
  return I;
}();

DecodedProgram::DecodedProgram(const s1::Program &P)
    : P(P), Entries(std::make_unique<Entry[]>(P.Functions.size())),
      Bodies(P.Functions.size()) {
  for (size_t F = 0; F < P.Functions.size(); ++F) {
    Entries[F].Code.store(&DecodeStub, std::memory_order_relaxed);
    Entries[F].Size.store(1, std::memory_order_relaxed);
  }
}

const DecodedFunction &DecodedProgram::function(int F) const {
  const size_t Idx = static_cast<size_t>(F);
  Entry &E = Entries[Idx];
  if (E.Code.load(std::memory_order_acquire) != &DecodeStub)
    return *Bodies[Idx];
  std::lock_guard<std::mutex> Guard(Lock);
  if (!Bodies[Idx]) {
    stats::PhaseTimer Timer("vm.decode");
    ++VmDecodeFunctions;
    Bodies[Idx] = decodeFunction(P.Functions[Idx]);
    E.Size.store(static_cast<int32_t>(Bodies[Idx]->Code.size()),
                 std::memory_order_relaxed);
    E.Code.store(Bodies[Idx]->Code.data(), std::memory_order_release);
  }
  return *Bodies[Idx];
}

std::shared_ptr<const DecodedProgram> vm::predecode(const s1::Program &P) {
  return std::make_shared<DecodedProgram>(P);
}
