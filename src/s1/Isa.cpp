//===- s1/Isa.cpp ---------------------------------------------------------===//

#include "s1/Isa.h"

#include "sexpr/Printer.h"

#include <cassert>

using namespace s1lisp;
using namespace s1lisp::s1;

bool s1::isAllocatableReg(uint8_t R) {
  // R7..R26 are free; R0/R1 scratch for the code generator; fixed roles
  // and RT registers are handed out only deliberately.
  return R >= 7 && R <= 26;
}

bool s1::isRtReg(uint8_t R) { return R == RTA || R == RTB; }

const char *s1::regName(uint8_t R) {
  static const char *Names[NumRegs] = {
      "R0",  "R1",  "RV",  "R3",  "RTA", "R5",  "RTB", "R7",
      "R8",  "R9",  "R10", "R11", "R12", "R13", "R14", "R15",
      "R16", "R17", "R18", "R19", "R20", "R21", "R22", "R23",
      "R24", "R25", "R26", "ENV", "SP",  "FP",  "TP",  "R31"};
  return R < NumRegs ? Names[R] : "R?";
}

const char *s1::tagName(Tag T) {
  switch (T) {
  case Tag::Nil:
    return "*:DTP-NIL";
  case Tag::Fixnum:
    return "*:DTP-FIXNUM";
  case Tag::Symbol:
    return "*:DTP-SYMBOL";
  case Tag::Cons:
    return "*:DTP-LIST";
  case Tag::SingleFlonum:
    return "*:DTP-SINGLE-FLONUM";
  case Tag::String:
    return "*:DTP-STRING";
  case Tag::Ratio:
    return "*:DTP-RATIO";
  case Tag::ArrayF:
    return "*:DTP-ARRAY";
  case Tag::Function:
    return "*:DTP-FUNCTION";
  case Tag::Environment:
    return "*:DTP-ENVIRONMENT";
  }
  return "*:DTP-?";
}

bool s1::isTwoAndAHalfAddress(Opcode Op) {
  switch (Op) {
  case Opcode::ADD:
  case Opcode::SUB:
  case Opcode::MULT:
  case Opcode::DIV:
  case Opcode::FADD:
  case Opcode::FSUB:
  case Opcode::FMULT:
  case Opcode::FDIV:
  case Opcode::FMAX:
  case Opcode::FMIN:
    return true;
  default:
    return false;
  }
}

bool s1::validOperandPattern(const Instruction &I) {
  if (!isTwoAndAHalfAddress(I.Op))
    return true;
  auto IsGeneral = [](const Operand &O) {
    return O.M == Operand::Mode::Reg || O.M == Operand::Mode::Mem ||
           O.M == Operand::Mode::Imm || O.M == Operand::Mode::FImm;
  };
  // Two-operand form: OP M1,M2 meaning M1 := M1 op M2.
  if (I.X.M == Operand::Mode::None)
    return IsGeneral(I.A) && IsGeneral(I.B) && I.A.M != Operand::Mode::Imm &&
           I.A.M != Operand::Mode::FImm;
  // Three-operand form: destination or first source must be RTA/RTB.
  if (!IsGeneral(I.A) || !IsGeneral(I.B) || !IsGeneral(I.X))
    return false;
  return I.A.isRt() || I.B.isRt();
}

void AsmFunction::emit(Instruction I, std::string_view Comment) {
  if (!Comment.empty()) {
    if (!Comments || Comments.use_count() > 1)
      Comments = std::make_shared<CommentTable>(Comments ? *Comments
                                                         : CommentTable());
    // The one owner of a table made non-const just above or by an
    // earlier emit, so writing through it is sound.
    auto &T = const_cast<CommentTable &>(*Comments);
    // Instructions since the last comment get empty ranges.
    T.Offsets.resize(Code.size() + 1, static_cast<uint32_t>(T.Text.size()));
    T.Text.append(Comment);
    T.Offsets.push_back(static_cast<uint32_t>(T.Text.size()));
  }
  Code.push_back(I);
}

void AsmFunction::placeLabel(int L, std::string_view Comment) {
  Instruction I;
  I.Op = Opcode::LABEL;
  I.A = Operand::label(L);
  emit(I, Comment);
}

std::string_view AsmFunction::comment(size_t Pc) const {
  if (!Comments || Pc + 1 >= Comments->Offsets.size())
    return {};
  const CommentTable &T = *Comments;
  return std::string_view(T.Text).substr(T.Offsets[Pc],
                                         T.Offsets[Pc + 1] - T.Offsets[Pc]);
}

size_t AsmFunction::commentBytes() const {
  if (!Comments)
    return 0;
  return sizeof(CommentTable) + Comments->Text.capacity() +
         Comments->Offsets.capacity() * sizeof(uint32_t);
}

bool AsmFunction::finalize(std::string &Error) {
  LabelPos.assign(NextLabel, -1);
  int RunStart = 0; // index of the first label of the current run
  for (size_t Idx = 0; Idx < Code.size(); ++Idx) {
    const Instruction &I = Code[Idx];
    if (I.Op == Opcode::LABEL) {
      assert(I.A.Label >= 0 && I.A.Label < NextLabel && "label out of range");
      if (Idx == 0 || Code[Idx - 1].Op != Opcode::LABEL)
        RunStart = static_cast<int>(Idx);
      LabelPos[I.A.Label] = RunStart;
    }
    if (!validOperandPattern(I)) {
      Error = Name + ": instruction " + std::to_string(Idx) + " (" +
              opcodeName(I.Op) +
              ") violates the 2 1/2-address operand pattern";
      return false;
    }
  }
  for (const Instruction &I : Code) {
    for (const Operand *O : {&I.A, &I.B, &I.X}) {
      if (O->M == Operand::Mode::Label &&
          (O->Label < 0 || O->Label >= NextLabel || LabelPos[O->Label] < 0)) {
        Error = Name + ": branch to an unplaced label";
        return false;
      }
    }
  }
  return true;
}

unsigned AsmFunction::countOpcode(Opcode Op) const {
  unsigned N = 0;
  for (const Instruction &I : Code)
    N += I.Op == Op;
  return N;
}

const char *s1::rtErrorMessage(RtError E) {
  switch (E) {
  case RtError::WrongNumberOfArguments:
    return "wrong number of arguments";
  case RtError::WrongTypeOfArgument:
    return "wrong type of argument";
  case RtError::UndefinedFunction:
    return "undefined function";
  case RtError::UnboundVariable:
    return "unbound variable";
  case RtError::DivisionByZero:
    return "division by zero";
  case RtError::IndexOutOfBounds:
    return "array index out of bounds";
  case RtError::UncaughtThrow:
    return "uncaught throw";
  case RtError::UserError:
    return "lisp error";
  case RtError::NotAFunction:
    return "attempt to call a non-function";
  }
  return "unknown runtime error";
}

int Program::indexOf(const std::string &Name) const {
  for (size_t I = 0; I < Functions.size(); ++I)
    if (Functions[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

const char *s1::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::MOV:
    return "MOV";
  case Opcode::MOVTAG:
    return "MOVP";
  case Opcode::GETTAG:
    return "GETTAG";
  case Opcode::LEA:
    return "LEA";
  case Opcode::PUSH:
    return "PUSH";
  case Opcode::POP:
    return "POP";
  case Opcode::ADD:
    return "ADD";
  case Opcode::SUB:
    return "SUB";
  case Opcode::MULT:
    return "MULT";
  case Opcode::DIV:
    return "DIV";
  case Opcode::FADD:
    return "FADD";
  case Opcode::FSUB:
    return "FSUB";
  case Opcode::FMULT:
    return "FMULT";
  case Opcode::FDIV:
    return "FDIV";
  case Opcode::FMAX:
    return "FMAX";
  case Opcode::FMIN:
    return "FMIN";
  case Opcode::FNEG:
    return "FNEG";
  case Opcode::FABS:
    return "FABS";
  case Opcode::FSQRT:
    return "FSQRT";
  case Opcode::FSIN:
    return "FSIN";
  case Opcode::FCOS:
    return "FCOS";
  case Opcode::FEXP:
    return "FEXP";
  case Opcode::FLOG:
    return "FLOG";
  case Opcode::FATAN:
    return "FATAN";
  case Opcode::ITOF:
    return "ITOF";
  case Opcode::FTOI:
    return "FTOI";
  case Opcode::JMPA:
    return "JMPA";
  case Opcode::JMPZ:
    return "JMPZ";
  case Opcode::FJMPZ:
    return "FJMPZ";
  case Opcode::CALL:
    return "%CALL";
  case Opcode::CALLPTR:
    return "%CALLPTR";
  case Opcode::TAILCALL:
    return "%TAILCALL";
  case Opcode::TAILCALLPTR:
    return "%TAILCALLPTR";
  case Opcode::RET:
    return "%RET";
  case Opcode::ALLOC:
    return "ALLOC";
  case Opcode::SYSCALL:
    return "%SYSCALL";
  case Opcode::HALT:
    return "HALT";
  case Opcode::LABEL:
    return "LABEL";
  }
  return "?";
}

const char *s1::condName(Cond C) {
  switch (C) {
  case Cond::EQ:
    return "EQ";
  case Cond::NEQ:
    return "NEQ";
  case Cond::LT:
    return "LTR";
  case Cond::GT:
    return "GTR";
  case Cond::LE:
    return "LEQ";
  case Cond::GE:
    return "GEQ";
  }
  return "?";
}

std::string s1::printOperand(const Operand &O) {
  switch (O.M) {
  case Operand::Mode::None:
    return "";
  case Operand::Mode::Reg:
    return regName(O.R);
  case Operand::Mode::Imm:
    return "(? " + std::to_string(O.Imm) + ")";
  case Operand::Mode::FImm:
    return "(? " + sexpr::formatFlonum(O.F) + ")";
  case Operand::Mode::Mem: {
    std::string S = "(" + std::string(regName(O.R)) + " " + std::to_string(O.Imm);
    if (O.Index != 0xFF) {
      S += " ";
      S += regName(O.Index);
      if (O.Scale)
        S += "^" + std::to_string(O.Scale);
    }
    S += ")";
    return S;
  }
  case Operand::Mode::Label:
    return "L" + std::to_string(O.Label);
  }
  return "";
}

std::string s1::printListing(const AsmFunction &F) {
  std::string Out;
  Out += ";;; Function " + F.Name + "   [frame " + std::to_string(F.FrameSize) +
         " words, args " + std::to_string(F.MinArgs) + ".." +
         (F.HasRest ? "*" : std::to_string(F.MaxArgs)) + "]\n";
  for (size_t Pc = 0; Pc < F.Code.size(); ++Pc) {
    const Instruction &I = F.Code[Pc];
    std::string Line;
    if (I.Op == Opcode::LABEL) {
      Line = "L" + std::to_string(I.A.Label);
    } else {
      Line = "        (";
      Line += opcodeName(I.Op);
      if (I.Op == Opcode::JMPZ || I.Op == Opcode::FJMPZ) {
        Line = "        ((" + std::string(opcodeName(I.Op)) + " " +
               condName(I.C) + ")";
      }
      for (const Operand *O : {&I.A, &I.B, &I.X}) {
        std::string Txt = printOperand(*O);
        if (!Txt.empty())
          Line += " " + Txt;
      }
      Line += ")";
    }
    if (std::string_view Comment = F.comment(Pc); !Comment.empty()) {
      if (Line.size() < 48)
        Line.append(48 - Line.size(), ' ');
      Line += " ;";
      Line += Comment;
    }
    Out += Line + "\n";
  }
  return Out;
}
