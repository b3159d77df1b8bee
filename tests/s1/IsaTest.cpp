//===- tests/s1/IsaTest.cpp - Target description tests --------------------===//

#include "s1/Isa.h"

#include <gtest/gtest.h>

using namespace s1lisp;
using namespace s1lisp::s1;

namespace {

TEST(IsaTest, TaggedPointerEncoding) {
  uint64_t W = makePointer(Tag::Cons, 0x1234);
  EXPECT_EQ(tagOf(W), Tag::Cons);
  EXPECT_EQ(addrOf(W), 0x1234u);
  EXPECT_EQ(NilWord, 0u);
  EXPECT_EQ(tagOf(NilWord), Tag::Nil);
}

TEST(IsaTest, FixnumImmediates) {
  EXPECT_EQ(fixnumValue(makeFixnum(42)), 42);
  EXPECT_EQ(fixnumValue(makeFixnum(-42)), -42);
  EXPECT_EQ(fixnumValue(makeFixnum(INT32_MIN)), INT32_MIN);
  EXPECT_EQ(fixnumValue(makeFixnum(INT32_MAX)), INT32_MAX);
  EXPECT_EQ(tagOf(makeFixnum(-1)), Tag::Fixnum);
}

TEST(IsaTest, RegisterRoles) {
  EXPECT_TRUE(isRtReg(RTA));
  EXPECT_TRUE(isRtReg(RTB));
  EXPECT_FALSE(isRtReg(RV));
  EXPECT_FALSE(isAllocatableReg(SP));
  EXPECT_FALSE(isAllocatableReg(FP));
  EXPECT_FALSE(isAllocatableReg(RTA));
  EXPECT_FALSE(isAllocatableReg(ENV));
  EXPECT_TRUE(isAllocatableReg(7));
  EXPECT_TRUE(isAllocatableReg(26));
  EXPECT_STREQ(regName(RTA), "RTA");
  EXPECT_STREQ(regName(SP), "SP");
}

TEST(IsaTest, TwoAndAHalfAddressValidation) {
  // OP M1,M2 — both general: fine.
  Instruction TwoOp;
  TwoOp.Op = Opcode::FADD;
  TwoOp.A = Operand::mem(FP, 4);
  TwoOp.B = Operand::mem(FP, 8);
  EXPECT_TRUE(validOperandPattern(TwoOp));

  // OP RTA,M1,M2 — destination is RT: fine.
  Instruction ThreeRt = TwoOp;
  ThreeRt.A = Operand::reg(RTA);
  ThreeRt.B = Operand::mem(FP, 4);
  ThreeRt.X = Operand::mem(FP, 8);
  EXPECT_TRUE(validOperandPattern(ThreeRt));

  // OP M1,RTA,M2 — first source is RT: fine.
  Instruction ThreeSrc = ThreeRt;
  ThreeSrc.A = Operand::mem(FP, 4);
  ThreeSrc.B = Operand::reg(RTA);
  EXPECT_TRUE(validOperandPattern(ThreeSrc));

  // OP M1,M2,M3 — three general operands: the encoding does not exist.
  Instruction Bad = ThreeRt;
  Bad.A = Operand::reg(7);
  Bad.B = Operand::reg(8);
  Bad.X = Operand::reg(9);
  EXPECT_FALSE(validOperandPattern(Bad));

  // Immediate destination is meaningless.
  Instruction ImmDst = TwoOp;
  ImmDst.A = Operand::imm(3);
  EXPECT_FALSE(validOperandPattern(ImmDst));

  // Non-arithmetic opcodes are exempt.
  Instruction Mov;
  Mov.Op = Opcode::MOV;
  Mov.A = Operand::reg(7);
  Mov.B = Operand::reg(8);
  EXPECT_TRUE(validOperandPattern(Mov));
}

TEST(IsaTest, FinalizeResolvesLabels) {
  AsmFunction F;
  F.Name = "t";
  int L = F.newLabel();
  Instruction J;
  J.Op = Opcode::JMPA;
  J.A = Operand::label(L);
  F.emit(J);
  F.placeLabel(L);
  std::string Error;
  ASSERT_TRUE(F.finalize(Error)) << Error;
  EXPECT_EQ(F.LabelPos[L], 1);
}

TEST(IsaTest, FinalizeRejectsUnplacedLabel) {
  AsmFunction F;
  F.Name = "t";
  int L = F.newLabel();
  Instruction J;
  J.Op = Opcode::JMPA;
  J.A = Operand::label(L);
  F.emit(J);
  std::string Error;
  EXPECT_FALSE(F.finalize(Error));
  EXPECT_NE(Error.find("unplaced label"), std::string::npos);
}

TEST(IsaTest, FinalizeRejectsBadPattern) {
  AsmFunction F;
  F.Name = "t";
  Instruction Bad;
  Bad.Op = Opcode::ADD;
  Bad.A = Operand::reg(7);
  Bad.B = Operand::reg(8);
  Bad.X = Operand::reg(9);
  F.emit(Bad);
  std::string Error;
  EXPECT_FALSE(F.finalize(Error));
  EXPECT_NE(Error.find("2 1/2-address"), std::string::npos);
}

TEST(IsaTest, CountOpcode) {
  AsmFunction F;
  Instruction M;
  M.Op = Opcode::MOV;
  M.A = Operand::reg(7);
  M.B = Operand::reg(8);
  F.emit(M);
  F.emit(M);
  EXPECT_EQ(F.countOpcode(Opcode::MOV), 2u);
  EXPECT_EQ(F.countOpcode(Opcode::FADD), 0u);
}

TEST(IsaTest, ListingStyle) {
  AsmFunction F;
  F.Name = "demo";
  Instruction I;
  I.Op = Opcode::FADD;
  I.A = Operand::reg(RTA);
  I.B = Operand::mem(FP, -3);
  I.X = Operand::mem(FP, -4);
  F.emit(I, "(+$F C B)");
  std::string L = printListing(F);
  EXPECT_NE(L.find("(FADD RTA (FP -3) (FP -4))"), std::string::npos) << L;
  EXPECT_NE(L.find(";(+$F C B)"), std::string::npos) << L;
}

TEST(IsaTest, OperandPrinting) {
  EXPECT_EQ(printOperand(Operand::reg(RTB)), "RTB");
  EXPECT_EQ(printOperand(Operand::imm(-7)), "(? -7)");
  EXPECT_EQ(printOperand(Operand::mem(FP, 2)), "(FP 2)");
  EXPECT_EQ(printOperand(Operand::memIndexed(7, 3, RTA)), "(R7 3 RTA)");
  EXPECT_EQ(printOperand(Operand::memIndexed(7, 3, RTA, 2)), "(R7 3 RTA^2)");
}

TEST(IsaTest, RtErrorMessages) {
  EXPECT_STREQ(rtErrorMessage(RtError::WrongNumberOfArguments),
               "wrong number of arguments");
  EXPECT_STREQ(rtErrorMessage(RtError::UncaughtThrow), "uncaught throw");
}

} // namespace
