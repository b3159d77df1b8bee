//===- tests/vm/MachineTest.cpp - Simulator unit tests --------------------===//
//
// Drives the S-1/64 simulator with hand-assembled programs, independent of
// the compiler, to pin down the execution model: frame discipline, tail
// calls, syscalls, encode/decode, certification, traps, and the word-heap
// collector's side tables.
//
//===----------------------------------------------------------------------===//

#include "vm/Machine.h"

#include "sexpr/Printer.h"
#include "vm/Jit.h"

#include <functional>
#include <gtest/gtest.h>

using namespace s1lisp;
using namespace s1lisp::s1;
using namespace s1lisp::vm;
using sexpr::Value;

namespace {

/// Builds the standard prologue/epilogue around a body emitted by \p Body.
/// The body receives the argument count in the saved slot FP+1 and args at
/// FP-2-argc+i; it must leave the result in RV.
AsmFunction makeFunction(const std::string &Name, unsigned MinArgs,
                         unsigned MaxArgs,
                         const std::function<void(AsmFunction &)> &Body,
                         unsigned FrameSlots = 4) {
  AsmFunction F;
  F.Name = Name;
  F.MinArgs = MinArgs;
  F.MaxArgs = MaxArgs;
  auto E = [&F](Opcode Op, Operand A = {}, Operand B = {}, Operand X = {}) {
    Instruction I;
    I.Op = Op;
    I.A = A;
    I.B = B;
    I.X = X;
    F.emit(I);
  };
  E(Opcode::PUSH, Operand::reg(FP));
  E(Opcode::MOV, Operand::reg(FP), Operand::reg(SP));
  E(Opcode::PUSH, Operand::reg(ENV));
  E(Opcode::PUSH, Operand::reg(RTA));
  E(Opcode::ADD, Operand::reg(SP), Operand::imm(FrameSlots));
  Body(F);
  E(Opcode::MOV, Operand::reg(ENV), Operand::mem(FP, 0));
  E(Opcode::MOV, Operand::reg(SP), Operand::reg(FP));
  E(Opcode::POP, Operand::reg(FP));
  E(Opcode::RET);
  std::string Error;
  EXPECT_TRUE(F.finalize(Error)) << Error;
  return F;
}

class MachineTest : public ::testing::Test {
protected:
  sexpr::SymbolTable Syms;
  sexpr::Heap H;

  Machine makeMachine(Program &P) { return Machine(P, Syms, H); }
};

TEST_F(MachineTest, RawArithmeticAndReturn) {
  Program P;
  P.Functions.push_back(makeFunction("add40-2", 1, 1, [](AsmFunction &F) {
    Instruction I;
    // RV := raw(arg0) + 2, retagged as a fixnum.
    I.Op = Opcode::PUSH;
    I.A = Operand::mem(FP, -3);
    F.emit(I);
    Instruction S;
    S.Op = Opcode::SYSCALL;
    S.A = Operand::imm(static_cast<int64_t>(Syscall::UnboxFixnum));
    S.B = Operand::imm(0);
    S.X = Operand::imm(0);
    F.emit(S);
    Instruction A;
    A.Op = Opcode::ADD;
    A.A = Operand::reg(RV);
    A.B = Operand::imm(2);
    F.emit(A);
    Instruction Pu;
    Pu.Op = Opcode::PUSH;
    Pu.A = Operand::reg(RV);
    F.emit(Pu);
    Instruction C;
    C.Op = Opcode::SYSCALL;
    C.A = Operand::imm(static_cast<int64_t>(Syscall::ConsFixnum));
    C.B = Operand::imm(0);
    C.X = Operand::imm(0);
    F.emit(C);
  }));
  Machine M = makeMachine(P);
  auto R = M.call("add40-2", {Value::fixnum(40)});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Result->fixnum(), 42);
}

TEST_F(MachineTest, EncodeDecodeRoundTrip) {
  Program P;
  Machine M = makeMachine(P);
  Value L = H.list({Value::fixnum(1), Value::flonum(2.5), H.makeRatio(1, 3),
                    Value::symbol(Syms.intern("sym")), H.string("hi")});
  uint64_t W = M.encode(L);
  auto Back = M.decode(W);
  ASSERT_TRUE(Back);
  EXPECT_EQ(sexpr::toString(*Back), "(1 2.5 1/3 sym \"hi\")");
}

TEST_F(MachineTest, DecodeDepthLimit) {
  Program P;
  Machine M = makeMachine(P);
  Value Deep = Value::nil();
  for (int I = 0; I < 200; ++I)
    Deep = H.cons(Value::fixnum(I), Deep);
  auto Shallow = M.decode(M.encode(Deep), /*Depth=*/16);
  EXPECT_FALSE(Shallow) << "depth limit must refuse very deep structures";
  auto Full = M.decode(M.encode(Deep), /*Depth=*/512);
  EXPECT_TRUE(Full);
}

TEST_F(MachineTest, ArrayAccessors) {
  Program P;
  Machine M = makeMachine(P);
  uint64_t A = M.makeArrayF(3, 2);
  M.writeArrayF(A, 2, 1, 6.5);
  EXPECT_DOUBLE_EQ(M.readArrayF(A, 2, 1), 6.5);
  EXPECT_DOUBLE_EQ(M.readArrayF(A, 0, 0), 0.0);
}

TEST_F(MachineTest, CertifyCopiesStackObjectsOnly) {
  Program P;
  P.Functions.push_back(makeFunction("certify-stack", 0, 0, [](AsmFunction &F) {
    auto E = [&F](Instruction I) { F.emit(I); };
    // Store a raw double into a frame slot, make a stack pointer to it,
    // certify, and return the certified pointer.
    Instruction St;
    St.Op = Opcode::MOV;
    St.A = Operand::mem(FP, 2);
    St.B = Operand::fimm(3.25);
    E(St);
    Instruction Tag;
    Tag.Op = Opcode::MOVTAG;
    Tag.A = Operand::reg(RV);
    Tag.B = Operand::mem(FP, 2);
    Tag.X = Operand::imm(static_cast<int64_t>(Tag::SingleFlonum));
    E(Tag);
    Instruction Pu;
    Pu.Op = Opcode::PUSH;
    Pu.A = Operand::reg(RV);
    E(Pu);
    Instruction Cert;
    Cert.Op = Opcode::SYSCALL;
    Cert.A = Operand::imm(static_cast<int64_t>(Syscall::Certify));
    Cert.B = Operand::imm(0);
    Cert.X = Operand::imm(0);
    E(Cert);
  }));
  Machine M = makeMachine(P);
  auto R = M.call("certify-stack", {});
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.Result);
  EXPECT_DOUBLE_EQ(R.Result->flonum(), 3.25);
  EXPECT_FALSE(isStackAddress(addrOf(R.ResultWord)))
      << "certification must have copied the pdl number into the heap";
  EXPECT_GE(M.stats().HeapObjects, 1u);
}

TEST_F(MachineTest, GlobalSpecialsAndLookup) {
  Program P;
  P.Functions.push_back(makeFunction("read-special", 1, 1, [](AsmFunction &F) {
    Instruction Pu;
    Pu.Op = Opcode::PUSH;
    Pu.A = Operand::mem(FP, -3); // the symbol argument
    F.emit(Pu);
    Instruction L;
    L.Op = Opcode::SYSCALL;
    L.A = Operand::imm(static_cast<int64_t>(Syscall::SpecLookup));
    L.B = Operand::imm(0);
    L.X = Operand::imm(0);
    F.emit(L);
    // RV holds the cell address; load the value through R0.
    Instruction M1;
    M1.Op = Opcode::MOV;
    M1.A = Operand::reg(0);
    M1.B = Operand::reg(RV);
    F.emit(M1);
    Instruction M2;
    M2.Op = Opcode::MOV;
    M2.A = Operand::reg(RV);
    M2.B = Operand::mem(0, 0);
    F.emit(M2);
  }));
  Machine M = makeMachine(P);
  const sexpr::Symbol *S = Syms.intern("*g*");
  M.setGlobalSpecial(S, Value::fixnum(99));
  auto R = M.call("read-special", {Value::symbol(S)});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Result->fixnum(), 99);
  EXPECT_EQ(M.stats().SpecialSearches, 1u);
}

TEST_F(MachineTest, FuelExhaustionTraps) {
  Program P;
  AsmFunction F;
  F.Name = "spin";
  int L = F.newLabel();
  F.placeLabel(L);
  Instruction J;
  J.Op = Opcode::JMPA;
  J.A = Operand::label(L);
  F.emit(J);
  std::string Error;
  ASSERT_TRUE(F.finalize(Error));
  P.Functions.push_back(std::move(F));
  Machine M = makeMachine(P);
  M.setFuel(1000);
  auto R = M.call("spin", {});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("fuel"), std::string::npos);
}

TEST_F(MachineTest, UndefinedFunction) {
  Program P;
  Machine M = makeMachine(P);
  auto R = M.call("absent", {});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("undefined compiled function"), std::string::npos);
}

TEST_F(MachineTest, PerOpcodeCounters) {
  Program P;
  P.Functions.push_back(makeFunction("movs", 0, 0, [](AsmFunction &F) {
    for (int I = 0; I < 3; ++I) {
      Instruction M;
      M.Op = Opcode::MOV;
      M.A = Operand::reg(RV);
      M.B = Operand::imm(0);
      F.emit(M);
    }
  }));
  Machine M = makeMachine(P);
  ASSERT_TRUE(M.call("movs", {}).Ok);
  // Three body MOVs plus the three frame-discipline MOVs of the
  // prologue/epilogue helper.
  EXPECT_EQ(M.stats().Movs, 6u);
  EXPECT_GT(M.stats().Instructions, 6u);
}

//===----------------------------------------------------------------------===//
// Word-heap collector side tables. Every program runs on a fresh Machine,
// so its first block starts at HeapBase (bitmap offset 0), with a
// collection after every allocation, on every engine.
//===----------------------------------------------------------------------===//

class MachineGcTest : public MachineTest {
protected:
  /// Assembles \p Body into a zero-argument function named "gc" and
  /// hands \p Check a fresh Machine per engine.
  void forEachEngine(const std::function<void(AsmFunction &)> &Body,
                     const std::function<void(Machine &)> &Check) {
    Program P;
    P.Functions.push_back(makeFunction("gc", 0, 0, Body));
    std::vector<Engine> Engines = {Engine::Legacy, Engine::Threaded};
    if (jitAvailable())
      Engines.push_back(Engine::Native);
    for (Engine E : Engines) {
      SCOPED_TRACE(engineName(E));
      Machine M = makeMachine(P);
      M.setEngine(E);
      M.setGcEvery(1);
      Check(M);
    }
  }
};

void emit(AsmFunction &F, Opcode Op, Operand A = {}, Operand B = {},
          Operand X = {}) {
  Instruction I;
  I.Op = Op;
  I.A = A;
  I.B = B;
  I.X = X;
  F.emit(I);
}

void alloc(AsmFunction &F, uint8_t Dst, Tag T, int64_t NWords) {
  emit(F, Opcode::ALLOC, Operand::reg(Dst),
       Operand::imm(static_cast<int64_t>(T)), Operand::imm(NWords));
}

void clear(AsmFunction &F, uint8_t R) {
  emit(F, Opcode::MOV, Operand::reg(R), Operand::imm(0));
}

/// RV := fixnum(raw(A) - raw(B)): the word distance between two pointers.
void returnDistance(AsmFunction &F, uint8_t A, uint8_t B) {
  emit(F, Opcode::MOV, Operand::reg(RV), Operand::reg(A));
  emit(F, Opcode::SUB, Operand::reg(RV), Operand::reg(B));
  emit(F, Opcode::PUSH, Operand::reg(RV));
  emit(F, Opcode::SYSCALL,
       Operand::imm(static_cast<int64_t>(Syscall::ConsFixnum)),
       Operand::imm(0), Operand::imm(0));
}

TEST_F(MachineGcTest, InteriorPointerKeepsBlockAlive) {
  forEachEngine(
      [](AsmFunction &F) {
        alloc(F, 8, Tag::Environment, 8); // A
        alloc(F, 9, Tag::Cons, 2);        // C, reachable only through A
        emit(F, Opcode::MOV, Operand::mem(8, 7), Operand::reg(9));
        clear(F, 9);
        emit(F, Opcode::MOV, Operand::reg(10), Operand::reg(8));
        emit(F, Opcode::ADD, Operand::reg(10), Operand::imm(5));
        clear(F, 8); // only the pointer into A's middle is left
        alloc(F, 11, Tag::Environment, 8); // B
        alloc(F, 11, Tag::ArrayF, 1);      // drops B; collects
        alloc(F, 12, Tag::Environment, 8); // reuses B, not A
        returnDistance(F, 12, 10);
      },
      [](Machine &M) {
        auto R = M.call("gc", {});
        ASSERT_TRUE(R.Ok) << R.Error;
        EXPECT_EQ(M.stats().GcWordsReclaimed, 8u) << "only B is garbage";
        // A at 0, C at 8, B at 10: B's reuse sits 5 words past A + 5.
        EXPECT_EQ(R.Result->fixnum(), 5);
      });
}

TEST_F(MachineGcTest, BlockAcrossBitmapWordIsMarkedAndFreedWhole) {
  forEachEngine(
      [](AsmFunction &F) {
        alloc(F, 8, Tag::ArrayF, 60); // words 0-59
        alloc(F, 9, Tag::ArrayF, 10); // S: words 60-69, across 64
        emit(F, Opcode::MOV, Operand::reg(10), Operand::reg(9));
        emit(F, Opcode::ADD, Operand::reg(10), Operand::imm(6)); // word 66
        clear(F, 9);
        alloc(F, 11, Tag::ArrayF, 10); // collects: word 66 must keep S
        alloc(F, 12, Tag::ArrayF, 10); // so this one is fresh, at 80
        clear(F, 10);
        alloc(F, 13, Tag::ArrayF, 1);  // collects: S dies
        alloc(F, 14, Tag::ArrayF, 10); // reuses all of S, at 60
        returnDistance(F, 14, 12);
      },
      [](Machine &M) {
        auto R = M.call("gc", {});
        ASSERT_TRUE(R.Ok) << R.Error;
        EXPECT_EQ(M.stats().GcWordsReclaimed, 10u);
        EXPECT_EQ(R.Result->fixnum(), -20);
      });
}

TEST_F(MachineGcTest, ZeroWordAllocAtHeapTop) {
  forEachEngine(
      [](AsmFunction &F) {
        alloc(F, 8, Tag::ArrayF, static_cast<int64_t>(HeapWords) - 2);
        alloc(F, 9, Tag::ArrayF, 2); // the heap is now exactly full
        alloc(F, 10, Tag::ArrayF, 0);
        clear(F, 9);
        alloc(F, 11, Tag::ArrayF, 0); // collects the 2-word block
        alloc(F, 12, Tag::ArrayF, 2); // fits only by reusing it
        returnDistance(F, 12, 8);
      },
      [](Machine &M) {
        auto R = M.call("gc", {});
        ASSERT_TRUE(R.Ok) << R.Error;
        EXPECT_EQ(M.stats().GcWordsReclaimed, 2u);
        EXPECT_EQ(M.stats().HeapWordsUsed, HeapWords + 2);
        EXPECT_EQ(R.Result->fixnum(), static_cast<int64_t>(HeapWords) - 2);
      });
}

TEST_F(MachineGcTest, SweptStringDropsItsContents) {
  forEachEngine([](AsmFunction &) {}, [this](Machine &M) {
    // Encoded after the schedule is set, so tracked; nothing roots it,
    // and the call's first instruction boundary collects.
    uint64_t W = M.encode(H.string("hi"));
    ASSERT_EQ(sexpr::toString(*M.decode(W)), "\"hi\"");
    ASSERT_TRUE(M.call("gc", {}).Ok);
    EXPECT_EQ(M.stats().GcWordsReclaimed, 1u);
    EXPECT_FALSE(M.decode(W)) << "stale string contents";
    EXPECT_EQ(M.encode(H.string("bye")), W);
    EXPECT_EQ(sexpr::toString(*M.decode(W)), "\"bye\"");
  });
}

TEST_F(MachineGcTest, SameSizeReuseIsLifo) {
  forEachEngine(
      [](AsmFunction &F) {
        alloc(F, 8, Tag::Cons, 2);  // A
        alloc(F, 9, Tag::Cons, 2);  // B stays live
        alloc(F, 10, Tag::Cons, 2); // C
        clear(F, 8);
        clear(F, 10);
        alloc(F, 11, Tag::ArrayF, 1); // collects: frees A, then C
        alloc(F, 12, Tag::Cons, 2);   // most recently freed: C
        alloc(F, 13, Tag::Cons, 2);   // then A
        returnDistance(F, 12, 13);
      },
      [](Machine &M) {
        auto R = M.call("gc", {});
        ASSERT_TRUE(R.Ok) << R.Error;
        EXPECT_EQ(M.stats().GcWordsReclaimed, 4u);
        EXPECT_EQ(R.Result->fixnum(), 4);
      });
}

} // namespace
