//===- tests/vm/JitBlockTest.cpp ------------------------------------------===//
//
// Block-compiler-specific equivalence tiers. EngineEquivalenceTest holds
// the three engines to the contract of EngineHarness.h on ordinary runs;
// this file aims the same contract at the spots the block compiler's
// optimizations could plausibly diverge:
//
//  * safepoint batching — fuel exhaustion is forced at EVERY instruction
//    offset of a synthetic multi-instruction block, so the bulk
//    fuel-charge, the fused-branch precharge, the bulk PerOpcode bump,
//    the hand-off of a block that does not fit, and the trap stubs'
//    exact-state rollback are each observed mid-block;
//  * the inlined cons fast path under forced collections, cross-checked
//    against the interpreter with its after-every-GC heap verifier on
//    (the library behind --gc-verify);
//  * a cons loop that must take the inline fast path for every cons, so
//    the native tier is shown to run its own code rather than hand every
//    block to the threaded loop;
//  * compare+branch fusion over the full NumPred × GenericCompare ×
//    branch-polarity matrix;
//  * a 100-seed fuzz sweep per engine at --gc-every={1,7}.
//
//===----------------------------------------------------------------------===//

#include "EngineHarness.h"

#include "driver/Ablation.h"
#include "driver/Compiler.h"
#include "fuzz/Generator.h"
#include "fuzz/Oracle.h"
#include "interp/Interp.h"
#include "stats/Stats.h"
#include "vm/Jit.h"
#include "vm/Machine.h"

#include "gtest/gtest.h"

#include <sstream>

using namespace s1lisp;
using namespace s1lisp::enginetest;
using sexpr::Value;

namespace {

driver::CompileOutcome compileOrDie(ir::Module &M, const std::string &Source) {
  driver::CompileOutcome Out = driver::compileSource(M, Source, {});
  EXPECT_TRUE(Out.Ok) << Out.Error;
  return Out;
}

//===----------------------------------------------------------------------===//
// Safepoint batching: fuel exhaustion at every offset of a block.
//
// The entry of `sweep` compiles to a long run of PUSHes (ListN collects
// its arguments on the stack) capped by a fused compare+branch, then the
// taken arm conses onto a fresh list — so a fuel sweep from 1 to the
// total retired count lands the trap on every batched offset, on the
// precharged fused branch, and inside the inline-cons block. A block that
// does not fit must hand off with the exact instruction counter,
// per-opcode histogram and SP/StackHighWater, so the threaded loop's
// per-instruction check fires at the same boundary with the same text.
//===----------------------------------------------------------------------===//

constexpr char SweepSource[] =
    "(defun sweep (n)"
    "  (if (< n 50)"
    "      (cons n (list n n n n n n n n))"
    "      (list n n)))";

void fuelSweep(uint64_t GcEvery) {
  ir::Module M;
  driver::CompileOutcome Out = compileOrDie(M, SweepSource);
  if (!Out.Ok)
    return;
  std::vector<Value> Args = {Value::fixnum(7)};
  EngineRun Full = runOn(Out.Program, M.Syms, M.DataHeap, "sweep", Args,
                         vm::Engine::Legacy, {.GcEvery = GcEvery});
  ASSERT_TRUE(Full.Ok) << Full.Text;
  uint64_t Total = Full.Stats.Instructions;
  ASSERT_GT(Total, 10u) << "synthetic block too short to sweep";
  for (uint64_t Fuel = 1; Fuel <= Total + 1; ++Fuel) {
    EngineRun L = expectEnginesAgree(Out.Program, M.Syms, M.DataHeap, "sweep",
                                     Args, {Fuel, GcEvery});
    EXPECT_EQ(L.Ok, Fuel >= Total) << "fuel=" << Fuel << " of " << Total;
  }
}

TEST(JitBlock, FuelTrapAtEveryOffsetDetailed) { fuelSweep(/*GcEvery=*/0); }

TEST(JitBlock, FuelTrapAtEveryOffsetUnderGc) {
  // With a schedule set each block entry also checks for a pending
  // collection, after the fit test so a fuel trap wins over it — sweep
  // that shape too.
  fuelSweep(/*GcEvery=*/1);
}

//===----------------------------------------------------------------------===//
// Inlined cons under forced collections, with the heap verifier on.
//===----------------------------------------------------------------------===//

constexpr char ConsLoopSource[] =
    "(defun build (n acc)"
    "  (if (zerop n) acc (build (- n 1) (cons n acc))))"
    "(defun drive (n) (length (build n nil)))";

TEST(JitBlock, InlineConsAgreesUnderForcedGc) {
  for (uint64_t GcEvery : {0, 1, 3, 7})
    expectEquivalent(ConsLoopSource, "drive", {Value::fixnum(300)}, {},
                     {.GcEvery = GcEvery});
}

TEST(JitBlock, InlineConsSurvivesHeapVerifier) {
  // The interpreter shares the runtime-heap library behind --gc-verify:
  // with a schedule set it re-walks the whole heap after every
  // collection and aborts on any dangling or mistagged cell. Running the
  // same source there (gc-every=1, verify on) and demanding the same
  // printed value pins the VM engines — including the JIT's inline
  // bump-allocation — to a verified-heap reference.
  ir::Module M;
  driver::CompileOutcome Out = compileOrDie(M, ConsLoopSource);
  if (!Out.Ok)
    return;
  std::vector<Value> Args = {Value::fixnum(120)};
  EngineRun L = expectEnginesAgree(Out.Program, M.Syms, M.DataHeap, "drive",
                                   Args, {.GcEvery = 1});
  ASSERT_TRUE(L.Ok) << L.Text;
  interp::Interpreter I(M);
  I.setFuel(2'000'000);
  I.setGcEvery(1);
  I.setGcVerify(true);
  interp::Interpreter::Result R =
      I.call("drive", {interp::RtValue::data(Args[0])});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.str(), L.Text);
}

//===----------------------------------------------------------------------===//
// Native code actually runs. Every other tier would still pass if each
// block handed off to the threaded loop; the inline cons
// fast path exists only in generated code, so its hit count shows that
// the loop ran natively. Fuel that runs out inside the loop hands one
// block off, and the trap must still keep the contract.
//===----------------------------------------------------------------------===//

TEST(JitBlock, ConsLoopRunsNatively) {
  if (!vm::jitAvailable())
    GTEST_SKIP() << "no native tier on this host";
  ir::Module M;
  driver::CompileOutcome Out = compileOrDie(M, ConsLoopSource);
  if (!Out.Ok)
    return;
  constexpr uint64_t N = 1000;
  std::vector<Value> Args = {Value::fixnum(N)};
  vm::Machine VM(Out.Program, M.Syms, M.DataHeap);
  VM.setEngine(vm::Engine::Native);
  vm::Machine::RunResult R = VM.call("drive", Args);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Result->fixnum(), static_cast<int64_t>(N));
  stats::LocalTally T;
  {
    stats::TallyScope Scope(T);
    VM.publishStats();
  }
  uint64_t Hits = 0;
  for (const stats::TallyDelta &D : T.deltas())
    if (D.Name == "jit.cons.fast.hits")
      Hits = D.Add;
  EXPECT_EQ(Hits, N) << "conses that took the inline fast path";

  EngineRun L = expectEnginesAgree(Out.Program, M.Syms, M.DataHeap, "drive",
                                   Args, {.Fuel = VM.stats().Instructions / 2});
  EXPECT_FALSE(L.Ok) << L.Text;
}

//===----------------------------------------------------------------------===//
// Compare+branch fusion matrix: every fusable predicate and comparison,
// under both branch polarities (the plain test branches on EQ-with-nil,
// the negated test flips the codegen'd condition), with arguments that
// exercise both the taken and the fall-through edge, and with the fused
// pair split across a forced-GC safepoint.
//===----------------------------------------------------------------------===//

TEST(JitBlock, FusionMatrixNumPreds) {
  const char *Preds[] = {"zerop", "oddp", "evenp", "plusp", "minusp"};
  for (const char *P : Preds)
    for (bool Negated : {false, true}) {
      std::ostringstream Src;
      Src << "(defun f (a b) (if " << (Negated ? "(not (" : "(") << P
          << " a)" << (Negated ? ")" : "") << " (+ b 1) (- b 1)))";
      for (int64_t A : {-3, -2, 0, 2, 5})
        for (uint64_t GcEvery : {0, 1})
          expectEquivalent(Src.str(), "f",
                           {Value::fixnum(A), Value::fixnum(10)}, {},
                           {.GcEvery = GcEvery});
    }
}

TEST(JitBlock, FusionMatrixGenericCompares) {
  const char *Ops[] = {"=", "<", ">", "<=", ">=", "/="};
  for (const char *Op : Ops)
    for (bool Negated : {false, true}) {
      std::ostringstream Src;
      Src << "(defun f (a b) (if " << (Negated ? "(not (" : "(") << Op
          << " a b)" << (Negated ? ")" : "") << " (+ a b) (- a b)))";
      for (auto [A, B] : {std::pair<int64_t, int64_t>{3, 7},
                          {7, 3},
                          {4, 4}})
        for (uint64_t GcEvery : {0, 1})
          expectEquivalent(Src.str(), "f",
                           {Value::fixnum(A), Value::fixnum(B)}, {},
                           {.GcEvery = GcEvery});
    }
}

//===----------------------------------------------------------------------===//
// Fuzzed tier: 100 seeds per engine, interpreter-differential with
// forced collections every {1,7} allocations (interpreter side verifies
// its heap after every collection). One optimized configuration bounds
// the cost; the full ablation matrix is DifferentialFuzzTest's job.
//===----------------------------------------------------------------------===//

constexpr unsigned JitFuzzBatch = 25;

class JitGcFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(JitGcFuzz, EnginesAgreeUnderForcedGc) {
  std::vector<driver::AblationConfig> Configs = {
      driver::ablationMatrix().front()};
  ASSERT_EQ(Configs.front().Name, "O2");
  std::vector<vm::Engine> Engines = enginesUnderTest();
  for (unsigned Seed = GetParam(); Seed < GetParam() + JitFuzzBatch; ++Seed) {
    fuzz::Generator G(Seed, {});
    fuzz::GeneratedProgram P = G.generate();
    for (vm::Engine Eng : Engines)
      for (uint64_t GcEvery : {1, 7}) {
        fuzz::OracleOptions OO;
        OO.Configs = Configs;
        OO.InterpFuel = 100'000;
        OO.VmFuel = 1'000'000;
        OO.Engine = Eng;
        OO.GcEvery = GcEvery;
        fuzz::CheckResult R = fuzz::checkProgram(P, OO);
        EXPECT_EQ(R.St, fuzz::CheckResult::Status::Agree)
            << "seed " << Seed << " engine " << vm::engineName(Eng)
            << " gc-every=" << GcEvery << " diverged ("
            << R.Divergences.size() << " rows)\n"
            << (R.Divergences.empty()
                    ? std::string()
                    : "  first: " + R.Divergences.front().Reference.Text +
                          " vs " + R.Divergences.front().Actual.Text + "\n")
            << P.Source;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitGcFuzz,
                         ::testing::Range(3000u, 3100u, JitFuzzBatch));

} // namespace
