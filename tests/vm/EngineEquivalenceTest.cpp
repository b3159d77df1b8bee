//===- tests/vm/EngineEquivalenceTest.cpp ---------------------------------===//
//
// The three dispatch engines — the legacy per-step switch (the reference),
// the pre-decoded threaded loop, and the native block compiler — must be
// observably indistinguishable: the same printed value, or the same trap
// text with the same pc, and equal MachineStats (including the per-opcode
// histogram, which is why the legacy engine may not retire LABEL
// pseudo-ops). EngineHarness.h checks that contract; this file drives it
// over a block of fuzz seeds on each program's argument grid, and over
// targeted cases where the engines are easiest to get wrong: traps,
// special-variable lookup caching, collections forced mid-run, and the
// dispatch kernels bench/bench_gates.cpp times. On hosts without the JIT
// (vm::jitAvailable() false) the native rows are skipped; Machine itself
// falls back to the threaded loop there.
//
//===----------------------------------------------------------------------===//

#include "EngineHarness.h"

#include "driver/Compiler.h"
#include "fuzz/Generator.h"
#include "vm/Jit.h"
#include "vm/Machine.h"

#include "gtest/gtest.h"

using namespace s1lisp;
using namespace s1lisp::enginetest;
using sexpr::Value;

namespace {

std::string where(unsigned Seed, size_t Row, const std::string &Source) {
  return "seed " + std::to_string(Seed) + " row " + std::to_string(Row) +
         "\n" + Source;
}

//===----------------------------------------------------------------------===//
// Fuzzed tier: 200 seeded programs, every grid point on every engine.
//===----------------------------------------------------------------------===//

constexpr unsigned BatchSize = 25;

class EngineEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineEquivalence, FuzzSeedsAgree) {
  for (unsigned Seed = GetParam(); Seed < GetParam() + BatchSize; ++Seed) {
    fuzz::Generator G(Seed, {});
    fuzz::GeneratedProgram P = G.generate();
    ir::Module M;
    driver::CompileOutcome Out = driver::compileSource(M, P.Source, {});
    ASSERT_TRUE(Out.Ok) << "seed " << Seed << ": " << Out.Error;
    for (size_t Row = 0; Row < P.ArgGrid.size(); ++Row) {
      SCOPED_TRACE(where(Seed, Row, P.Source));
      expectEnginesAgree(Out.Program, M.Syms, M.DataHeap, P.Entry,
                         P.ArgGrid[Row]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalence,
                         ::testing::Range(2000u, 2200u, BatchSize));

//===----------------------------------------------------------------------===//
// GC-forced tier: the same contract with the word-heap collector running
// mid-program, on a forced schedule and under a live-heap budget.
// Collections fire at an instruction boundary all engines share (the JIT
// checks for a pending collection at every block entry when a schedule
// is set), so even GcRuns and GcWordsReclaimed must be equal.
//===----------------------------------------------------------------------===//

class EngineEquivalenceGc : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineEquivalenceGc, FuzzSeedsAgreeUnderForcedCollections) {
  const RunConfig Schedules[] = {{.GcEvery = 1},
                                 {.GcEvery = 7},
                                 {.GcBudgetBytes = 64},
                                 {.GcBudgetBytes = 512}};
  uint64_t BudgetRuns = 0;
  for (unsigned Seed = GetParam(); Seed < GetParam() + BatchSize; ++Seed) {
    fuzz::Generator G(Seed, {});
    fuzz::GeneratedProgram P = G.generate();
    ir::Module M;
    driver::CompileOutcome Out = driver::compileSource(M, P.Source, {});
    ASSERT_TRUE(Out.Ok) << "seed " << Seed << ": " << Out.Error;
    for (const RunConfig &C : Schedules)
      for (size_t Row = 0; Row < P.ArgGrid.size(); ++Row) {
        SCOPED_TRACE(where(Seed, Row, P.Source));
        EngineRun L = expectEnginesAgree(Out.Program, M.Syms, M.DataHeap,
                                         P.Entry, P.ArgGrid[Row], C);
        if (C.GcBudgetBytes)
          BudgetRuns += L.Stats.GcRuns;
      }
  }
  // The budget rows must exercise budget-triggered collection at all.
  EXPECT_GT(BudgetRuns, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceGc,
                         ::testing::Range(2000u, 2100u, BatchSize));

//===----------------------------------------------------------------------===//
// Targeted cases
//===----------------------------------------------------------------------===//

TEST(EngineEquivalenceFixed, RecursionAndArithmetic) {
  expectEquivalent("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) "
                   "(fib (- n 2)))))",
                   "fib", {Value::fixnum(15)});
}

TEST(EngineEquivalenceFixed, LoopsCountLabelsIdentically) {
  // dotimes compiles to backward branches over stripped LABELs; the
  // legacy engine must not retire those pseudo-ops as instructions.
  expectEquivalent("(defun k (n) (let ((s 0)) (dotimes (i n) "
                   "(setq s (+ s i))) s))",
                   "k", {Value::fixnum(500)});
}

TEST(EngineEquivalenceFixed, SpecialLookupStepsMatch) {
  // The threaded engine's per-symbol lookup cache must charge exactly the
  // steps the legacy linear search counts, across rebinds and unbinds.
  expectEquivalent("(defvar *v*)"
                   "(defvar *pad*)"
                   "(defun poll (n)"
                   "  (let ((s 0)) (dotimes (i n) (setq s (+ s *v*))) s))"
                   "(defun nest (depth n)"
                   "  (if (zerop depth)"
                   "      (poll n)"
                   "      (let ((*pad* depth) (*v* depth))"
                   "        (+ (nest (1- depth) n) *v*))))",
                   "nest", {Value::fixnum(12), Value::fixnum(40)});
}

TEST(EngineEquivalenceFixed, TrapsAgree) {
  expectEquivalent("(defun boom (n) (/ n 0))", "boom", {Value::fixnum(7)});
  expectEquivalent("(defun deep (n) (+ 1 (deep n)))", "deep",
                   {Value::fixnum(1)});
  expectEquivalent("(defun car-of-fixnum (n) (car n))", "car-of-fixnum",
                   {Value::fixnum(3)});
}

TEST(EngineEquivalenceFixed, FixnumOverflowTrapsAgree) {
  // Exercises the JIT's inline fixnum fast paths right at their overflow
  // exits (the 32-bit compiled-fixnum range check).
  expectEquivalent("(defun ovf (n) (* n n))", "ovf", {Value::fixnum(70000)});
  expectEquivalent("(defun inc (n) (1+ n))", "inc",
                   {Value::fixnum(2147483647)});
}

TEST(EngineEquivalenceFixed, UnoptimizedCodeAgrees) {
  driver::CompilerOptions NoOpt;
  NoOpt.Optimize = false;
  NoOpt.Codegen.TnBind.UseRegisters = false;
  expectEquivalent("(defun k (n) (let ((s 0)) (dotimes (i n) "
                   "(setq s (+ s i))) s))",
                   "k", {Value::fixnum(200)}, NoOpt);
}

TEST(EngineEquivalenceFixed, ListChurnWithCollectionEveryAllocation) {
  // A list-heavy loop whose intermediate lists die every iteration: the
  // collector has real garbage to reclaim mid-run, and all engines must
  // reclaim the same words at the same points.
  expectEquivalent("(defun churn (n)"
                   "  (let ((s 0)) (dotimes (i n)"
                   "    (setq s (+ s (length (reverse (list i (+ i 1) (+ i 2)))))))"
                   "  s))",
                   "churn", {Value::fixnum(200)}, {}, {.GcEvery = 1});
}

TEST(EngineEquivalenceFixed, CollectionsActuallyRanAndReclaimed) {
  ir::Module M;
  driver::CompileOutcome Out = driver::compileSource(
      M, "(defun churn (n)"
         "  (let ((s 0)) (dotimes (i n)"
         "    (setq s (+ s (length (reverse (list i i i)))))) s))");
  ASSERT_TRUE(Out.Ok) << Out.Error;
  for (RunConfig C :
       {RunConfig{.GcEvery = 8}, RunConfig{.GcBudgetBytes = 256}})
    for (vm::Engine Eng : enginesUnderTest()) {
      EngineRun R = runOn(Out.Program, M.Syms, M.DataHeap, "churn",
                          {Value::fixnum(300)}, Eng, C);
      ASSERT_TRUE(R.Ok) << R.Text;
      EXPECT_EQ(R.Text, "900");
      EXPECT_GT(R.Stats.GcRuns, 0u) << describe(C);
      EXPECT_GT(R.Stats.GcWordsReclaimed, 0u) << describe(C);
    }
}

TEST(EngineEquivalenceFixed, CompiledArraysAreCollected) {
  // make-array$f in compiled code allocates an ordinary heap object that
  // dies with its iteration; only arrays the host makes stay pinned. Were
  // every array a root, the heap would outgrow the budget for good and
  // every allocation would collect while reclaiming nothing.
  EngineRun L = expectEquivalent(
      "(defun churn (n) (dotimes (i n) (make-array$f 100)) 0)", "churn",
      {Value::fixnum(2000)}, {}, {.GcBudgetBytes = 65536});
  EXPECT_EQ(L.Text, "0");
  EXPECT_GT(L.Stats.GcWordsReclaimed, 0u);
  EXPECT_LT(L.Stats.GcRuns, 100u);
}

// The three dispatch kernels the native-over-threaded gate times
// (bench/bench_gates.cpp), at the timed sizes, so that a wall-clock win
// there cannot come from an engine retiring different work.
constexpr uint64_t KernelFuel = 500'000'000;

TEST(EngineEquivalenceFixed, TimedLoopKernelAgrees) {
  expectEquivalent("(defun kernel (n)"
                   "  (let ((s 0)) (dotimes (i n) (setq s (+ s i))) s))",
                   "kernel", {Value::fixnum(60000)}, {}, {.Fuel = KernelFuel});
}

TEST(EngineEquivalenceFixed, TimedFibKernelAgrees) {
  expectEquivalent("(defun kernel (n)"
                   "  (if (< n 2) n (+ (kernel (- n 1)) (kernel (- n 2)))))",
                   "kernel", {Value::fixnum(22)}, {}, {.Fuel = KernelFuel});
}

TEST(EngineEquivalenceFixed, TimedTakKernelAgrees) {
  expectEquivalent("(defun tak (x y z)"
                   "  (if (< y x)"
                   "      (tak (tak (- x 1) y z) (tak (- y 1) z x)"
                   "           (tak (- z 1) x y))"
                   "      z))",
                   "tak",
                   {Value::fixnum(18), Value::fixnum(12), Value::fixnum(6)}, {},
                   {.Fuel = KernelFuel});
}

TEST(EngineEquivalenceFixed, NativeReportsAvailability) {
  // On x86-64 hosts the JIT must be present; elsewhere compileJit returns
  // null and Machine::runNative falls back to the threaded loop (tested
  // implicitly: the suites above still pass with Engine::Native).
#if defined(__x86_64__) && (defined(__linux__) || defined(__APPLE__))
  EXPECT_TRUE(vm::jitAvailable());
#else
  EXPECT_FALSE(vm::jitAvailable());
#endif
}

} // namespace
