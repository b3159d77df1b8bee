//===- tests/vm/EngineEquivalenceTest.cpp ---------------------------------===//
//
// The three dispatch engines — the legacy per-step switch, the pre-decoded
// threaded loop, and the native template-JIT — must be observably
// indistinguishable: same printed values, same error classes, and
// bit-identical MachineStats (including the per-opcode histogram, which is
// why the legacy engine may not retire LABEL pseudo-ops). A block of fuzz
// seeds drives every engine over each program's argument grid, and
// targeted cases pin down the spots where the engines are easiest to get
// wrong: traps, special-variable lookup caching, detailed-stats gating,
// and collections forced mid-run. On hosts without the JIT
// (vm::jitAvailable() false) the native rows are skipped; Machine itself
// falls back to the threaded loop there.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "fuzz/Generator.h"
#include "fuzz/Oracle.h"
#include "sexpr/Printer.h"
#include "vm/Jit.h"
#include "vm/Machine.h"

#include "gtest/gtest.h"

#include <sstream>

using namespace s1lisp;
using sexpr::Value;

namespace {

/// Legacy + threaded, plus native when this host can JIT.
std::vector<vm::Engine> enginesUnderTest() {
  std::vector<vm::Engine> Engines = {vm::Engine::Legacy, vm::Engine::Threaded};
  if (vm::jitAvailable())
    Engines.push_back(vm::Engine::Native);
  return Engines;
}

struct EngineRun {
  bool Ok = false;
  std::string Text; ///< printed value, or the error message
  vm::MachineStats Stats;
};

/// When the word-heap collector runs: every N allocations, or whenever
/// the live heap reaches a budget. All zero turns it off.
struct GcSchedule {
  uint64_t Every = 0;
  uint64_t BudgetBytes = 0;
};

std::string describe(GcSchedule S) {
  return S.BudgetBytes ? "heap-budget=" + std::to_string(S.BudgetBytes)
                       : "gc-every=" + std::to_string(S.Every);
}

EngineRun runOn(const s1::Program &P, ir::Module &M, const std::string &Entry,
                const std::vector<Value> &Args, vm::Engine Eng,
                bool DetailedStats = true, GcSchedule Gc = {}) {
  vm::Machine VM(P, M.Syms, M.DataHeap);
  VM.setEngine(Eng);
  VM.setDetailedStats(DetailedStats);
  VM.setGcEvery(Gc.Every);
  VM.setGcBudget(Gc.BudgetBytes);
  VM.setFuel(2'000'000);
  vm::Machine::RunResult R = VM.call(Entry, Args);
  EngineRun Out;
  Out.Ok = R.Ok;
  Out.Text = R.Ok ? (R.Result ? sexpr::toString(*R.Result) : "#<undecodable>")
                  : R.Error;
  Out.Stats = VM.stats();
  return Out;
}

std::string diffStats(const vm::MachineStats &L, const vm::MachineStats &T,
                      const char *LName, const char *TName) {
  std::ostringstream Out;
  auto Cmp = [&](const char *Name, uint64_t A, uint64_t B) {
    if (A != B)
      Out << "  " << Name << ": " << LName << " " << A << " vs " << TName
          << " " << B << "\n";
  };
  Cmp("Instructions", L.Instructions, T.Instructions);
  Cmp("Movs", L.Movs, T.Movs);
  Cmp("Calls", L.Calls, T.Calls);
  Cmp("TailCalls", L.TailCalls, T.TailCalls);
  Cmp("Syscalls", L.Syscalls, T.Syscalls);
  Cmp("HeapObjects", L.HeapObjects, T.HeapObjects);
  Cmp("HeapWordsUsed", L.HeapWordsUsed, T.HeapWordsUsed);
  Cmp("StackHighWater", L.StackHighWater, T.StackHighWater);
  Cmp("SpecialSearches", L.SpecialSearches, T.SpecialSearches);
  Cmp("SpecialSearchSteps", L.SpecialSearchSteps, T.SpecialSearchSteps);
  // Collections happen at an instruction boundary all engines share, so
  // even the GC counters are bit-identical. (Pause *timing* lives outside
  // MachineStats precisely so this comparison stays exact.)
  Cmp("GcRuns", L.GcRuns, T.GcRuns);
  Cmp("GcWordsReclaimed", L.GcWordsReclaimed, T.GcWordsReclaimed);
  for (size_t I = 0; I < L.PerOpcode.size(); ++I)
    if (L.PerOpcode[I] != T.PerOpcode[I])
      Out << "  PerOpcode[" << I << "]: " << LName << " " << L.PerOpcode[I]
          << " vs " << TName << " " << T.PerOpcode[I] << "\n";
  return Out.str();
}

/// Compiles and runs one grid point on every engine, asserting
/// observational equivalence against the legacy baseline.
void expectEquivalent(const std::string &Source, const std::string &Entry,
                      const std::vector<Value> &Args,
                      const driver::CompilerOptions &Opts = {},
                      GcSchedule Gc = {}) {
  ir::Module M;
  driver::CompileOutcome Out = driver::compileSource(M, Source, Opts);
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EngineRun L = runOn(Out.Program, M, Entry, Args, vm::Engine::Legacy,
                      /*DetailedStats=*/true, Gc);
  for (vm::Engine Eng : enginesUnderTest()) {
    if (Eng == vm::Engine::Legacy)
      continue;
    const char *Name = vm::engineName(Eng);
    EngineRun T = runOn(Out.Program, M, Entry, Args, Eng,
                        /*DetailedStats=*/true, Gc);
    ASSERT_EQ(L.Ok, T.Ok) << "legacy: " << L.Text << "\n"
                          << Name << ": " << T.Text;
    if (L.Ok)
      EXPECT_EQ(L.Text, T.Text) << "engine " << Name;
    else
      EXPECT_EQ(fuzz::classifyError(L.Text), fuzz::classifyError(T.Text))
          << "legacy: " << L.Text << "\n"
          << Name << ": " << T.Text;
    EXPECT_EQ(diffStats(L.Stats, T.Stats, "legacy", Name), "");
  }
}

//===----------------------------------------------------------------------===//
// Fuzzed tier: 200 seeded programs, every grid point on every engine.
//===----------------------------------------------------------------------===//

constexpr unsigned BatchSize = 25;

class EngineEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineEquivalence, FuzzSeedsAgree) {
  std::vector<vm::Engine> Engines = enginesUnderTest();
  for (unsigned Seed = GetParam(); Seed < GetParam() + BatchSize; ++Seed) {
    fuzz::Generator G(Seed, {});
    fuzz::GeneratedProgram P = G.generate();
    ir::Module M;
    driver::CompileOutcome Out = driver::compileSource(M, P.Source, {});
    ASSERT_TRUE(Out.Ok) << "seed " << Seed << ": " << Out.Error;
    for (size_t Row = 0; Row < P.ArgGrid.size(); ++Row) {
      EngineRun L =
          runOn(Out.Program, M, P.Entry, P.ArgGrid[Row], vm::Engine::Legacy);
      for (vm::Engine Eng : Engines) {
        if (Eng == vm::Engine::Legacy)
          continue;
        const char *Name = vm::engineName(Eng);
        EngineRun T = runOn(Out.Program, M, P.Entry, P.ArgGrid[Row], Eng);
        ASSERT_EQ(L.Ok, T.Ok)
            << "seed " << Seed << " row " << Row << "\n  legacy: " << L.Text
            << "\n  " << Name << ": " << T.Text << "\n"
            << P.Source;
        if (L.Ok)
          EXPECT_EQ(L.Text, T.Text)
              << "seed " << Seed << " row " << Row << " engine " << Name;
        else
          EXPECT_EQ(fuzz::classifyError(L.Text), fuzz::classifyError(T.Text))
              << "seed " << Seed << " row " << Row << "\n  legacy: " << L.Text
              << "\n  " << Name << ": " << T.Text;
        EXPECT_EQ(diffStats(L.Stats, T.Stats, "legacy", Name), "")
            << "seed " << Seed << " row " << Row << "\n"
            << P.Source;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalence,
                         ::testing::Range(2000u, 2200u, BatchSize));

//===----------------------------------------------------------------------===//
// GC-forced tier: the same equivalence with the word-heap collector
// running mid-program, on a forced schedule and under a live-heap budget.
// Collections fire at an instruction boundary all engines share (the JIT
// emits a GcPending safepoint check before every instruction when a
// schedule is set), so values, error classes, and every counter —
// including GcRuns and GcWordsReclaimed — must stay bit-identical.
//===----------------------------------------------------------------------===//

class EngineEquivalenceGc : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineEquivalenceGc, FuzzSeedsAgreeUnderForcedCollections) {
  std::vector<vm::Engine> Engines = enginesUnderTest();
  const GcSchedule Schedules[] = {{1, 0}, {7, 0}, {0, 64}, {0, 512}};
  uint64_t BudgetRuns = 0;
  for (unsigned Seed = GetParam(); Seed < GetParam() + BatchSize; ++Seed) {
    fuzz::Generator G(Seed, {});
    fuzz::GeneratedProgram P = G.generate();
    ir::Module M;
    driver::CompileOutcome Out = driver::compileSource(M, P.Source, {});
    ASSERT_TRUE(Out.Ok) << "seed " << Seed << ": " << Out.Error;
    for (GcSchedule Gc : Schedules) {
      std::string Sched = describe(Gc);
      for (size_t Row = 0; Row < P.ArgGrid.size(); ++Row) {
        EngineRun L = runOn(Out.Program, M, P.Entry, P.ArgGrid[Row],
                            vm::Engine::Legacy, true, Gc);
        if (Gc.BudgetBytes)
          BudgetRuns += L.Stats.GcRuns;
        for (vm::Engine Eng : Engines) {
          if (Eng == vm::Engine::Legacy)
            continue;
          const char *Name = vm::engineName(Eng);
          EngineRun T = runOn(Out.Program, M, P.Entry, P.ArgGrid[Row], Eng,
                              true, Gc);
          ASSERT_EQ(L.Ok, T.Ok)
              << "seed " << Seed << " row " << Row << " " << Sched
              << "\n  legacy: " << L.Text << "\n  " << Name << ": " << T.Text
              << "\n"
              << P.Source;
          if (L.Ok)
            EXPECT_EQ(L.Text, T.Text) << "seed " << Seed << " row " << Row
                                      << " " << Sched << " engine " << Name;
          else
            EXPECT_EQ(fuzz::classifyError(L.Text), fuzz::classifyError(T.Text))
                << "seed " << Seed << " row " << Row << " " << Sched
                << "\n  legacy: " << L.Text << "\n  " << Name << ": "
                << T.Text;
          EXPECT_EQ(diffStats(L.Stats, T.Stats, "legacy", Name), "")
              << "seed " << Seed << " row " << Row << " " << Sched << "\n"
              << P.Source;
        }
      }
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
                   "churn", {Value::fixnum(200)}, {}, {/*Every=*/1, 0});
}

TEST(EngineEquivalenceFixed, CollectionsActuallyRanAndReclaimed) {
  ir::Module M;
  driver::CompileOutcome Out = driver::compileSource(
      M, "(defun churn (n)"
         "  (let ((s 0)) (dotimes (i n)"
         "    (setq s (+ s (length (reverse (list i i i)))))) s))");
  ASSERT_TRUE(Out.Ok) << Out.Error;
  for (GcSchedule Gc : {GcSchedule{8, 0}, GcSchedule{0, 256}}) {
    for (vm::Engine Eng : enginesUnderTest()) {
      EngineRun R = runOn(Out.Program, M, "churn", {Value::fixnum(300)}, Eng,
                          true, Gc);
      ASSERT_TRUE(R.Ok) << R.Text;
      EXPECT_EQ(R.Text, "900");
      EXPECT_GT(R.Stats.GcRuns, 0u) << describe(Gc);
      EXPECT_GT(R.Stats.GcWordsReclaimed, 0u) << describe(Gc);
    }
  }
}

TEST(EngineEquivalenceFixed, DisabledDetailGatesOnlyDetailCounters) {
  const char *Source = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) "
                       "(fib (- n 2)))))";
  ir::Module M;
  driver::CompileOutcome Out = driver::compileSource(M, Source, {});
  ASSERT_TRUE(Out.Ok) << Out.Error;
  for (vm::Engine Eng : enginesUnderTest()) {
    EngineRun On = runOn(Out.Program, M, "fib", {Value::fixnum(12)}, Eng,
                         /*DetailedStats=*/true);
    EngineRun Off = runOn(Out.Program, M, "fib", {Value::fixnum(12)}, Eng,
                          /*DetailedStats=*/false);
    EXPECT_EQ(On.Text, Off.Text);
    // Architectural counters survive; only the detail set goes dark.
    EXPECT_EQ(On.Stats.Instructions, Off.Stats.Instructions);
    EXPECT_EQ(On.Stats.Calls, Off.Stats.Calls);
    EXPECT_EQ(On.Stats.SpecialSearchSteps, Off.Stats.SpecialSearchSteps);
    EXPECT_EQ(Off.Stats.Movs, 0u);
    EXPECT_GT(On.Stats.Movs, 0u);
    uint64_t OffHistogram = 0;
    for (uint64_t C : Off.Stats.PerOpcode)
      OffHistogram += C;
    EXPECT_EQ(OffHistogram, 0u);
  }
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
