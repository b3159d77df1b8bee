//===- tests/integration/GcWorkloadsTest.cpp ------------------------------===//
//
// Golden-value coverage for the cons-heavy workloads in examples/gc/.
// Each workload has a closed-form checksum, so the same sources serve
// three masters: these tests pin the values at small sizes (interpreter
// and compiled, with and without a collection forced at every cons),
// bench_gc re-runs them at millions of conses, and the examples stay
// runnable documentation.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "frontend/Convert.h"
#include "interp/Interp.h"
#include "sexpr/Printer.h"
#include "vm/Jit.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace s1lisp;
using sexpr::Value;

namespace {

std::string slurp(const std::string &Name) {
  std::ifstream In(std::string(S1LISP_EXAMPLES_DIR) + "/gc/" + Name);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The compiled collector's counters after three calls at N on one Machine
/// under a GcBudgetBytes budget.
struct BudgetGolden {
  int64_t N;
  uint64_t GcRuns, GcWordsReclaimed, HeapWordsUsed;
};
constexpr uint64_t GcBudgetBytes = 16u << 10;

struct Workload {
  const char *File;
  const char *Fn;
  int64_t (*Golden)(int64_t N); // closed-form checksum
  int64_t MainValue;            // value of (main) at the file's built-in size
  BudgetGolden Budget;
};

int64_t sumSquares(int64_t N) { return N * (N - 1) * (2 * N - 1) / 6; }

const Workload Workloads[] = {
    {"assoc.lisp", "alist-workload", sumSquares, 85344, {200, 1, 1600, 2401}},
    {"append-reverse.lisp", "append-reverse-workload",
     [](int64_t N) { return N * (N * (N + 1) / 2); }, 936,
     {20, 55, 43440, 45721}},
    {"map-chain.lisp", "map-chain-workload",
     [](int64_t N) { return 3 * (sumSquares(N) + N); }, 31344,
     {200, 5, 6416, 8419}},
};

std::string interpRun(const std::string &Src, const std::string &Fn,
                      const std::vector<Value> &Args, uint64_t GcEvery) {
  ir::Module M;
  DiagEngine Diags;
  if (!frontend::convertSource(M, Src, Diags))
    return "CONVERT-ERROR: " + Diags.str();
  interp::Interpreter I(M);
  if (GcEvery) {
    I.setGcEvery(GcEvery);
    I.setGcVerify(true);
  }
  std::vector<interp::RtValue> RtArgs;
  for (Value V : Args)
    RtArgs.push_back(interp::RtValue::data(V));
  auto R = I.call(Fn, RtArgs);
  return R.Ok ? R.Value.str() : "ERROR: " + R.Error;
}

std::string compiledRun(const std::string &Src, const std::string &Fn,
                        const std::vector<Value> &Args, uint64_t GcEvery) {
  ir::Module M;
  auto Out = driver::compileSource(M, Src);
  if (!Out.Ok)
    return "COMPILE-ERROR: " + Out.Error;
  vm::Machine VM(Out.Program, M.Syms, M.DataHeap);
  VM.setGcEvery(GcEvery);
  auto R = VM.call(Fn, Args);
  if (!R.Ok)
    return "ERROR: " + R.Error;
  return R.Result ? sexpr::toString(*R.Result) : "#<undecodable>";
}

class GcWorkloads : public ::testing::TestWithParam<int> {};

TEST_P(GcWorkloads, GoldenValuesAtSmallSizes) {
  const Workload &W = Workloads[GetParam()];
  std::string Src = slurp(W.File);
  ASSERT_FALSE(Src.empty()) << W.File;

  for (int64_t N : {0, 1, 5, 24}) {
    std::string Want = std::to_string(W.Golden(N));
    std::vector<Value> Args = {Value::fixnum(N)};
    // The collector must be invisible: GC off, a collection every 64
    // conses, and a collection at every cons all print the same number,
    // in both engines, with the interpreter's heap verifier enabled.
    for (uint64_t GcEvery : {0, 64, 1}) {
      EXPECT_EQ(interpRun(Src, W.Fn, Args, GcEvery), Want)
          << W.File << " n=" << N << " gc-every=" << GcEvery;
      EXPECT_EQ(compiledRun(Src, W.Fn, Args, GcEvery), Want)
          << W.File << " n=" << N << " gc-every=" << GcEvery;
    }
  }
}

TEST_P(GcWorkloads, MainMatchesDocumentedChecksum) {
  const Workload &W = Workloads[GetParam()];
  std::string Src = slurp(W.File);
  ASSERT_FALSE(Src.empty()) << W.File;
  std::string Want = std::to_string(W.MainValue);
  EXPECT_EQ(interpRun(Src, "main", {}, 0), Want) << W.File;
  EXPECT_EQ(compiledRun(Src, "main", {}, 0), Want) << W.File;
}

TEST_P(GcWorkloads, CompiledCollectorCountersUnderBudget) {
  // Budget-triggered collection, pinned to exact counters on every engine:
  // what the collector traces, frees and charges against the budget must
  // not drift when its data structures change.
  const Workload &W = Workloads[GetParam()];
  ir::Module M;
  auto Out = driver::compileSource(M, slurp(W.File));
  ASSERT_TRUE(Out.Ok) << Out.Error;
  std::string Want = std::to_string(W.Golden(W.Budget.N));
  std::vector<vm::Engine> Engines = {vm::Engine::Legacy,
                                     vm::Engine::Threaded};
  if (vm::jitAvailable())
    Engines.push_back(vm::Engine::Native);
  for (vm::Engine Eng : Engines) {
    vm::Machine VM(Out.Program, M.Syms, M.DataHeap);
    VM.setEngine(Eng);
    VM.setGcBudget(GcBudgetBytes);
    for (int Call = 0; Call < 3; ++Call) {
      auto R = VM.call(W.Fn, {Value::fixnum(W.Budget.N)});
      ASSERT_TRUE(R.Ok && R.Result) << W.File << ": " << R.Error;
      EXPECT_EQ(sexpr::toString(*R.Result), Want) << W.File;
    }
    const char *Name = vm::engineName(Eng);
    EXPECT_EQ(VM.stats().GcRuns, W.Budget.GcRuns) << W.File << " " << Name;
    EXPECT_EQ(VM.stats().GcWordsReclaimed, W.Budget.GcWordsReclaimed)
        << W.File << " " << Name;
    EXPECT_EQ(VM.stats().HeapWordsUsed, W.Budget.HeapWordsUsed)
        << W.File << " " << Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, GcWorkloads,
                         ::testing::Range(0, 3),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           std::string N = Workloads[Info.param].Fn;
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

} // namespace
