//===- bench/bench_compile_throughput.cpp - Compiler-side throughput ------===//
//
// Measures the compiler itself (optimize + CSE + codegen units + link)
// over one generated 100-function module, reporting forms per second:
//
//  * -O0 versus -O1+CSE at jobs=1 — the cost of the §5 optimizer;
//  * the per-function pipeline at jobs 1/2/4/hw — parallel scaling
//    (degenerate on a single-core host, where every parallel row is
//    serial throughput plus scheduling overhead).
//
// The frontend runs once; every timed repetition deep-clones the
// converted module outside the timer, so the numbers isolate the
// middle- and back-end work the PR's throughput changes target.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "fuzz/Generator.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cinttypes>
#include <thread>
#include <vector>

using namespace s1lisp;
using namespace s1lisp::bench;

namespace {

constexpr uint32_t Seed = 7000;
constexpr unsigned Helpers = 99; ///< +1 entry defun = 100 functions
constexpr unsigned Reps = 12;
/// Minimum acceptable jobs=4 speedup over serial on a >= 4-thread host.
constexpr double ScalingFloor = 2.0;

std::string generateSource() {
  fuzz::GenOptions GO;
  GO.Helpers = Helpers;
  // Larger bodies than the fuzz default, so the optimizer has non-trivial
  // trees to rewrite.
  GO.MaxDepth = 6;
  GO.SizeBudget = 400;
  fuzz::Generator G(Seed, GO);
  return G.generate().Source;
}

/// Converts once; the timed loop clones from this.
ir::Module &baseModule() {
  static ir::Module BaseM;
  static bool Done = false;
  if (!Done) {
    DiagEngine Diags;
    if (!frontend::convertSource(BaseM, generateSource(), Diags)) {
      fprintf(stderr, "bench module failed to convert: %s\n",
              Diags.str().c_str());
      abort();
    }
    Done = true;
  }
  return BaseM;
}

driver::CompilerOptions optConfig(unsigned Jobs) {
  driver::CompilerOptions O;
  O.Cse = true;
  O.Jobs = Jobs;
  return O;
}

/// Best-of-Reps wall time for one full-module compile. The minimum is the
/// least noisy estimator here: every repetition does identical work, so
/// anything above the minimum is scheduler/cache interference.
double timeRowNs(const driver::CompilerOptions &Opts) {
  const ir::Module &BaseM = baseModule();
  double Best = 0;
  for (unsigned R = 0; R <= Reps; ++R) {
    ir::Module M;
    BaseM.clone(M);
    auto Start = std::chrono::steady_clock::now();
    driver::CompileOutcome Out = driver::compileModule(M, Opts);
    auto End = std::chrono::steady_clock::now();
    if (!Out.Ok) {
      fprintf(stderr, "bench compile failed: %s\n", Out.Error.c_str());
      abort();
    }
    double Ns = std::chrono::duration<double, std::nano>(End - Start).count();
    if (R > 0 && (Best == 0 || Ns < Best)) // first rep is warm-up
      Best = Ns;
  }
  return Best;
}

int printTable() {
  unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t Forms = baseModule().functions().size();
  tableHeader("Compiler throughput (100-function module, frontend excluded)");
  printf("hardware threads: %u; %zu forms per compile, best of %u reps\n", Hw,
         Forms, Reps);
  printf("%-18s %6s %12s %14s\n", "row", "jobs", "forms/s", "wall ms");

  JsonReport Report("compile_throughput");
  struct Row {
    std::string Name;
    driver::CompilerOptions Opts;
  };
  std::vector<Row> Rows;
  {
    driver::CompilerOptions O0;
    O0.Optimize = false;
    Rows.push_back({"o0_serial", O0});
  }
  Rows.push_back({"o1_jobs1", optConfig(1)});
  unsigned PrevJ = 1;
  for (unsigned J : {2u, 4u, Hw}) {
    if (J <= PrevJ)
      continue; // dedup when hardware_concurrency lands on a swept value
    Rows.push_back({"o1_jobs" + std::to_string(J), optConfig(J)});
    PrevJ = J;
  }
  int Status = 0;
  double Jobs1Ns = 0, Jobs4Ns = 0;
  for (const Row &R : Rows) {
    double Ns = timeRowNs(R.Opts);
    double PerSec = static_cast<double>(Forms) / (Ns / 1e9);
    printf("%-18s %6u %12.0f %14.1f\n", R.Name.c_str(), R.Opts.Jobs, PerSec,
           Ns / 1e6);
    Report.add(R.Name + ".jobs", R.Opts.Jobs);
    Report.add(R.Name + ".forms_per_sec", static_cast<uint64_t>(PerSec));
    Report.add(R.Name + ".wall_ns", static_cast<uint64_t>(Ns));
    if (R.Name == "o1_jobs1")
      Jobs1Ns = Ns;
    if (R.Name == "o1_jobs4")
      Jobs4Ns = Ns;
  }
  if (Jobs4Ns > 0) {
    double Scaling = Jobs1Ns / Jobs4Ns;
    printf("parallel scaling: %.2fx over serial at 4 jobs\n", Scaling);
    Report.add("parallel_scaling_x100", static_cast<uint64_t>(Scaling * 100));
    // Scaling floor: negative scaling is a bug, not a data point. Only a
    // host with >= 4 hardware threads can meaningfully run 4 jobs, so
    // single-core CI hosts skip (loudly) rather than fail.
    if (Hw >= 4) {
      Report.add("scaling_floor_checked", 1);
      if (Scaling < ScalingFloor) {
        fprintf(stderr,
                "FATAL: parallel scaling %.2fx at 4 jobs is below the %.1fx "
                "floor on a %u-thread host\n",
                Scaling, ScalingFloor, Hw);
        Status = 1;
      }
    } else {
      Report.add("scaling_floor_checked", 0);
      printf("scaling floor skipped: %u hardware thread(s) < 4\n", Hw);
    }
  }

  Report.write();
  return Status;
}

void BM_CompileSerial(benchmark::State &State) {
  const ir::Module &BaseM = baseModule();
  driver::CompilerOptions Opts = optConfig(1);
  for (auto _ : State) {
    ir::Module M;
    BaseM.clone(M);
    benchmark::DoNotOptimize(driver::compileModule(M, Opts).Ok);
  }
}
BENCHMARK(BM_CompileSerial);

void BM_CompileParallel(benchmark::State &State) {
  const ir::Module &BaseM = baseModule();
  driver::CompilerOptions Opts =
      optConfig(std::max(1u, std::thread::hardware_concurrency()));
  for (auto _ : State) {
    ir::Module M;
    BaseM.clone(M);
    benchmark::DoNotOptimize(driver::compileModule(M, Opts).Ok);
  }
}
BENCHMARK(BM_CompileParallel);

} // namespace

int main(int argc, char **argv) {
  int Status = printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return Status;
}
