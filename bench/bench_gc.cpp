//===- bench/bench_gc.cpp - Collector cost curves -------------------------===//
//
// Drives the examples/gc/ workloads through the interpreter's generational
// heap at millions of conses and reports the three numbers that describe a
// collector: allocation rate (how fast the mutator conses with the
// collector disabled), pause distribution (the histogram and maximum the
// heap records per collection), and the mutator-throughput-vs-heap-budget
// curve (how much throughput each halving of the budget costs). Then it
// runs the same programs compiled, on the threaded and native engines,
// with vm::Machine's word-heap collector off and under a heap budget, and
// fails if native map-chain under the budget takes over 1.5x its GC-off
// time. Every run checks its workload's closed-form checksum, so a
// collector bug shows up as a wrong answer here before it shows up as a
// slow one.
//
// Table rows land in BENCH_gc.json for the CI artifact diff; the
// google-benchmark loops at the end give wall-clock numbers for the
// interpreter shapes at reduced sizes.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "vm/Jit.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cinttypes>
#include <fstream>
#include <sstream>

using namespace s1lisp;
using namespace s1lisp::bench;

namespace {

std::string slurp(const char *Name) {
  std::ifstream In(std::string(S1LISP_EXAMPLES_DIR) + "/gc/" + Name);
  std::stringstream Buf;
  Buf << In.rdbuf();
  if (Buf.str().empty()) {
    fprintf(stderr, "cannot read examples/gc/%s\n", Name);
    abort();
  }
  return Buf.str();
}

int64_t sumSquares(int64_t N) { return N * (N - 1) * (2 * N - 1) / 6; }

struct Workload {
  const char *Name;
  const char *File;
  const char *Fn;
  int64_t N;    ///< size argument for the table runs
  int Reps;     ///< calls per measured run
  int64_t (*Golden)(int64_t N);
};

// Sizes are chosen so the suite conses millions of cells per table run:
// append-reverse alone allocates ~n^3 cells (every round copies the whole
// accumulator twice), map-chain ~8n per call, assoc 2n per call plus an
// O(n^2) probe phase over promoted cells.
const Workload Workloads[] = {
    {"assoc", "assoc.lisp", "alist-workload", 6000, 2, sumSquares},
    {"append-reverse", "append-reverse.lisp", "append-reverse-workload", 150,
     1, [](int64_t N) { return N * (N * (N + 1) / 2); }},
    {"map-chain", "map-chain.lisp", "map-chain-workload", 30000, 4,
     [](int64_t N) { return 3 * (sumSquares(N) + N); }},
};

struct Measured {
  double Sec = 0;
  uint64_t Conses = 0;
  sexpr::GcStats Gc;
};

/// Runs one workload Reps times on a fresh interpreter configured with the
/// given heap budget (0 = collector off), verifying the checksum each call.
Measured runWorkload(const Workload &W, size_t BudgetBytes) {
  ir::Module M;
  DiagEngine Diags;
  std::string Src = slurp(W.File);
  if (!frontend::convertSource(M, Src, Diags)) {
    fprintf(stderr, "%s did not convert: %s\n", W.File, Diags.str().c_str());
    abort();
  }
  interp::Interpreter I(M);
  I.setFuel(4'000'000'000ull);
  if (BudgetBytes)
    I.setHeapBudget(BudgetBytes);
  int64_t Want = W.Golden(W.N);
  std::vector<interp::RtValue> Args = {
      interp::RtValue::data(sexpr::Value::fixnum(W.N))};

  auto Start = std::chrono::steady_clock::now();
  for (int Rep = 0; Rep < W.Reps; ++Rep) {
    auto R = I.call(W.Fn, Args);
    if (!R.Ok) {
      fprintf(stderr, "%s failed: %s\n", W.Name, R.Error.c_str());
      abort();
    }
    if (R.Value.str() != std::to_string(Want)) {
      fprintf(stderr, "%s checksum mismatch: want %lld got %s\n", W.Name,
              static_cast<long long>(Want), R.Value.str().c_str());
      abort();
    }
  }
  auto End = std::chrono::steady_clock::now();

  Measured Out;
  Out.Sec = std::chrono::duration<double>(End - Start).count();
  Out.Conses = I.heap().consCount();
  Out.Gc = I.gcStats();
  return Out;
}

uint64_t consPerSec(const Measured &M) {
  return M.Sec > 0 ? static_cast<uint64_t>(M.Conses / M.Sec) : 0;
}

//===----------------------------------------------------------------------===//
// The compiled-code collector: vm::Machine's word-heap mark-sweep.
//===----------------------------------------------------------------------===//

/// The end-to-end benchmark's `run` sizes and budget: each sample calls
/// the workload Reps times at N on a fresh Machine.
struct VmWorkload {
  const Workload &W;
  int64_t N;
  int Reps;
};
const VmWorkload VmWorkloads[] = {
    {Workloads[0], 600, 16}, {Workloads[1], 40, 6}, {Workloads[2], 500, 40}};
constexpr uint64_t VmBudgetBytes = 256u << 10;

struct VmMeasured {
  double BestNs = 1e300;
  vm::MachineStats Stats;
  uint64_t PauseNs = 0;
};

/// Best of five samples. Each sample takes a fresh Machine (a collector-off
/// heap only grows), pays the native tier's compile in an untimed n=0
/// call, then times Reps calls, checking every checksum.
VmMeasured timeVm(const VmWorkload &V, vm::Engine Eng, uint64_t BudgetBytes) {
  Compiled C = compileOrDie(slurp(V.W.File));
  auto Decoded = vm::predecode(C.Program);
  std::string Want = std::to_string(V.W.Golden(V.N));
  VmMeasured Out;
  for (int Sample = 0; Sample < 5; ++Sample) {
    vm::Machine VM(C.Program, C.M->Syms, C.M->DataHeap);
    VM.setDecodedProgram(Decoded);
    VM.setEngine(Eng);
    VM.setFuel(4'000'000'000ull);
    VM.setGcBudget(BudgetBytes);
    VM.call(V.W.Fn, {fx(0)});
    VM.resetStats();
    auto Start = std::chrono::steady_clock::now();
    for (int Rep = 0; Rep < V.Reps; ++Rep) {
      auto R = VM.call(V.W.Fn, {fx(V.N)});
      if (!R.Ok || !R.Result || sexpr::toString(*R.Result) != Want) {
        fprintf(stderr, "%s (%s) failed: %s\n", V.W.Name, vm::engineName(Eng),
                R.Ok ? "checksum mismatch" : R.Error.c_str());
        abort();
      }
    }
    double Ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    if (Ns < Out.BestNs) {
      Out.BestNs = Ns;
      Out.Stats = VM.stats();
      Out.PauseNs = VM.gcPauseNs();
    }
  }
  return Out;
}

/// Returns the native GC-on / GC-off time ratio on map-chain (0 when the
/// native tier is unavailable).
double printVmTable(JsonReport &Report) {
  tableHeader("Compiled-code collector: vm::Machine word heap, GC off vs a "
              "256 KB budget");
  printf("%-15s %-9s %11s %11s %8s %6s %12s %12s\n", "workload", "engine",
         "off ms", "budget ms", "on/off", "runs", "reclaimed", "pause ms");
  std::vector<vm::Engine> Engines = {vm::Engine::Threaded};
  if (vm::jitAvailable())
    Engines.push_back(vm::Engine::Native);
  double MapChainNativeRatio = 0;
  for (const VmWorkload &V : VmWorkloads) {
    for (vm::Engine Eng : Engines) {
      VmMeasured Off = timeVm(V, Eng, 0);
      VmMeasured On = timeVm(V, Eng, VmBudgetBytes);
      double Ratio = On.BestNs / Off.BestNs;
      printf("%-15s %-9s %11.2f %11.2f %7.2fx %6" PRIu64 " %12" PRIu64
             " %12.2f\n",
             V.W.Name, vm::engineName(Eng), Off.BestNs / 1e6, On.BestNs / 1e6,
             Ratio, On.Stats.GcRuns, On.Stats.GcWordsReclaimed,
             On.PauseNs / 1e6);
      std::string P =
          std::string("vm.") + V.W.Name + "." + vm::engineName(Eng);
      Report.add(P + ".gc_off_ns", static_cast<uint64_t>(Off.BestNs));
      Report.add(P + ".gc_on_ns", static_cast<uint64_t>(On.BestNs));
      Report.add(P + ".gc_on_over_off_x100",
                 static_cast<uint64_t>(Ratio * 100));
      Report.add(P + ".gc_runs", On.Stats.GcRuns);
      Report.add(P + ".gc_words_reclaimed", On.Stats.GcWordsReclaimed);
      Report.add(P + ".heap_words_used", On.Stats.HeapWordsUsed);
      Report.add(P + ".gc_pause_ns", On.PauseNs);
      if (Eng == vm::Engine::Native && std::string(V.W.Name) == "map-chain")
        MapChainNativeRatio = Ratio;
    }
  }
  return MapChainNativeRatio;
}

int printTable() {
  JsonReport Report("gc");

  // --- Allocation rate and GC overhead per workload ----------------------
  tableHeader("GC workloads: allocation rate and collection overhead");
  printf("%-15s %12s %13s %13s %8s %7s %12s %10s\n", "workload", "conses",
         "off cons/s", "gc cons/s", "minors", "majors", "pause-ns", "max-ns");
  sexpr::GcStats Pauses; // pause histogram aggregated across every GC run
  auto Fold = [&Pauses](const sexpr::GcStats &G) {
    Pauses.PauseNsTotal += G.PauseNsTotal;
    Pauses.PauseNsMax = std::max(Pauses.PauseNsMax, G.PauseNsMax);
    Pauses.Collections += G.Collections;
    Pauses.MajorCollections += G.MajorCollections;
    for (size_t I = 0; I < Pauses.PauseBuckets.size(); ++I)
      Pauses.PauseBuckets[I] += G.PauseBuckets[I];
  };
  constexpr size_t TableBudget = 8u << 20; // 8 MiB: comfortable for all three
  for (const Workload &W : Workloads) {
    Measured Off = runWorkload(W, 0);
    Measured On = runWorkload(W, TableBudget);
    Fold(On.Gc);
    printf("%-15s %12" PRIu64 " %13" PRIu64 " %13" PRIu64 " %8" PRIu64
           " %7" PRIu64 " %12" PRIu64 " %10" PRIu64 "\n",
           W.Name, On.Conses, consPerSec(Off), consPerSec(On),
           On.Gc.Collections, On.Gc.MajorCollections, On.Gc.PauseNsTotal,
           On.Gc.PauseNsMax);
    std::string P(W.Name);
    Report.add(P + ".conses", On.Conses);
    Report.add(P + ".alloc_rate_gc_off", consPerSec(Off));
    Report.add(P + ".alloc_rate_gc_on", consPerSec(On));
    Report.add(P + ".minor_collections", On.Gc.Collections);
    Report.add(P + ".major_collections", On.Gc.MajorCollections);
    Report.add(P + ".cells_promoted", On.Gc.CellsPromoted);
    Report.add(P + ".cells_swept", On.Gc.CellsSwept);
    Report.add(P + ".pause_ns_total", On.Gc.PauseNsTotal);
    Report.add(P + ".pause_ns_max", On.Gc.PauseNsMax);
  }

  // --- Pause distribution -------------------------------------------------
  tableHeader("Pause distribution across all collected runs");
  const char *BucketNames[] = {"lt_10us", "lt_100us", "lt_1ms", "ge_1ms"};
  uint64_t Total = Pauses.Collections + Pauses.MajorCollections;
  printf("%" PRIu64 " pauses (%" PRIu64 " minor, %" PRIu64 " major), "
         "max %" PRIu64 " ns, mean %" PRIu64 " ns\n",
         Total, Pauses.Collections, Pauses.MajorCollections, Pauses.PauseNsMax,
         Total ? Pauses.PauseNsTotal / Total : 0);
  for (size_t I = 0; I < Pauses.PauseBuckets.size(); ++I) {
    printf("  %-8s %10" PRIu64 "\n", BucketNames[I], Pauses.PauseBuckets[I]);
    Report.add(std::string("pause.bucket_") + BucketNames[I],
               Pauses.PauseBuckets[I]);
  }
  Report.add("pause.count", Total);
  Report.add("pause.ns_max", Pauses.PauseNsMax);
  Report.add("pause.ns_mean", Total ? Pauses.PauseNsTotal / Total : 0);

  // --- Mutator throughput vs heap budget ----------------------------------
  // The churn workload is the budget-sensitive one: live data grows to n^2
  // cells while garbage is ~n^3, so small budgets collect constantly.
  tableHeader("Mutator throughput vs heap budget (append-reverse churn)");
  printf("%10s %13s %8s %7s %12s\n", "budget", "cons/s", "minors", "majors",
         "pause-ns");
  const Workload &Churn = Workloads[1];
  for (size_t BudgetMb : {1, 2, 4, 8, 16, 32}) {
    Measured M = runWorkload(Churn, BudgetMb << 20);
    Fold(M.Gc);
    printf("%8zuMB %13" PRIu64 " %8" PRIu64 " %7" PRIu64 " %12" PRIu64 "\n",
           BudgetMb, consPerSec(M), M.Gc.Collections, M.Gc.MajorCollections,
           M.Gc.PauseNsTotal);
    std::string P = "curve.budget_" + std::to_string(BudgetMb) + "mb";
    Report.add(P + ".cons_per_sec", consPerSec(M));
    Report.add(P + ".minor_collections", M.Gc.Collections);
    Report.add(P + ".major_collections", M.Gc.MajorCollections);
    Report.add(P + ".pause_ns_total", M.Gc.PauseNsTotal);
  }

  double MapChainNativeRatio = printVmTable(Report);
  Report.write();
  // Under a budget the compiled code pays for free-list reuse, block
  // bookkeeping and collections; keep that within half the GC-off time.
  if (MapChainNativeRatio > 1.5) {
    fprintf(stderr,
            "FATAL: native map-chain under a 256 KB budget takes %.2fx its "
            "GC-off time (expected <= 1.5x)\n",
            MapChainNativeRatio);
    return 1;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Wall-clock loops at reduced sizes.
//===----------------------------------------------------------------------===//

void benchWorkload(benchmark::State &State, const Workload &W, int64_t N,
                   size_t BudgetBytes) {
  ir::Module M;
  DiagEngine Diags;
  std::string Src = slurp(W.File);
  if (!frontend::convertSource(M, Src, Diags))
    abort();
  interp::Interpreter I(M);
  I.setFuel(4'000'000'000ull);
  if (BudgetBytes)
    I.setHeapBudget(BudgetBytes);
  std::vector<interp::RtValue> Args = {
      interp::RtValue::data(sexpr::Value::fixnum(N))};
  for (auto _ : State) {
    auto R = I.call(W.Fn, Args);
    if (!R.Ok)
      abort();
    benchmark::DoNotOptimize(R.Value);
  }
}

void BM_MapChainGcOff(benchmark::State &State) {
  benchWorkload(State, Workloads[2], 4000, 0);
}
BENCHMARK(BM_MapChainGcOff);

void BM_MapChainBudget4M(benchmark::State &State) {
  benchWorkload(State, Workloads[2], 4000, 4u << 20);
}
BENCHMARK(BM_MapChainBudget4M);

void BM_AppendReverseGcOff(benchmark::State &State) {
  benchWorkload(State, Workloads[1], 48, 0);
}
BENCHMARK(BM_AppendReverseGcOff);

void BM_AppendReverseBudget4M(benchmark::State &State) {
  benchWorkload(State, Workloads[1], 48, 4u << 20);
}
BENCHMARK(BM_AppendReverseBudget4M);

} // namespace

int main(int argc, char **argv) {
  int Status = printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return Status;
}
