//===- s1bench/RunWorkload.cpp - The `run` workload -----------------------===//
//
// Every program is compiled once during set-up; each operation is then one
// vm::Machine::call in a fixed rotation of (program, engine, GC mode):
//
//  * the cons-heavy examples/gc programs, scaled up by a repetition
//    wrapper, on the threaded and native engines, each with the collector
//    off and under a heap budget;
//  * allocation-free kernels (fib, tak, a dotimes loop) on both engines.
//
// All the time goes to the VM; the compiler does nothing. Every call gets a
// fresh Machine (prepared, and its native code compiled, before the pass
// starts), so its counters are exactly reproducible: MachineStats must be
// identical on every pass and between the threaded and native engines, and
// the kernels must not allocate. Results are checked against closed forms.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/Compiler.h"
#include "stats/Stats.h"
#include "vm/Jit.h"
#include "vm/Machine.h"
#include "vm/Predecode.h"

#include <algorithm>
#include <memory>

using namespace s1lisp;
using sexpr::Value;

namespace s1bench {
namespace {

/// Live-heap budget of the GC-on configurations.
constexpr uint64_t GcBudgetBytes = 256u << 10;
/// Results are folded modulo this prime so sums stay 32-bit fixnums.
constexpr int64_t Fold = 1000003;

struct RunProgram {
  std::string Name;
  std::string Source;
  std::string Entry;
  std::vector<int64_t> Args;
  int64_t Expected = 0;
  bool Conses = false;
};

/// (ENTRY reps n) folds REPS calls of (WORKLOAD n) modulo Fold.
std::string repeatWrapper(const std::string &Workload) {
  return "\n(defun bench-reps (reps n)\n"
         "  (do ((i 0 (1+ i))\n"
         "       (acc 0 (mod (+ acc (" +
         Workload + " n)) " + std::to_string(Fold) +
         ")))\n"
         "      ((= i reps) acc)))\n";
}

int64_t foldReps(int64_t Reps, int64_t PerCall) {
  int64_t Acc = 0;
  for (int64_t I = 0; I < Reps; ++I)
    Acc = (Acc + PerCall) % Fold;
  return Acc;
}

int64_t fib(int64_t N) {
  int64_t A = 0, B = 1;
  for (int64_t I = 0; I < N; ++I) {
    int64_t T = A + B;
    A = B;
    B = T;
  }
  return A;
}

int64_t tak(int64_t X, int64_t Y, int64_t Z) {
  return Y < X ? tak(tak(X - 1, Y, Z), tak(Y - 1, Z, X), tak(Z - 1, X, Y)) : Z;
}

/// The run set. The seed jitters problem sizes by under 1%, so results
/// differ per seed while the work per call stays comparable.
std::vector<RunProgram> buildPrograms(const Options &O, Report &R) {
  std::vector<RunProgram> Ps;
  auto Jitter = [&](int64_t Base, int64_t Spread, uint64_t Salt) {
    return Base + static_cast<int64_t>(mix(O.Seed, Salt) % (2 * Spread + 1)) -
           Spread;
  };
  struct GcProg {
    const char *File, *Workload;
    int64_t Reps, N, Spread;
    int64_t (*Closed)(int64_t);
  };
  static const GcProg GcProgs[] = {
      {"map-chain", "map-chain-workload", 40, 500, 2,
       [](int64_t N) { return 3 * (N * (N - 1) * (2 * N - 1) / 6 + N); }},
      {"append-reverse", "append-reverse-workload", 6, 40, 0,
       [](int64_t N) { return N * (N * (N + 1) / 2); }},
      {"assoc", "alist-workload", 16, 600, 2,
       [](int64_t N) { return N * (N - 1) * (2 * N - 1) / 6; }},
  };
  for (const GcProg &G : GcProgs) {
    RunProgram P;
    P.Name = G.File;
    if (!readFile(O.Root + "/examples/gc/" + G.File + ".lisp", P.Source)) {
      R.attempt();
      R.fail(std::string("cannot read examples/gc/") + G.File + ".lisp");
      continue;
    }
    P.Source += repeatWrapper(G.Workload);
    int64_t N = Jitter(G.N, G.Spread, Ps.size());
    P.Entry = "bench-reps";
    P.Args = {G.Reps, N};
    P.Expected = foldReps(G.Reps, G.Closed(N));
    P.Conses = true;
    Ps.push_back(std::move(P));
  }

  RunProgram Fib;
  Fib.Name = "fib";
  Fib.Source = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
  Fib.Entry = "fib";
  Fib.Args = {24};
  Fib.Expected = fib(24);
  Ps.push_back(std::move(Fib));

  RunProgram Tak;
  Tak.Name = "tak";
  Tak.Source = "(defun tak (x y z)\n"
               "  (if (< y x)\n"
               "      (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))\n"
               "      z))";
  Tak.Entry = "tak";
  Tak.Args = {18, 12, 6};
  Tak.Expected = tak(18, 12, 6);
  Ps.push_back(std::move(Tak));

  RunProgram Loop;
  Loop.Name = "loop";
  Loop.Source = "(defun loop-sum (n) (let ((s 0)) (dotimes (i n) (setq s (+ s i))) s))" +
                repeatWrapper("loop-sum");
  int64_t N = Jitter(60000, 200, 99);
  Loop.Entry = "bench-reps";
  Loop.Args = {8, N};
  Loop.Expected = foldReps(8, N * (N - 1) / 2);
  Ps.push_back(std::move(Loop));

  // Every program gets a no-op entry: calling it on a fresh Machine
  // compiles the native code before the timed call.
  for (RunProgram &P : Ps)
    P.Source += "\n(defun bench-nop () 0)\n";
  return Ps;
}

struct Built {
  std::unique_ptr<ir::Module> M;
  s1::Program Program;
  std::shared_ptr<const vm::DecodedProgram> Decoded;
};

struct Tuple {
  size_t Prog;
  vm::Engine Eng;
  bool Gc;
  std::string name(const std::vector<RunProgram> &Ps) const {
    return Ps[Prog].Name + "/" + vm::engineName(Eng) + (Gc ? "/gc" : "/nogc");
  }
};

bool sameStats(const vm::MachineStats &A, const vm::MachineStats &B) {
  return A.Instructions == B.Instructions && A.Movs == B.Movs &&
         A.Calls == B.Calls && A.TailCalls == B.TailCalls &&
         A.Syscalls == B.Syscalls && A.HeapObjects == B.HeapObjects &&
         A.HeapWordsUsed == B.HeapWordsUsed &&
         A.StackHighWater == B.StackHighWater &&
         A.SpecialSearches == B.SpecialSearches &&
         A.SpecialSearchSteps == B.SpecialSearchSteps &&
         A.GcRuns == B.GcRuns && A.GcWordsReclaimed == B.GcWordsReclaimed &&
         A.PerOpcode == B.PerOpcode;
}

/// One call's outcome within a pass.
struct CallResult {
  double Ms = 0;
  vm::MachineStats Stats;
  uint64_t PauseNs = 0;
  uint64_t PauseMaxNs = 0;
};

} // namespace

void runRunWorkload(const Options &O, Report &R) {
  std::vector<RunProgram> Ps = buildPrograms(O, R);
  if (R.failed())
    return;

  // Set-up: compile the run set, predecode it, and compile its native code
  // under both GC settings. Repeated; median reported.
  std::vector<Built> Bs;
  std::vector<double> SetupS;
  std::pair<Counters, Counters> CompileCounters; // before, after
  uint64_t JitBlocks = 0;
  setTracing(O.Trace);
  for (int Rep = 0; moreSetups(SetupS); ++Rep) {
    bool Count = O.Trace && Rep == 0;
    if (Count)
      stats::setEnabled(true);
    Counters C0 = snapshotCounters();
    auto T0 = Clock::now();
    Bs.clear();
    for (const RunProgram &P : Ps) {
      Built B;
      B.M = std::make_unique<ir::Module>();
      driver::CompileOutcome Out = driver::compileSource(*B.M, P.Source);
      if (!Out.Ok) {
        R.attempt();
        R.fail(P.Name + ": " + Out.Error);
        stats::setEnabled(false);
        return;
      }
      B.Program = std::move(Out.Program);
      Bs.push_back(std::move(B));
    }
    Counters C1 = snapshotCounters();
    for (Built &B : Bs) {
      {
        Span S("vm::predecode");
        B.Decoded = vm::predecode(B.Program);
      }
      vm::Machine Layout(B.Program, B.M->Syms, B.M->DataHeap);
      for (bool Gc : {false, true}) {
        Span S("vm::compileJit");
        vm::compileJit(B.Decoded, {true, Gc}, Layout);
      }
    }
    SetupS.push_back(secondsSince(T0));
    if (Count) {
      CompileCounters = {C0, C1};
      JitBlocks = counterDelta(C1, snapshotCounters(), "jit.blocks");
      stats::setEnabled(false);
    }
  }
  setTracing(false);

  // The rotation: every (program, engine, GC mode) once per pass, in a
  // seeded order. Kernels never allocate, so they run with GC off only.
  std::vector<Tuple> Rot;
  for (size_t P = 0; P < Ps.size(); ++P)
    for (vm::Engine E : {vm::Engine::Threaded, vm::Engine::Native})
      for (bool Gc : {false, true})
        if (Ps[P].Conses || !Gc)
          Rot.push_back({P, E, Gc});
  for (size_t I = Rot.size(); I > 1; --I)
    std::swap(Rot[I - 1], Rot[mix(O.Seed, 0x5eed + I) % I]);

  std::vector<std::vector<Value>> Args(Ps.size());
  for (size_t P = 0; P < Ps.size(); ++P)
    for (int64_t A : Ps[P].Args)
      Args[P].push_back(Value::fixnum(A));

  std::vector<std::optional<vm::MachineStats>> FirstStats(Rot.size());
  auto RunPass = [&](bool Traced, uint64_t PassNo, double &PassS) {
    // Fresh machines, prepared outside the timed region.
    std::vector<std::unique_ptr<vm::Machine>> VMs;
    for (const Tuple &T : Rot) {
      const Built &B = Bs[T.Prog];
      auto VM = std::make_unique<vm::Machine>(B.Program, B.M->Syms,
                                              B.M->DataHeap);
      VM->setDecodedProgram(B.Decoded);
      VM->setEngine(T.Eng);
      VM->setFuel(4'000'000'000ull);
      if (T.Gc)
        VM->setGcBudget(GcBudgetBytes);
      if (!VM->call("bench-nop", {}).Ok)
        R.fail(T.name(Ps) + ": warm-up call failed");
      VM->resetStats();
      VMs.push_back(std::move(VM));
    }
    std::vector<CallResult> Out(Rot.size());
    std::vector<vm::Machine::RunResult> Results(Rot.size());
    auto PassStart = Clock::now();
    for (size_t I = 0; I < Rot.size(); ++I) {
      OpScope Op(PassNo * 100 + I);
      auto T0 = Clock::now();
      {
        Span S("Machine::call");
        Results[I] = VMs[I]->call(Ps[Rot[I].Prog].Entry, Args[Rot[I].Prog]);
      }
      Out[I].Ms = secondsSince(T0) * 1e3;
    }
    PassS = secondsSince(PassStart);

    for (size_t I = 0; I < Rot.size(); ++I) {
      const Tuple &T = Rot[I];
      const RunProgram &P = Ps[T.Prog];
      vm::Machine &VM = *VMs[I];
      Out[I].Stats = VM.stats();
      Out[I].PauseNs = VM.gcPauseNs();
      Out[I].PauseMaxNs = VM.gcPauseNsMax();
      if (Traced)
        VM.publishStats();
      R.attempt();
      const vm::Machine::RunResult &Res = Results[I];
      if (!Res.Ok || !Res.Result || !Res.Result->isFixnum() ||
          Res.Result->fixnum() != P.Expected) {
        R.fail(T.name(Ps) + ": expected " + std::to_string(P.Expected) +
               ", got " +
               (Res.Ok ? (Res.Result && Res.Result->isFixnum()
                              ? std::to_string(Res.Result->fixnum())
                              : std::string("a non-fixnum"))
                       : Res.Error));
        continue;
      }
      // A kernel's only heap objects are the symbol cells the Machine
      // interns on first use.
      if (!P.Conses && (Out[I].Stats.HeapObjects > 4 || Out[I].Stats.GcRuns))
        R.fail(T.name(Ps) + ": an allocation-free kernel allocated " +
               std::to_string(Out[I].Stats.HeapObjects) + " objects");
      if (!FirstStats[I])
        FirstStats[I] = Out[I].Stats;
      else if (!sameStats(*FirstStats[I], Out[I].Stats))
        R.fail(T.name(Ps) + ": MachineStats differ between passes");
    }
    return Out;
  };

  // Threaded and native must retire identical counters for the same
  // program and GC mode.
  auto CheckEngines = [&](const std::vector<CallResult> &Out) {
    for (size_t I = 0; I < Rot.size(); ++I)
      for (size_t J = 0; J < Rot.size(); ++J)
        if (Rot[I].Prog == Rot[J].Prog && Rot[I].Gc == Rot[J].Gc &&
            Rot[I].Eng == vm::Engine::Threaded &&
            Rot[J].Eng == vm::Engine::Native) {
          R.attempt();
          if (!sameStats(Out[I].Stats, Out[J].Stats))
            R.fail(Rot[I].name(Ps) + ": threaded and native MachineStats "
                   "differ");
        }
  };

  const auto Deadline =
      Clock::now() + std::chrono::duration<double>(O.Seconds);

  if (!O.Trace) {
    std::vector<double> P50, P90, PassS;
    std::vector<std::vector<double>> TupleMs(Rot.size());
    uint64_t Instructions = 0;
    Calibration Cal;
    for (uint64_t N = 0; N < 3 || Clock::now() < Deadline; ++N) {
      Cal.sample();
      double S = 0;
      std::vector<CallResult> Out = RunPass(false, N, S);
      if (N == 0)
        CheckEngines(Out);
      std::vector<double> Ms;
      Instructions = 0;
      for (size_t I = 0; I < Out.size(); ++I) {
        Ms.push_back(Out[I].Ms);
        TupleMs[I].push_back(Out[I].Ms);
        Instructions += Out[I].Stats.Instructions;
      }
      P50.push_back(percentile(Ms, 0.5));
      P90.push_back(percentile(Ms, 0.9));
      PassS.push_back(S);
    }
    size_t CodeWords = 0;
    for (const Built &B : Bs)
      CodeWords += codeWords(B.Program);
    R.note("passes: " + std::to_string(PassS.size()) + " of " +
           std::to_string(Rot.size()) + " calls; quiet call time (ms):");
    for (size_t I = 0; I < Rot.size(); ++I)
      R.note("  " + Rot[I].name(Ps) + " " + std::to_string(quiet(TupleMs[I])));
    const double F = Cal.factor();
    R.scaled("setup_s", median(SetupS), "s", F);
    R.scaled("latency_ms_p50", quiet(P50), "ms", F);
    R.scaled("latency_ms_p90", quiet(P90), "ms", F);
    R.scaled("ops_per_s", static_cast<double>(Rot.size()) / quiet(PassS),
             "1/s", 1 / F);
    R.metric("peak_rss_mb", selfPeakRssMb(), "MB");
    R.metric("code_words", static_cast<double>(CodeWords), "words");
    R.metric("s1_instructions", static_cast<double>(Instructions), "count");
    R.extra("run_ms_p50", quiet(P50) * F, "ms");
    R.extra("run_ms_p90", quiet(P90) * F, "ms");
    R.extra("run_pass_s", quiet(PassS) * F, "s");
    R.extra("median_pass_s", median(PassS), "s");
    R.extra("calibration_ms", Cal.quietMs(), "ms");
    return;
  }

  // Traced run: untraced and traced passes alternate. Per-call latencies of
  // the untraced passes give the GC allocation overhead; the traced ones
  // give the per-layer breakdown.
  std::vector<double> UntracedS, TracedS;
  std::vector<std::vector<double>> UntracedMs(Rot.size());
  std::vector<CallResult> LastTraced;
  double EngineMs[2] = {0, 0}, EngineInsns[2] = {0, 0};
  uint64_t PauseMaxNs = 0;
  std::vector<double> PauseMs;
  uint64_t ConsHits = 0, ConsMisses = 0;
  for (uint64_t N = 0; N < 4 || Clock::now() < Deadline; ++N) {
    double S = 0;
    bool Trace = N % 2 == 1;
    if (!Trace) {
      std::vector<CallResult> Out = RunPass(false, N, S);
      if (N == 0)
        CheckEngines(Out);
      for (size_t I = 0; I < Rot.size(); ++I)
        UntracedMs[I].push_back(Out[I].Ms);
      UntracedS.push_back(S);
      continue;
    }
    setTracing(true);
    stats::setEnabled(true);
    Counters Before = snapshotCounters();
    LastTraced = RunPass(true, N, S);
    Counters After = snapshotCounters();
    stats::setEnabled(false);
    setTracing(false);
    TracedS.push_back(S);
    ConsHits += counterDelta(Before, After, "jit.cons.fast.hits");
    ConsMisses += counterDelta(Before, After, "jit.cons.fast.misses");
    double Pause = 0;
    for (size_t I = 0; I < Rot.size(); ++I) {
      int E = Rot[I].Eng == vm::Engine::Native ? 1 : 0;
      EngineMs[E] += LastTraced[I].Ms;
      EngineInsns[E] += static_cast<double>(LastTraced[I].Stats.Instructions);
      Pause += static_cast<double>(LastTraced[I].PauseNs) / 1e6;
      PauseMaxNs = std::max(PauseMaxNs, LastTraced[I].PauseMaxNs);
    }
    PauseMs.push_back(Pause);
  }

  vm::MachineStats Sum;
  size_t Calls[2] = {0, 0};
  for (size_t I = 0; I < Rot.size(); ++I) {
    const vm::MachineStats &S = LastTraced[I].Stats;
    Sum.Instructions += S.Instructions;
    Sum.Movs += S.Movs;
    Sum.Calls += S.Calls;
    Sum.HeapObjects += S.HeapObjects;
    Sum.GcRuns += S.GcRuns;
    Sum.GcWordsReclaimed += S.GcWordsReclaimed;
    ++Calls[Rot[I].Eng == vm::Engine::Native ? 1 : 0];
  }

  // (GC-on call - GC-off call - pause) / heap objects, for the same program
  // and engine, summed over the cons-heavy programs and both engines.
  double ExtraNs = 0, Objects = 0;
  for (size_t I = 0; I < Rot.size(); ++I) {
    if (!Rot[I].Gc)
      continue;
    for (size_t J = 0; J < Rot.size(); ++J)
      if (!Rot[J].Gc && Rot[J].Prog == Rot[I].Prog && Rot[J].Eng == Rot[I].Eng) {
        ExtraNs += (quiet(UntracedMs[I]) - quiet(UntracedMs[J])) * 1e6 -
                   static_cast<double>(LastTraced[I].PauseNs);
        Objects += static_cast<double>(LastTraced[I].Stats.HeapObjects);
      }
  }

  std::map<std::string, LayerTime> L = layerTimes();
  double TracedPasses = static_cast<double>(TracedS.size());
  R.note("passes: " + std::to_string(UntracedS.size()) + " untraced, " +
         std::to_string(TracedS.size()) + " traced");
  // Static code counters of the run set's compile, from the first set-up.
  for (const auto &[Metric, Counter] :
       {std::pair{"codegen.instructions", "codegen.instructions"},
        {"codegen.movs", "codegen.movs"},
        {"tnbind.vars_registers", "tnbind.vars.registers"},
        {"tnbind.vars_frame", "tnbind.vars.frame"}})
    R.metric(Metric,
             static_cast<double>(counterDelta(CompileCounters.first,
                                              CompileCounters.second, Counter)),
             "count");
  auto PerCall = [&](const char *Span) {
    return L[Span].TotalMs / static_cast<double>(L[Span].Count);
  };
  R.metric("vm.predecode_ms", PerCall("vm::predecode"), "ms");
  R.metric("vm.jit_compile_ms", PerCall("vm::compileJit"), "ms");
  R.metric("jit.blocks", static_cast<double>(JitBlocks), "count");
  R.metric("vm.run_ms.threaded",
           EngineMs[0] / (TracedPasses * static_cast<double>(Calls[0])), "ms");
  R.metric("vm.run_ms.native",
           EngineMs[1] / (TracedPasses * static_cast<double>(Calls[1])), "ms");
  R.metric("vm.minsns_per_s.threaded", EngineInsns[0] / EngineMs[0] / 1e3,
           "Minsn/s");
  R.metric("vm.minsns_per_s.native", EngineInsns[1] / EngineMs[1] / 1e3,
           "Minsn/s");
  R.metric("vm.instructions", static_cast<double>(Sum.Instructions), "count");
  R.metric("vm.movs", static_cast<double>(Sum.Movs), "count");
  R.metric("vm.calls", static_cast<double>(Sum.Calls), "count");
  R.metric("vm.heap_objects", static_cast<double>(Sum.HeapObjects), "count");
  R.metric("vm.gc_runs", static_cast<double>(Sum.GcRuns), "count");
  R.metric("vm.gc_words_reclaimed", static_cast<double>(Sum.GcWordsReclaimed),
           "count");
  R.metric("vm.gc_pause_ms", median(PauseMs), "ms");
  R.metric("vm.gc_pause_max_ms", static_cast<double>(PauseMaxNs) / 1e6, "ms");
  R.metric("vm.jit_cons_fast_ratio",
           ConsHits + ConsMisses ? static_cast<double>(ConsHits) /
                                       static_cast<double>(ConsHits + ConsMisses)
                                 : 0,
           "ratio");
  R.metric("vm.gc_alloc_overhead_ns", Objects ? ExtraNs / Objects : 0, "ns");
  R.metric("trace.overhead", quiet(TracedS) / quiet(UntracedS), "ratio");
}

} // namespace s1bench
