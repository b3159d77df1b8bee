//===- bench/bench_gates.cpp - The wall-clock gates -----------------------===//
//
// Runs the repository's five wall-clock gates, prints each one's measured
// value, bound and verdict, and exits 1 if any gate fails:
//
//  1. native >= 12.1x legacy on the dispatch-bound `loop` kernel: 5.0x
//     the threaded engine's speed over legacy before the threaded loop
//     charged each basic block once (legacy, the reference engine, is the
//     anchor; native over threaded and threaded over legacy are printed
//     beside it for information);
//  2. native map-chain under a 256 KB word-heap budget <= 1.5x its GC-off
//     time;
//  3. a cold compile-service request <= 1.75x the same request uncached;
//  4. compiler scaling >= 2.0x at 4 jobs;
//  5. differential-oracle scaling >= 2.0x at 4 jobs.
//
// Every gate that compares two sides alternates their timed samples, so a
// change in the host's speed between samples reaches both sides alike.
// Gates 1 and 2 need the native tier and are skipped loudly without it.
// Gates 4 and 5 are checked only where 4 threads can run in parallel: the
// host has at least 4 hardware threads, and a capacity probe timed right
// before each floor reads at least 3.0x.
// The binary takes no arguments and writes no files.
//
// Everything deterministic lives elsewhere: the paper's tables are exact
// ctest goldens (tests/integration/PaperTablesTest.cpp), the engines'
// counters on these kernels are pinned bit-identical by
// tests/vm/EngineEquivalenceTest.cpp, and s1bench measures the compile,
// run and service workloads end to end.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "frontend/Convert.h"
#include "fuzz/Generator.h"
#include "fuzz/Oracle.h"
#include "sexpr/Printer.h"
#include "service/Server.h"
#include "vm/Jit.h"
#include "vm/Machine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace s1lisp;

namespace {

using Clock = std::chrono::steady_clock;

double nsSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - Start)
      .count();
}

[[noreturn]] void die(const std::string &Msg) {
  fprintf(stderr, "bench_gates: %s\n", Msg.c_str());
  exit(1);
}

sexpr::Value fx(int64_t N) { return sexpr::Value::fixnum(N); }

/// One compiled program ready to execute.
struct Compiled {
  std::unique_ptr<ir::Module> M = std::make_unique<ir::Module>();
  s1::Program Program;
  std::unique_ptr<vm::Machine> VM;
};

Compiled compileOrDie(const std::string &Src) {
  Compiled C;
  auto Out = driver::compileSource(*C.M, Src);
  if (!Out.Ok)
    die("program failed to compile: " + Out.Error);
  C.Program = std::move(Out.Program);
  C.VM = std::make_unique<vm::Machine>(C.Program, C.M->Syms, C.M->DataHeap);
  return C;
}

void runOrDie(Compiled &C, const std::string &Fn,
              const std::vector<sexpr::Value> &Args) {
  auto R = C.VM->call(Fn, Args);
  if (!R.Ok)
    die(Fn + " failed: " + R.Error);
}

const char *hostArch() {
#if defined(__x86_64__)
  return "x86_64";
#elif defined(__aarch64__)
  return "aarch64";
#else
  return "other";
#endif
}

/// Prints one gate's reading, bound and verdict; returns false when it
/// failed. A gate with a \p Skip reason is not checked against its bound;
/// one with a \p Broken reason fails whatever it measured.
bool report(const char *Gate, double Measured, bool AtLeast, double Bound,
            const std::string &Skip = "", const std::string &Broken = "") {
  bool Within = AtLeast ? Measured >= Bound : Measured <= Bound;
  bool Pass = Broken.empty() && (!Skip.empty() || Within);
  const char *Verdict = !Pass ? "FAIL" : Skip.empty() ? "PASS" : "SKIP";
  const std::string &Why = Broken.empty() ? Skip : Broken;
  printf("%-44s %6.2fx  %s %.2fx  %s%s%s%s\n", Gate, Measured,
         AtLeast ? ">=" : "<=", Bound, Verdict, Why.empty() ? "" : " (",
         Why.c_str(), Why.empty() ? "" : ")");
  return Pass;
}

std::string noNativeTier() {
  return std::string("native tier unavailable on ") + hostArch();
}

//===----------------------------------------------------------------------===//
// Gate 1: native over legacy on the dispatch-bound loop kernel.
//===----------------------------------------------------------------------===//

/// The floor on legacy time over native time. It was 5.0x over threaded;
/// the threaded loop has since got faster while legacy, the reference
/// engine, has not changed, so the floor is 5.0 times the median legacy
/// over threaded ratio this gate read before that speed-up (2.43x over 12
/// runs on a 4-vCPU x86-64 host): a native tier exactly as fast as it was
/// then passes with the same margin.
constexpr double NativeOverLegacyFloor = 12.1;

struct Timed {
  double BestNs = 1e300;
  vm::MachineStats Stats;
};

const char *LoopKernelSrc =
    "(defun kernel (n) (let ((s 0)) (dotimes (i n) (setq s (+ s i))) s))";

/// Times one call of \p P's kernel on a fresh stats window; \p T keeps
/// the fastest.
void timeLoopCall(Compiled &P, Timed &T) {
  P.VM->resetStats();
  auto Start = Clock::now();
  runOrDie(P, "kernel", {fx(60000)});
  double Ns = nsSince(Start);
  if (Ns < T.BestNs) {
    T.BestNs = Ns;
    T.Stats = P.VM->stats();
  }
}

bool nativeOverLegacy() {
  const char *Gate = "native over legacy, loop kernel";
  if (!vm::jitAvailable())
    return report(Gate, 0, true, NativeOverLegacyFloor, noNativeTier());
  // One warm-up call per engine (it also pays the native tier's compile),
  // then the best of five timed calls each, alternating.
  const vm::Engine Engines[] = {vm::Engine::Legacy, vm::Engine::Threaded,
                                vm::Engine::Native};
  Compiled P[3] = {compileOrDie(LoopKernelSrc), compileOrDie(LoopKernelSrc),
                   compileOrDie(LoopKernelSrc)};
  for (int E = 0; E < 3; ++E) {
    P[E].VM->setEngine(Engines[E]);
    runOrDie(P[E], "kernel", {fx(60000)});
  }
  Timed T[3];
  for (int Rep = 0; Rep < 5; ++Rep)
    for (int E = 0; E < 3; ++E)
      timeLoopCall(P[E], T[E]);
  const Timed &Legacy = T[0], &Threaded = T[1], &Native = T[2];
  printf("  loop: %llu instructions, legacy %.2f ms, threaded %.2f ms, "
         "native %.2f ms\n",
         static_cast<unsigned long long>(Native.Stats.Instructions),
         Legacy.BestNs / 1e6, Threaded.BestNs / 1e6, Native.BestNs / 1e6);
  printf("  for information: native over threaded %.2fx, threaded over "
         "legacy %.2fx\n",
         Threaded.BestNs / Native.BestNs, Legacy.BestNs / Threaded.BestNs);
  bool Agree = Legacy.Stats == Native.Stats && Threaded.Stats == Native.Stats;
  return report(Gate, Legacy.BestNs / Native.BestNs, true,
                NativeOverLegacyFloor, "",
                Agree ? "" : "the engines disagree on the kernel's counters");
}

//===----------------------------------------------------------------------===//
// Gate 2: native map-chain under a 256 KB budget against GC off.
//===----------------------------------------------------------------------===//

std::string slurp(const char *Name) {
  std::ifstream In(std::string(S1LISP_EXAMPLES_DIR) + "/gc/" + Name);
  std::stringstream Buf;
  Buf << In.rdbuf();
  if (Buf.str().empty())
    die(std::string("cannot read examples/gc/") + Name);
  return Buf.str();
}

/// One sample of the run workload's map-chain: 40 calls at n = 500 under
/// \p BudgetBytes, on a fresh Machine (a collector-off heap only grows)
/// that pays the native compile in an untimed n = 0 call. Every call's
/// checksum is checked.
double mapChainSampleNs(
    const Compiled &C, const std::shared_ptr<const vm::DecodedProgram> &Decoded,
    uint64_t BudgetBytes) {
  constexpr int64_t N = 500;
  constexpr int Reps = 40;
  int64_t SumSquares = N * (N - 1) * (2 * N - 1) / 6;
  std::string Want = std::to_string(3 * (SumSquares + N));
  vm::Machine VM(C.Program, C.M->Syms, C.M->DataHeap);
  VM.setDecodedProgram(Decoded);
  VM.setEngine(vm::Engine::Native);
  VM.setFuel(4'000'000'000ull);
  VM.setGcBudget(BudgetBytes);
  VM.call("map-chain-workload", {fx(0)});
  VM.resetStats();
  auto Start = Clock::now();
  for (int Rep = 0; Rep < Reps; ++Rep) {
    auto R = VM.call("map-chain-workload", {fx(N)});
    if (!R.Ok || !R.Result || sexpr::toString(*R.Result) != Want)
      die(std::string("map-chain failed: ") +
          (R.Ok ? "checksum mismatch" : R.Error));
  }
  return nsSince(Start);
}

bool mapChainUnderBudget() {
  const char *Gate = "native map-chain, 256 KB budget over GC off";
  if (!vm::jitAvailable())
    return report(Gate, 0, false, 1.5, noNativeTier());
  // Best of five samples per side, alternating.
  Compiled C = compileOrDie(slurp("map-chain.lisp"));
  auto Decoded = vm::predecode(C.Program);
  double Off = 1e300, On = 1e300;
  for (int Sample = 0; Sample < 5; ++Sample) {
    Off = std::min(Off, mapChainSampleNs(C, Decoded, 0));
    On = std::min(On, mapChainSampleNs(C, Decoded, 256u << 10));
  }
  printf("  map-chain: GC off %.2f ms, 256 KB budget %.2f ms\n", Off / 1e6,
         On / 1e6);
  return report(Gate, On / Off, false, 1.5);
}

//===----------------------------------------------------------------------===//
// Gate 3: a cold service request against the same request uncached.
//===----------------------------------------------------------------------===//

service::Message compileRequest() {
  // A 60-function generated module with large bodies, compiled with CSE:
  // a cache miss pays the whole middle end plus storing the units, and no
  // remarks, since the request asks for none.
  fuzz::GenOptions GO;
  GO.Helpers = 59;
  GO.MaxDepth = 6;
  GO.SizeBudget = 400;
  service::Message Req;
  Req.set("cmd", "compile");
  Req.set("source", fuzz::Generator(7600, GO).generate().Source);
  Req.set("options", "--cse");
  return Req;
}

/// Seconds \p Srv takes to answer \p Req.
double requestSeconds(service::Server &Srv, const service::Message &Req) {
  auto Start = Clock::now();
  service::Message Resp = Srv.handle(Req);
  double Seconds = nsSince(Start) / 1e9;
  if (Resp.getOr("ok") != "1")
    die("service request failed: " + Resp.getOr("error"));
  return Seconds;
}

bool serviceColdOverUncached() {
  service::Server Srv({});
  service::Message Cold = compileRequest();
  service::Message Uncached = Cold;
  Uncached.set("cache", "0");
  // Requests per second over 8 requests per side, alternating; the cache
  // is emptied before each cold one.
  constexpr unsigned Reps = 8;
  double ColdSeconds = 0, UncachedSeconds = 0;
  for (unsigned R = 0; R < Reps; ++R) {
    Srv.cache().clear();
    ColdSeconds += requestSeconds(Srv, Cold);
    UncachedSeconds += requestSeconds(Srv, Uncached);
  }
  double ColdRps = Reps / ColdSeconds, UncachedRps = Reps / UncachedSeconds;
  printf("  service: cold %.2f ms, uncached %.2f ms per request\n",
         1000.0 / ColdRps, 1000.0 / UncachedRps);
  return report("service cold over uncached", UncachedRps / ColdRps, false,
                1.75);
}

//===----------------------------------------------------------------------===//
// Gates 4 and 5: parallel scaling at 4 jobs.
//===----------------------------------------------------------------------===//

unsigned hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// A fixed CPU-only kernel: a chain of dependent register operations,
/// with no allocation and no write to memory another thread reads. The
/// seed is read at run time, so the loop cannot be folded away.
uint64_t capacityKernel() {
  volatile uint64_t Seed = 1;
  uint64_t X = Seed;
  for (uint32_t I = 0; I < (1u << 22); ++I) {
    X ^= X >> 31;
    X *= 0x9e3779b97f4a7c15ull;
  }
  return X;
}

/// Best of three wall times of \p Threads copies of the kernel at once.
double capacityKernelNs(unsigned Threads) {
  double Best = 1e300;
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto Start = Clock::now();
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < Threads; ++T)
      Pool.emplace_back([] {
        volatile uint64_t Sink = capacityKernel();
        (void)Sink;
      });
    for (std::thread &Th : Pool)
      Th.join();
    Best = std::min(Best, nsSince(Start));
  }
  return Best;
}

/// The scaling floors' skip reason, empty when the host can run 4 jobs in
/// parallel. The capacity probe is the throughput of 4 kernels at once
/// over one: 4.0x on 4 free cores, 1.0x when they run one at a time.
std::string cannotRunFourJobs() {
  if (hardwareThreads() < 4)
    return std::to_string(hardwareThreads()) + " hardware thread(s) < 4";
  const double One = capacityKernelNs(1), Four = capacityKernelNs(4);
  const double Probe = 4 * One / Four;
  printf("  capacity probe: 1 thread %.2f ms, 4 threads %.2f ms, %.2fx\n",
         One / 1e6, Four / 1e6, Probe);
  if (Probe >= 3.0)
    return "";
  char Why[64];
  snprintf(Why, sizeof(Why), "capacity probe %.2fx < 3.00x", Probe);
  return Why;
}

/// Wall time of one compile of a fresh conversion of \p Source; the
/// conversion is not timed.
double compileNs(const std::string &Source, unsigned Jobs) {
  driver::CompilerOptions Opts;
  Opts.Cse = true;
  Opts.Jobs = Jobs;
  ir::Module M;
  DiagEngine Diags;
  if (!frontend::convertSource(M, Source, Diags))
    die("compile module failed to convert: " + Diags.str());
  auto Start = Clock::now();
  driver::CompileOutcome Out = driver::compileModule(M, Opts);
  double Ns = nsSince(Start);
  if (!Out.Ok)
    die("compile failed: " + Out.Error);
  return Ns;
}

bool compileScaling() {
  const std::string Skip = cannotRunFourJobs();
  fuzz::GenOptions GO;
  GO.Helpers = 99;
  GO.MaxDepth = 6;
  GO.SizeBudget = 400;
  std::string Source = fuzz::Generator(7000, GO).generate().Source;
  // Best of 12 compiles per job count after one warm-up each, alternating.
  double Serial = 1e300, Jobs4 = 1e300;
  for (unsigned R = 0; R <= 12; ++R) {
    double One = compileNs(Source, 1), Four = compileNs(Source, 4);
    if (R > 0) {
      Serial = std::min(Serial, One);
      Jobs4 = std::min(Jobs4, Four);
    }
  }
  printf("  compile: 1 job %.1f ms, 4 jobs %.1f ms\n", Serial / 1e6,
         Jobs4 / 1e6);
  return report("compile scaling at 4 jobs", Serial / Jobs4, true, 2.0,
                Skip);
}

/// Wall time of one oracle sweep over 12 programs from seed 5000; counts
/// divergent programs into \p Divergent.
double oracleSweepNs(unsigned Jobs, unsigned &Divergent) {
  fuzz::OracleOptions O;
  O.Jobs = Jobs;
  auto Start = Clock::now();
  for (unsigned I = 0; I < 12; ++I) {
    fuzz::GeneratedProgram P = fuzz::Generator(5000 + I, {}).generate();
    if (fuzz::checkProgram(P, O).St == fuzz::CheckResult::Status::Diverged)
      ++Divergent;
  }
  return nsSince(Start);
}

bool oracleScaling() {
  const std::string Skip = cannotRunFourJobs();
  unsigned Divergent = 0;
  double Serial = oracleSweepNs(1, Divergent);
  double Jobs4 = oracleSweepNs(4, Divergent);
  printf("  oracle: 1 job %.1f ms, 4 jobs %.1f ms\n", Serial / 1e6,
         Jobs4 / 1e6);
  return report("oracle scaling at 4 jobs", Serial / Jobs4, true, 2.0, Skip,
                Divergent ? std::to_string(Divergent) + " divergent programs"
                          : "");
}

} // namespace

int main() {
  printf("bench_gates: %s, %u hardware threads\n", hostArch(),
         hardwareThreads());
  bool Ok = nativeOverLegacy();
  Ok = mapChainUnderBudget() && Ok;
  Ok = serviceColdOverUncached() && Ok;
  Ok = compileScaling() && Ok;
  Ok = oracleScaling() && Ok;
  printf("%s\n", Ok ? "all gates pass" : "GATE FAILED");
  return Ok ? 0 : 1;
}
