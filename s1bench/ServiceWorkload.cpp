//===- s1bench/ServiceWorkload.cpp - The `service` workload ---------------===//
//
// A real s1lispd listening on a unix socket, driven by this process in a
// closed loop over C <= nproc connections (the daemon runs C workers):
// build-tool callers wait for each reply. Every request compiles a module
// with --cse, runs an entry function, and has its value checked.
//
//  * Four in five requests are warm: a fixed 60-function library plus a
//    request-specific entry function, so the library hits the compile
//    cache and the new function misses.
//  * One in five, at a seeded position in each block of five, is cold: a
//    module no request has sent before.
//  * The cache budget is small enough that inserts, LRU evictions and hits
//    all occur.
//
// Cold modules are drawn from a seeded base set and renamed per request,
// so each is new to the cache while its reference value is computed once.
// References come from the interpreter, outside timing.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/Ablation.h"
#include "driver/Compiler.h"
#include "frontend/Convert.h"
#include "fuzz/Generator.h"
#include "service/Client.h"
#include "service/Protocol.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <csignal>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace s1lisp;
using sexpr::Value;

namespace s1bench {
namespace {

constexpr unsigned LibraryHelpers = 59; ///< plus `fut`: 60 functions
constexpr unsigned ColdHelpers = 19;    ///< plus `fut`: 20 functions
constexpr unsigned WarmCalls = 24;
constexpr unsigned ColdEvery = 5; ///< one cold request per block of five
constexpr unsigned CacheMb = 8;
constexpr const char *CompileOptions = "--cse";

/// Disjoint request-index ranges, so no phase re-sends another's modules.
constexpr uint64_t CheckPhaseBase = 1'000'000'000;
constexpr uint64_t InProcessBase = 2'000'000'000;
constexpr uint64_t PhaseBase = 100'000'000; ///< stride between phases

/// One call of `fut` with its interpreter reference.
struct Call {
  std::string Args;
  fuzz::Outcome Ref;
};

struct Corpus {
  std::string Library;
  std::string Fut; ///< the library's entry function, renamed by the seed
  unsigned LibraryFunctions = 0;
  size_t LibraryCodeWords = 0;
  std::vector<Call> Warm;
  /// The cold module, renamed per request. One module, so every cold
  /// request costs the same and the cold mode of the mix stays narrow.
  std::string Cold;
  std::string ColdFut;
  unsigned ColdFunctions = 0;
  Call ColdCall;
};

struct Request {
  bool Cold = false;
  std::string Source;
  std::string Entry;
  const fuzz::Outcome *Ref = nullptr;
  unsigned ExpectHits = 0;
  unsigned ExpectMisses = 0;
};

driver::CompilerOptions serviceOptions() {
  driver::CompilerOptions Opts;
  driver::applyCompilerFlag(CompileOptions, Opts);
  return Opts;
}

/// Finds up to \p Want argument triples for `fut` on which the interpreter
/// returns a value; each is also run compiled, and triples where the
/// compiled 32-bit fixnum range or fuel makes the rows incomparable are
/// skipped. A compiled value that disagrees is a failure.
std::vector<Call> screenCalls(const std::string &Source, const std::string &Fut,
                              uint64_t Seed, unsigned Want, Report &R,
                              size_t *CodeWords = nullptr) {
  std::vector<Call> Out;
  ir::Module RefM;
  DiagEngine Diags;
  if (!frontend::convertSource(RefM, Source, Diags)) {
    R.attempt();
    R.fail("service corpus does not convert: " + Diags.str());
    return Out;
  }
  ir::Module M;
  driver::CompileOutcome C = driver::compileSource(M, Source, serviceOptions());
  if (!C.Ok) {
    R.attempt();
    R.fail("service corpus does not compile: " + C.Error);
    return Out;
  }
  if (CodeWords)
    *CodeWords = codeWords(C.Program);
  static const char *Floats[] = {"0.5", "-1.5", "2.25", "1.25", "3.5"};
  static const double FloatValues[] = {0.5, -1.5, 2.25, 1.25, 3.5};
  for (uint64_t K = 0; K < 40 * Want && Out.size() < Want; ++K) {
    uint64_t H = mix(Seed, K);
    int64_t A = static_cast<int64_t>(H % 13) - 4;
    int64_t B = static_cast<int64_t>((H >> 8) % 13) - 4;
    size_t F = (H >> 16) % 5;
    std::vector<Value> Args = {Value::fixnum(A), Value::fixnum(B),
                               Value::flonum(FloatValues[F])};
    fuzz::Outcome Ref = interpOutcome(RefM, Fut, Args);
    if (Ref.K != fuzz::Outcome::Kind::Value)
      continue;
    fuzz::Outcome Act = vmOutcome(C.Program, M, Fut, Args);
    Verdict V = compareOutcomes(Ref, Act, true);
    if (V == Verdict::Skipped)
      continue;
    R.attempt();
    if (V == Verdict::Disagree) {
      R.fail("fut " + std::to_string(A) + " " + std::to_string(B) +
             ": interpreter " + Ref.Text + ", compiled " + Act.Text);
      continue;
    }
    Out.push_back({std::to_string(A) + " " + std::to_string(B) + " " +
                       Floats[F],
                   Ref});
  }
  return Out;
}

/// The library, the cold module and their calls are fixed, and renamed by
/// the run's seed: a freshly generated module's compile time varies by
/// 20-40% from one generator seed to the next, which would swamp the
/// bounds. The seed also places the cold requests and orders the calls.
Corpus buildCorpus(const Options &O, Report &R) {
  Corpus C;
  const std::string Suffix = "-s" + std::to_string(O.Seed);
  fuzz::GenOptions GO;
  GO.Helpers = LibraryHelpers;
  GO.MaxDepth = 6;
  GO.SizeBudget = 400;
  fuzz::GeneratedProgram Lib = fuzz::Generator(7600, GO).generate();
  C.Library = renameFunctions(Lib.Source, Suffix);
  C.Fut = Lib.Entry + Suffix;
  C.LibraryFunctions = LibraryHelpers + 1;
  C.Warm = screenCalls(C.Library, C.Fut, 0xa995, WarmCalls, R,
                       &C.LibraryCodeWords);

  GO.Helpers = ColdHelpers;
  fuzz::GeneratedProgram Cold = fuzz::Generator(7700, GO).generate();
  std::vector<Call> ColdCalls =
      screenCalls(Cold.Source, Cold.Entry, 0xc01d, 1, R);
  C.Cold = Cold.Source;
  C.ColdFut = Cold.Entry;
  C.ColdFunctions = ColdHelpers + 1;
  if (!ColdCalls.empty())
    C.ColdCall = ColdCalls.front();
  if (C.Warm.empty() || ColdCalls.empty()) {
    R.attempt();
    R.fail("no usable service inputs for this seed");
  }
  return C;
}

bool isCold(uint64_t Seed, uint64_t Index) {
  return Index % ColdEvery == mix(Seed, Index / ColdEvery) % ColdEvery;
}

/// Request \p Index of a run: cold at the seeded position of its block of
/// five, warm otherwise. Warm requests rotate through the calls from a
/// seeded start, so every run sends the same mix; \p Cold and \p WarmCall
/// override both choices.
Request makeRequest(const Corpus &C, uint64_t Seed, uint64_t Index,
                    std::optional<bool> Cold = std::nullopt,
                    std::optional<uint64_t> WarmCall = std::nullopt) {
  Request Q;
  Q.Cold = Cold ? *Cold : isCold(Seed, Index);
  Q.Entry = "q" + std::to_string(Index);
  if (Q.Cold) {
    std::string Suffix =
        "-s" + std::to_string(Seed) + "r" + std::to_string(Index);
    Q.Source = renameFunctions(C.Cold, Suffix) + "\n(defun " + Q.Entry +
               " () (" + C.ColdFut + Suffix + " " + C.ColdCall.Args + "))\n";
    Q.Ref = &C.ColdCall.Ref;
    Q.ExpectHits = 0;
    Q.ExpectMisses = C.ColdFunctions + 1;
  } else {
    const Call &W = C.Warm[WarmCall.value_or(mix(Seed ^ 0x9e11) + Index) %
                           C.Warm.size()];
    Q.Source = C.Library + "\n(defun " + Q.Entry + " () (" + C.Fut + " " +
               W.Args + "))\n";
    Q.Ref = &W.Ref;
    Q.ExpectHits = C.LibraryFunctions;
    Q.ExpectMisses = 1;
  }
  return Q;
}

service::Message compileMessage(const Request &Q, bool WantStats = false) {
  service::Message M;
  M.set("cmd", "compile");
  M.set("source", Q.Source);
  M.set("options", CompileOptions);
  M.set("entry", Q.Entry);
  if (WantStats)
    M.set("stats", "json");
  return M;
}

/// The value of counter \p Name in a stats=json response ({"name": N}).
uint64_t statsCounter(const service::Message &Resp, const std::string &Name) {
  std::string Json = Resp.getOr("stats");
  size_t At = Json.find("\"" + Name + "\":");
  if (At == std::string::npos)
    return 0;
  return std::strtoull(Json.c_str() + At + Name.size() + 3, nullptr, 10);
}

uint64_t field(const service::Message &M, const char *Key) {
  return std::strtoull(M.getOr(Key, "0").c_str(), nullptr, 10);
}

/// A running s1lispd. The destructor shuts it down and waits for it.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(const Options &O, const std::string &Sock, unsigned Workers,
             std::string &Err) {
    Socket = Sock;
    std::vector<std::string> Args = {
        O.Daemon, "--socket=" + Sock, "--workers=" + std::to_string(Workers),
        "--cache-max-mb=" + std::to_string(CacheMb)};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    // No client thread runs while a daemon starts, so forking is safe.
    Pid = fork();
    if (Pid == 0) {
      // The daemon dies with this process, however this process ends; its
      // output goes to stderr, keeping stdout for the result line.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(2, 1);
      execv(Argv[0], Argv.data());
      _exit(127);
    }
    if (Pid < 0) {
      Err = "cannot start " + O.Daemon;
      return false;
    }
    auto T0 = Clock::now();
    while (secondsSince(T0) < 30) {
      service::Client C;
      service::Message Ping, Resp;
      Ping.set("cmd", "ping");
      if (C.connectUnix(Socket) && C.roundTrip(Ping, Resp) &&
          Resp.getOr("ok") == "1")
        return true;
      int Status = 0;
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Err = "s1lispd exited during start-up";
        return false;
      }
      usleep(2000);
    }
    Err = "s1lispd did not answer within 30 s";
    stop();
    return false;
  }

  /// Terminates the daemon and waits for it. A signal rather than the
  /// protocol's shutdown request: a wedged daemon cannot block it.
  void stop() {
    if (Pid < 0)
      return;
    kill(Pid, SIGTERM);
    auto T0 = Clock::now();
    int Status = 0;
    while (waitpid(Pid, &Status, WNOHANG) != Pid) {
      if (secondsSince(T0) > 10) {
        kill(Pid, SIGKILL);
        waitpid(Pid, &Status, 0);
        break;
      }
      usleep(2000);
    }
    Pid = -1;
    unlink(Socket.c_str());
  }

  /// The daemon's peak resident set (VmHWM), in MB.
  double peakRssMb() const {
    std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
    std::string Line;
    while (std::getline(In, Line))
      if (Line.rfind("VmHWM:", 0) == 0)
        return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
    return 0;
  }

  service::Message stats() const {
    service::Client C;
    service::Message Req, Resp;
    Req.set("cmd", "stats");
    if (C.connectUnix(Socket))
      C.roundTrip(Req, Resp);
    return Resp;
  }

  const std::string &socket() const { return Socket; }

private:
  pid_t Pid = -1;
  std::string Socket;
};

struct Sample {
  uint64_t Index;
  double Ms;       ///< the round trip
  double ClientMs; ///< everything the client does for the request
  bool Cold;
  bool Traced;
};

struct PhaseResult {
  std::vector<Sample> Samples;
  double RequestsPerS = 0;
  double ProtocolUs = 0; ///< summed over traced requests
  unsigned LibraryMisses = 0; ///< warm requests that missed the library
};

/// Checks one response against its request's reference.
void verify(const Request &Q, bool Sent, const std::string &Err,
            const service::Message &Resp, bool CheckMemo, Report &R) {
  R.attempt();
  if (!Sent) {
    R.fail(Q.Entry + ": round trip failed: " + Err);
    return;
  }
  if (Resp.getOr("ok") != "1") {
    R.fail(Q.Entry + ": " + Resp.getOr("error"));
    return;
  }
  fuzz::Outcome Act = Resp.has("value")
                          ? fuzz::Outcome::value(Resp.getOr("value"))
                          : fuzz::Outcome::error(Resp.getOr("run-error"));
  if (compareOutcomes(*Q.Ref, Act, true) != Verdict::Agree) {
    R.fail(Q.Entry + ": expected " + Q.Ref->Text + ", got " + Act.Text);
    return;
  }
  if (CheckMemo && (field(Resp, "memo-hits") != Q.ExpectHits ||
                    field(Resp, "memo-misses") != Q.ExpectMisses))
    R.fail(Q.Entry + ": memo hits/misses " + Resp.getOr("memo-hits") + "/" +
           Resp.getOr("memo-misses") + ", expected " +
           std::to_string(Q.ExpectHits) + "/" + std::to_string(Q.ExpectMisses));
}

/// Drives the daemon with \p Clients closed-loop connections for \p Seconds,
/// sending requests FirstIndex, FirstIndex+1, ... in order. With \p Traced,
/// every odd-numbered request is traced, so traced and untraced requests
/// share one phase and one load.
PhaseResult runPhase(const Corpus &C, const Options &O, const Daemon &D,
                     unsigned Clients, double Seconds, uint64_t FirstIndex,
                     bool Traced, Report &R) {
  std::atomic<uint64_t> Next{FirstIndex};
  std::mutex Mu;
  PhaseResult P;
  std::vector<std::unique_ptr<service::Client>> Conns;
  for (unsigned I = 0; I < Clients; ++I) {
    Conns.push_back(std::make_unique<service::Client>());
    std::string Err;
    if (!Conns.back()->connectUnix(D.socket(), &Err)) {
      R.attempt();
      R.fail("cannot connect: " + Err);
      return P;
    }
  }
  const auto Start = Clock::now();
  const auto Deadline = Start + std::chrono::duration<double>(Seconds);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Clients; ++T)
    Threads.emplace_back([&, T] {
      service::Client &Cl = *Conns[T];
      std::vector<Sample> Mine;
      double ProtoUs = 0;
      unsigned LibMisses = 0;
      while (Clock::now() < Deadline) {
        uint64_t I = Next.fetch_add(1);
        const bool TraceThis = Traced && I % 2 == 1;
        setTracing(TraceThis);
        auto C0 = Clock::now();
        Request Q = makeRequest(C, O.Seed, I);
        service::Message Req = compileMessage(Q), Resp;
        std::string Err;
        bool Sent;
        OpScope Op(I);
        auto T0 = Clock::now();
        {
          Span S("Client::roundTrip");
          Sent = Cl.roundTrip(Req, Resp, &Err);
        }
        double Ms = secondsSince(T0) * 1e3;
        if (TraceThis) {
          // Client-side framing cost of this request: encoding the request
          // plus decoding the response, timed on the same messages.
          std::string RespPayload = service::encodeMessage(Resp);
          service::Message Decoded;
          auto P0 = Clock::now();
          {
            Span S("service::encodeMessage");
            service::encodeMessage(Req);
          }
          {
            Span S("service::decodeMessage");
            service::decodeMessage(RespPayload, Decoded);
          }
          ProtoUs += secondsSince(P0) * 1e6;
        }
        verify(Q, Sent, Err, Resp, false, R);
        if (!Q.Cold && Sent && field(Resp, "memo-hits") < Q.ExpectHits)
          ++LibMisses;
        Mine.push_back({I, Ms, secondsSince(C0) * 1e3, Q.Cold, TraceThis});
        setTracing(false);
      }
      // Closed-loop throughput: each client's completions over the time it
      // took to complete them, summed over clients. The request in flight at
      // the deadline is finished and counted, so no client idles.
      double Rate = static_cast<double>(Mine.size()) / secondsSince(Start);
      std::lock_guard<std::mutex> L(Mu);
      P.RequestsPerS += Rate;
      P.Samples.insert(P.Samples.end(), Mine.begin(), Mine.end());
      P.ProtocolUs += ProtoUs;
      P.LibraryMisses += LibMisses;
    });
  for (std::thread &Th : Threads)
    Th.join();
  return P;
}

/// The single-client check: every warm call, then two cold requests, on one
/// connection. Memo hits and misses must match their closed forms exactly
/// (the library hits, every new function misses). Returns the simulated
/// instructions the entries retired, from the daemon's per-request stats.
uint64_t checkPhase(const Corpus &C, const Options &O, const Daemon &D,
                    Report &R) {
  service::Client Cl;
  std::string Err;
  if (!Cl.connectUnix(D.socket(), &Err)) {
    R.attempt();
    R.fail("cannot connect: " + Err);
    return 0;
  }
  uint64_t Insns = 0;
  uint64_t Index = CheckPhaseBase;
  auto Send = [&](bool Cold, uint64_t WarmCall) {
    Request Q = makeRequest(C, O.Seed, Index++, Cold, WarmCall);
    service::Message Resp;
    bool Sent = Cl.roundTrip(compileMessage(Q, /*WantStats=*/true), Resp, &Err);
    verify(Q, Sent, Err, Resp, /*CheckMemo=*/true, R);
    Insns += statsCounter(Resp, "vm.instructions");
  };
  for (uint64_t K = 0; K < C.Warm.size(); ++K)
    Send(false, K);
  for (uint64_t K = 0; K < 2; ++K)
    Send(true, K);
  return Insns;
}

/// Starts a daemon and warms its cache with the library. Returns the
/// set-up time in seconds, or a negative value on failure.
double setUp(const Corpus &C, const Options &O, const std::string &Sock,
             unsigned Workers, Daemon &D, Report &R) {
  auto T0 = Clock::now();
  std::string Err;
  if (!D.start(O, Sock, Workers, Err)) {
    R.attempt();
    R.fail(Err);
    return -1;
  }
  Request Warm;
  Warm.Entry = "warm-up";
  Warm.Source = C.Library + "\n(defun warm-up () (" + C.Fut + " " +
                C.Warm[0].Args + "))\n";
  Warm.Ref = &C.Warm[0].Ref;
  service::Client Cl;
  service::Message Resp;
  bool Sent = Cl.connectUnix(Sock, &Err) &&
              Cl.roundTrip(compileMessage(Warm), Resp, &Err);
  verify(Warm, Sent, Err, Resp, false, R);
  return secondsSince(T0);
}

/// Requests per window: five blocks of five, so each window holds the mix
/// exactly (20 warm, 5 cold).
constexpr size_t WindowRequests = 5 * ColdEvery;

/// Statistics of consecutive windows of requests, by request index.
struct Windows {
  std::vector<double> P50, P90; ///< latency within each window, ms
  /// Closed-loop throughput within each window: clients over the mean
  /// client time per request (round trip plus the client's own work).
  std::vector<double> Rps;
};

void addWindows(const PhaseResult &P, unsigned Clients, Windows &W) {
  std::vector<Sample> S = P.Samples;
  std::sort(S.begin(), S.end(),
            [](const Sample &A, const Sample &B) { return A.Index < B.Index; });
  for (size_t B = 0; B + WindowRequests <= S.size(); B += WindowRequests) {
    std::vector<double> Ms;
    double ClientMs = 0;
    for (size_t I = B; I < B + WindowRequests; ++I) {
      Ms.push_back(S[I].Ms);
      ClientMs += S[I].ClientMs;
    }
    W.P50.push_back(percentile(Ms, 0.5));
    W.P90.push_back(percentile(Ms, 0.9));
    W.Rps.push_back(Clients * WindowRequests * 1e3 / ClientMs);
  }
}

std::vector<double> latencies(const PhaseResult &P, int Which) {
  std::vector<double> V;
  for (const Sample &S : P.Samples)
    if (Which < 0 || S.Cold == (Which == 1))
      V.push_back(S.Ms);
  return V;
}

} // namespace

void runServiceWorkload(const Options &O, Report &R) {
  Corpus C = buildCorpus(O, R);
  if (R.failed())
    return;
  // Half the cores: the client threads and the host keep the rest, so
  // queueing for a core does not swamp the daemon's own contention.
  const unsigned Clients =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency() / 2));
  const std::string Sock = O.Scratch + "/s1lispd-" +
                           std::to_string(getpid()) + ".sock";

  // Set-up is a daemon start plus its cache warm-up. The untraced run
  // measures four daemons in turn, each for a quarter of the time: a
  // daemon's heap layout sets its speed for its whole life, so one process
  // would make the run a single draw of that layout.
  std::vector<double> SetupS;
  auto Start = [&](std::unique_ptr<Daemon> &D) {
    D.reset(); // shuts the previous daemon down first
    D = std::make_unique<Daemon>();
    double S = setUp(C, O, Sock, Clients, *D, R);
    SetupS.push_back(S);
    return S >= 0;
  };
  std::unique_ptr<Daemon> D;
  if (!Start(D))
    return;

  // Single-client check: a fixed request sequence whose memo hits and
  // misses are known exactly (library hits, new functions miss).
  uint64_t CheckInsns = checkPhase(C, O, *D, R);

  if (!O.Trace) {
    constexpr int Daemons = 4;
    Windows W;
    double PeakRss = 0;
    size_t Requests = 0, Cold = 0;
    unsigned LibraryMisses = 0;
    Calibration Cal;
    for (int K = 0; K < Daemons; ++K) {
      if (K > 0 && !Start(D))
        return;
      // Sampled while the daemon is idle, so the kernel has a core to
      // itself as in the other workloads.
      for (int I = 0; I < 5; ++I)
        Cal.sample();
      PhaseResult P = runPhase(C, O, *D, Clients, O.Seconds / Daemons,
                               static_cast<uint64_t>(K) * PhaseBase, false, R);
      addWindows(P, Clients, W);
      PeakRss = std::max(PeakRss, D->peakRssMb());
      Requests += P.Samples.size();
      Cold += latencies(P, 1).size();
      LibraryMisses += P.LibraryMisses;
    }
    R.note("clients: " + std::to_string(Clients) + " on each of " +
           std::to_string(Daemons) + " daemons; requests: " +
           std::to_string(Requests) + " (" + std::to_string(Cold) +
           " cold) in " + std::to_string(W.Rps.size()) + " windows of " +
           std::to_string(WindowRequests) +
           "; warm requests that missed a library function: " +
           std::to_string(LibraryMisses));
    // A rate's quiet end is its high end.
    double Rps = percentile(W.Rps, 1 - QuietQuantile);
    const double F = Cal.factor();
    R.scaled("setup_s", median(SetupS), "s", F);
    R.scaled("latency_ms_p50", quiet(W.P50), "ms", F);
    R.scaled("latency_ms_p90", quiet(W.P90), "ms", F);
    R.scaled("ops_per_s", Rps, "1/s", 1 / F);
    R.metric("peak_rss_mb", PeakRss, "MB");
    R.metric("code_words", static_cast<double>(C.LibraryCodeWords), "words");
    R.metric("s1_instructions", static_cast<double>(CheckInsns), "count");
    R.extra("request_ms_p50", quiet(W.P50) * F, "ms");
    R.extra("request_ms_p90", quiet(W.P90) * F, "ms");
    R.extra("requests_per_s", Rps / F, "1/s");
    R.extra("calibration_ms", Cal.quietMs(), "ms");
    return;
  }

  // Traced run: C clients with every other request traced, then one
  // untraced client for the scaling ratio.
  service::Message S0 = D->stats();
  PhaseResult Traced =
      runPhase(C, O, *D, Clients, O.Seconds / 2, 0, true, R);
  service::Message S1 = D->stats();
  PhaseResult Single =
      runPhase(C, O, *D, 1, O.Seconds / 2, PhaseBase, false, R);

  // The in-process compile of cold modules, for the cold/compile ratio.
  std::vector<double> InProcessMs;
  for (uint64_t I = InProcessBase; InProcessMs.size() < 5; ++I) {
    if (!isCold(O.Seed, I))
      continue;
    Request Q = makeRequest(C, O.Seed, I);
    ir::Module M;
    auto T0 = Clock::now();
    driver::CompileOutcome Out = driver::compileSource(M, Q.Source,
                                                       serviceOptions());
    InProcessMs.push_back(secondsSince(T0) * 1e3);
    R.attempt();
    if (!Out.Ok)
      R.fail("in-process compile failed: " + Out.Error);
  }

  uint64_t Hits = field(S1, "cache-hits") - field(S0, "cache-hits");
  uint64_t Misses = field(S1, "cache-misses") - field(S0, "cache-misses");
  double ColdMs = median(latencies(Traced, 1));
  // Tracing overhead: the client's whole time per warm request, traced
  // over untraced, within the same phase.
  std::vector<double> WarmClient[2];
  double TracedRequests = 0;
  for (const Sample &S : Traced.Samples) {
    TracedRequests += S.Traced;
    if (!S.Cold)
      WarmClient[S.Traced].push_back(S.ClientMs);
  }
  R.note("clients: " + std::to_string(Clients) + "; requests: " +
         std::to_string(Traced.Samples.size()) + " at " +
         std::to_string(Clients) + " clients (half traced), " +
         std::to_string(Single.Samples.size()) + " at one client");
  R.metric("service.roundtrip_ms.warm", median(latencies(Traced, 0)), "ms");
  R.metric("service.roundtrip_ms.cold", ColdMs, "ms");
  R.metric("service.protocol_us",
           Traced.ProtocolUs / TracedRequests,
           "us");
  R.metric("service.cache_hit_ratio",
           Hits + Misses ? static_cast<double>(Hits) /
                               static_cast<double>(Hits + Misses)
                         : 0,
           "ratio");
  R.metric("service.cache_evictions",
           static_cast<double>(field(S1, "cache-evictions") -
                               field(S0, "cache-evictions")),
           "count");
  R.metric("service.cache_bytes", static_cast<double>(field(S1, "cache-bytes")),
           "bytes");
  R.metric("service.cold_over_compile", ColdMs / median(InProcessMs), "ratio");
  R.metric("service.client_scaling",
           Traced.RequestsPerS / Single.RequestsPerS, "ratio");
  R.metric("trace.overhead", median(WarmClient[1]) / median(WarmClient[0]),
           "ratio");
}

} // namespace s1bench
