//===- bench/bench_service.cpp - Compile-service throughput ---------------===//
//
// Measures the s1lispd request path end to end (in process, through
// Server::handle — the same core every transport drives):
//
//  * requests/sec cold (the cache cleared before every request, so each
//    one runs the full middle end and captures what the memo stores),
//    uncached (`cache=0`: the same compile with no memo and no remark
//    capture) and warm (the cache primed, so each request hashes, hits,
//    and links) on a middle-end-heavy module. The gate is on what a cache
//    miss costs over the plain compile: cold <= 4x uncached. Warm over
//    cold is the cache's payoff, reported but not gated;
//  * the warm daemon under concurrent clients at 1/2/4/hw threads —
//    aggregate throughput as the worker-pool story.
//
// Every request is a full protocol-shaped compile of a ~60-function
// generated module with --cse, so the cold rows pay optimize + CSE +
// per-unit codegen and the warm rows pay read + convert + hash + link.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "fuzz/Generator.h"
#include "service/Server.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace s1lisp;
using namespace s1lisp::bench;

namespace {

constexpr uint32_t Seed = 7600;
constexpr unsigned ColdReps = 8;
constexpr unsigned WarmReps = 48;

std::string &serviceSource() {
  static std::string Source = [] {
    fuzz::GenOptions GO;
    // Big bodies: the cache's win scales with middle-end work per
    // function, which is what a compile farm's repeated workloads look
    // like (same library, every request).
    GO.Helpers = 59;
    GO.MaxDepth = 6;
    GO.SizeBudget = 400;
    return fuzz::Generator(Seed, GO).generate().Source;
  }();
  return Source;
}

service::Message compileRequest() {
  service::Message Req;
  Req.set("cmd", "compile");
  Req.set("source", serviceSource());
  Req.set("options", "--cse");
  return Req;
}

/// The same compile bypassing the memo: no probe, no capture, no insert.
service::Message uncachedRequest() {
  service::Message Req = compileRequest();
  Req.set("cache", "0");
  return Req;
}

void handleOrDie(service::Server &Srv, const service::Message &Req) {
  service::Message Resp = Srv.handle(Req);
  if (Resp.getOr("ok") != "1") {
    fprintf(stderr, "bench request failed: %s\n", Resp.getOr("error").c_str());
    abort();
  }
}

/// Requests/sec over \p Reps sequential \p Req requests; \p PerRequest
/// runs before each one (outside a warm server it clears the cache).
double requestsPerSec(service::Server &Srv, const service::Message &Req,
                      unsigned Reps, void (*PerRequest)(service::Server &)) {
  double Seconds = 0;
  for (unsigned R = 0; R < Reps; ++R) {
    if (PerRequest)
      PerRequest(Srv);
    auto Start = std::chrono::steady_clock::now();
    handleOrDie(Srv, Req);
    Seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             Start)
                   .count();
  }
  return static_cast<double>(Reps) / Seconds;
}

/// Aggregate requests/sec with \p Clients threads hammering the warm
/// server concurrently.
double concurrentRps(service::Server &Srv, unsigned Clients,
                     unsigned PerClient) {
  service::Message Req = compileRequest();
  std::atomic<bool> Go{false};
  std::vector<std::thread> Pool;
  Pool.reserve(Clients);
  for (unsigned C = 0; C < Clients; ++C)
    Pool.emplace_back([&] {
      while (!Go.load())
        std::this_thread::yield();
      for (unsigned R = 0; R < PerClient; ++R)
        handleOrDie(Srv, Req);
    });
  auto Start = std::chrono::steady_clock::now();
  Go.store(true);
  for (std::thread &Th : Pool)
    Th.join();
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return static_cast<double>(Clients) * PerClient / Seconds;
}

int printTable() {
  unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  tableHeader("Compile-service throughput (60-function module, --cse)");
  printf("hardware threads: %u; %u cold / %u uncached / %u warm sequential "
         "requests\n",
         Hw, ColdReps, ColdReps, WarmReps);

  JsonReport Report("service");
  service::Server Srv({});

  // Cold: every request starts from an empty cache.
  double ColdRps = requestsPerSec(
      Srv, compileRequest(), ColdReps,
      +[](service::Server &S) { S.cache().clear(); });

  // Uncached: the same compile, never touching the cache.
  double UncachedRps =
      requestsPerSec(Srv, uncachedRequest(), ColdReps, nullptr);

  // Warm: prime once, then every request is all hits.
  handleOrDie(Srv, compileRequest());
  double WarmRps = requestsPerSec(Srv, compileRequest(), WarmReps, nullptr);

  double ColdOverUncached = UncachedRps / ColdRps;
  double WarmOverCold = WarmRps / ColdRps;
  bool Pass = ColdOverUncached <= 4.0;
  printf("%-14s %12s %14s\n", "row", "req/s", "ms/req");
  printf("%-14s %12.1f %14.2f\n", "uncached", UncachedRps,
         1000.0 / UncachedRps);
  printf("%-14s %12.1f %14.2f\n", "cold", ColdRps, 1000.0 / ColdRps);
  printf("%-14s %12.1f %14.2f\n", "warm", WarmRps, 1000.0 / WarmRps);
  printf("cold/uncached: %.2fx (acceptance: <= 4x)%s\n", ColdOverUncached,
         Pass ? "" : "  ** ABOVE TARGET **");
  printf("warm/cold: %.2fx\n", WarmOverCold);
  Report.add("uncached.req_per_sec_x100",
             static_cast<uint64_t>(UncachedRps * 100));
  Report.add("cold.req_per_sec_x100", static_cast<uint64_t>(ColdRps * 100));
  Report.add("warm.req_per_sec_x100", static_cast<uint64_t>(WarmRps * 100));
  Report.add("cold_over_uncached_x100",
             static_cast<uint64_t>(ColdOverUncached * 100));
  Report.add("warm_over_cold_x100", static_cast<uint64_t>(WarmOverCold * 100));

  // Concurrent clients against the warm cache.
  printf("concurrent warm clients:\n");
  printf("%-14s %12s\n", "clients", "req/s");
  unsigned Prev = 0;
  for (unsigned Clients : {1u, 2u, 4u, Hw}) {
    if (Clients <= Prev)
      continue; // dedup when hardware_concurrency lands on a swept value
    Prev = Clients;
    unsigned PerClient = std::max(8u, 32u / Clients);
    double Rps = concurrentRps(Srv, Clients, PerClient);
    printf("%-14u %12.1f\n", Clients, Rps);
    Report.add("clients" + std::to_string(Clients) + ".req_per_sec_x100",
               static_cast<uint64_t>(Rps * 100));
  }

  Report.write();
  return Pass ? 0 : 1;
}

void BM_ServiceCold(benchmark::State &State) {
  service::Server Srv({});
  service::Message Req = compileRequest();
  for (auto _ : State) {
    Srv.cache().clear();
    benchmark::DoNotOptimize(Srv.handle(Req).Fields.size());
  }
}
BENCHMARK(BM_ServiceCold);

void BM_ServiceWarm(benchmark::State &State) {
  service::Server Srv({});
  service::Message Req = compileRequest();
  handleOrDie(Srv, Req); // prime
  for (auto _ : State)
    benchmark::DoNotOptimize(Srv.handle(Req).Fields.size());
}
BENCHMARK(BM_ServiceWarm);

} // namespace

int main(int argc, char **argv) {
  int Status = printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return Status;
}
