//===- service/Server.cpp -------------------------------------------------===//

#include "service/Server.h"

#include "driver/Ablation.h"
#include "driver/Compiler.h"
#include "interp/Interp.h"
#include "sexpr/Printer.h"
#include "stats/Stats.h"
#include "vm/Machine.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace s1lisp;
using namespace s1lisp::service;

S1_STAT(ServiceRequests, "service.requests", "requests handled");
S1_STAT(ServiceRequestMicros, "service.request.micros",
        "total request handling time (microseconds)");

namespace {

/// Splits on whitespace; the daemon's "options" field carries the same
/// tokens an s1lispc command line would.
std::vector<std::string> splitTokens(const std::string &S) {
  std::vector<std::string> Out;
  size_t I = 0;
  while (I < S.size()) {
    while (I < S.size() && std::isspace(static_cast<unsigned char>(S[I])))
      ++I;
    size_t Begin = I;
    while (I < S.size() && !std::isspace(static_cast<unsigned char>(S[I])))
      ++I;
    if (I > Begin)
      Out.push_back(S.substr(Begin, I - Begin));
  }
  return Out;
}

/// The request's counter deltas minus the service's own bookkeeping: a
/// cache hit records service.cache.hits where a fresh compile records a
/// miss, and the per-request report must stay bit-identical between the
/// two (and with a standalone s1lispc run).
std::vector<stats::TallyDelta>
compilerDeltas(const stats::LocalTally &T) {
  std::vector<stats::TallyDelta> Deltas = T.deltas();
  Deltas.erase(std::remove_if(Deltas.begin(), Deltas.end(),
                              [](const stats::TallyDelta &D) {
                                return D.Name.rfind("service.", 0) == 0;
                              }),
               Deltas.end());
  return Deltas;
}

/// Renders deltas in reportStats()'s text layout, resolving descriptions
/// from the live registry.
std::string renderStatsText(const std::vector<stats::TallyDelta> &Deltas) {
  std::vector<stats::StatValue> Values;
  for (const stats::TallyDelta &D : Deltas)
    if (uint64_t V = std::max(D.Add, D.Max))
      Values.push_back({D.Name, stats::statDesc(D.Name), V});
  return stats::renderStatsTable(Values);
}

void fail(Message &Resp, std::string Error) {
  Resp.Fields.clear();
  Resp.set("ok", "0");
  Resp.set("error", std::move(Error));
}

} // namespace

Server::Server(ServerOptions O) : Opts(std::move(O)), Cache(Opts.CacheMaxBytes) {}

Message Server::handle(const Message &Req) {
  auto Start = std::chrono::steady_clock::now();
  Message Resp;
  stats::LocalTally T;
  {
    // Isolation: this request's counters land in T, invisible to
    // concurrent requests; phase timing is thread-local and reset below
    // when requested.
    stats::TallyScope Scope(T);
    handleDispatch(Req, Resp, T);
    ++ServiceRequests;
    ServiceRequestMicros += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  }
  // Fold into the daemon-wide aggregates cmd=stats reports.
  T.apply();
  Requests.fetch_add(1);
  return Resp;
}

void Server::handleDispatch(const Message &Req, Message &Resp,
                            const stats::LocalTally &T) {
  const std::string Cmd = Req.getOr("cmd");
  if (Cmd == "ping") {
    Resp.set("ok", "1");
    return;
  }
  if (Cmd == "stats") {
    handleStats(Resp);
    return;
  }
  if (Cmd == "shutdown") {
    Resp.set("ok", "1");
    return;
  }
  if (Cmd == "compile") {
    handleCompile(Req, Resp, T);
    return;
  }
  fail(Resp, "unknown cmd '" + Cmd + "'");
}

void Server::handleStats(Message &Resp) {
  Resp.set("ok", "1");
  Resp.set("stats", stats::reportStatsJson());
  Resp.set("cache-entries", std::to_string(Cache.entries()));
  Resp.set("cache-bytes", std::to_string(Cache.bytes()));
  Resp.set("cache-max-bytes", std::to_string(Cache.maxBytes()));
  Resp.set("cache-hits", std::to_string(Cache.hits()));
  Resp.set("cache-misses", std::to_string(Cache.misses()));
  Resp.set("cache-evictions", std::to_string(Cache.evictions()));
  Resp.set("requests", std::to_string(Requests.load()));
}

void Server::handleCompile(const Message &Req, Message &Resp,
                           const stats::LocalTally &T) {
  const std::string *Source = Req.get("source");
  if (!Source) {
    fail(Resp, "compile request without a source field");
    return;
  }

  driver::CompilerOptions Opts;
  for (const std::string &Tok : splitTokens(Req.getOr("options")))
    if (!driver::applyCompilerFlag(Tok, Opts)) {
      fail(Resp, "unknown compiler option '" + Tok + "'");
      return;
    }
  uint64_t Jobs = 0;
  if (Req.has("jobs")) {
    if (!parseU64(*Req.get("jobs"), Jobs) || !Jobs ||
        Jobs > std::numeric_limits<unsigned>::max()) {
      fail(Resp, "bad jobs value");
      return;
    }
    Opts.Jobs = static_cast<unsigned>(Jobs);
  }
  uint64_t Fuel = 0;
  const bool HasFuel = Req.has("fuel");
  if (HasFuel && !parseU64(*Req.get("fuel"), Fuel)) {
    fail(Resp, "bad fuel value");
    return;
  }

  const bool WantTiming = Req.flag("timing");
  const bool PrevTiming = stats::timingEnabled();
  if (WantTiming) {
    stats::setTimingEnabled(true);
    stats::resetPhaseTimes();
  }

  ir::Module M;
  stats::RemarkStream Remarks;
  const bool WantRemarks = Req.flag("remarks") || Req.flag("transcript");
  driver::FunctionMemo *Memo =
      Req.getOr("cache", "1") == "0" ? nullptr : &Cache;
  const std::string Entry = Req.getOr("entry");
  // The interpreter walks every function's tree, so an interp run
  // converts the whole source and memoizes only the back end.
  const bool Interp = !Entry.empty() && Req.getOr("run", "vm") == "interp";
  driver::CompileOutcome Out =
      (Interp ? driver::convertAndCompile : driver::compileSource)(
          M, *Source, Opts, WantRemarks ? &Remarks : nullptr, Memo);

  Resp.set("memo-hits", std::to_string(Out.MemoHits));
  Resp.set("memo-misses", std::to_string(Out.MemoMisses));
  if (!Out.Ok) {
    Resp.set("ok", "0");
    Resp.set("error", Out.Error);
    if (WantTiming)
      stats::setTimingEnabled(PrevTiming);
    return;
  }
  Resp.set("ok", "1");

  if (Req.flag("listing"))
    Resp.set("listing", driver::listing(Out.Program));
  if (Req.flag("transcript"))
    Resp.set("transcript", Remarks.str());
  if (Req.flag("remarks"))
    Resp.set("remarks", Remarks.json());

  const std::string StatsMode = Req.getOr("stats");
  if (!Entry.empty()) {
    if (Interp) {
      if (!M.lookup(Entry)) {
        Resp.set("run-error",
                 "entry function '" + Entry + "' is not defined");
      } else {
        interp::Interpreter I(M);
        if (HasFuel)
          I.setFuel(Fuel);
        auto R = I.call(Entry, {});
        if (!I.output().empty())
          Resp.set("output", I.output());
        if (R.Ok)
          Resp.set("value", R.Value.str());
        else
          Resp.set("run-error", R.Error);
      }
    } else {
      vm::Engine Engine = vm::Engine::Threaded;
      if (Req.has("engine")) {
        auto E = vm::engineByName(*Req.get("engine"));
        if (!E) {
          fail(Resp, "unknown engine '" + *Req.get("engine") + "'");
          if (WantTiming)
            stats::setTimingEnabled(PrevTiming);
          return;
        }
        Engine = *E;
      }
      if (Out.Program.indexOf(Entry) < 0) {
        Resp.set("run-error",
                 "entry function '" + Entry + "' is not defined");
      } else {
        vm::Machine VM(Out.Program, M.Syms, M.DataHeap);
        VM.setEngine(Engine);
        if (HasFuel)
          VM.setFuel(Fuel);
        else if (this->Opts.VmFuel)
          VM.setFuel(this->Opts.VmFuel);
        auto R = VM.call(Entry, {});
        if (!StatsMode.empty())
          VM.publishStats();
        if (!VM.output().empty())
          Resp.set("output", VM.output());
        if (!R.Ok)
          Resp.set("run-error", R.Error);
        else
          Resp.set("value", R.Result ? sexpr::toString(*R.Result)
                                     : "#<unprintable>");
      }
    }
  }

  if (!StatsMode.empty()) {
    std::vector<stats::TallyDelta> Deltas = compilerDeltas(T);
    Resp.set("stats", StatsMode == "json" ? stats::tallyDeltasJson(Deltas)
                                          : renderStatsText(Deltas));
  }
  if (WantTiming) {
    Resp.set("timing", stats::reportPhaseTimes());
    stats::setTimingEnabled(PrevTiming);
  }
}

//===----------------------------------------------------------------------===//
// Transports
//===----------------------------------------------------------------------===//

void Server::serveConnection(int Fd) {
  Message Req;
  while (!Stopping.load()) {
    ReadStatus St = readFrame(Fd, Req);
    if (St != ReadStatus::Ok)
      break;
    Message Resp = handle(Req);
    if (!writeFrame(Fd, Resp))
      break;
    if (Req.getOr("cmd") == "shutdown") {
      requestStop();
      break;
    }
  }
  ::close(Fd);
}

bool Server::serveUnixSocket(std::string *Err) {
  if (Opts.SocketPath.empty()) {
    if (Err)
      *Err = "no socket path configured";
    return false;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "socket path too long";
    return false;
  }
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Err)
      *Err = "socket() failed";
    return false;
  }
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 64) < 0) {
    if (Err)
      *Err = "cannot bind '" + Opts.SocketPath + "': " + std::strerror(errno);
    ::close(Fd);
    return false;
  }
  ListenFd = Fd;
  Stopping.store(false);

  unsigned Workers = Opts.Workers;
  if (!Workers)
    Workers = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> Pool;
  Pool.reserve(Workers);
  for (unsigned W = 0; W < Workers; ++W)
    Pool.emplace_back([this] {
      while (!Stopping.load()) {
        int Conn = ::accept(ListenFd, nullptr, nullptr);
        if (Conn < 0) {
          if (errno == EINTR)
            continue;
          break; // requestStop() shut the listening socket down
        }
        serveConnection(Conn);
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  ::close(Fd);
  ListenFd = -1;
  ::unlink(Opts.SocketPath.c_str());
  return true;
}

int Server::serveStdio() {
  Message Req;
  while (!Stopping.load()) {
    std::string Err;
    ReadStatus St = readFrame(0, Req, &Err);
    if (St == ReadStatus::Eof)
      break;
    if (St == ReadStatus::Error) {
      fprintf(stderr, "s1lispd: %s\n", Err.c_str());
      return 1;
    }
    Message Resp = handle(Req);
    if (!writeFrame(1, Resp, &Err)) {
      fprintf(stderr, "s1lispd: %s\n", Err.c_str());
      return 1;
    }
    if (Req.getOr("cmd") == "shutdown")
      break;
  }
  return 0;
}

void Server::requestStop() {
  Stopping.store(true);
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
}
