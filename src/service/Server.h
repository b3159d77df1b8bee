//===- service/Server.h - The s1lispd compile service -----------*- C++ -*-===//
///
/// \file
/// A long-running compile service: concurrent clients submit sources over
/// the length-prefixed protocol (Protocol.h) and get back values,
/// listings, remarks, or stats — the same surface s1lispc offers — while
/// a shared content-addressed CompileCache memoizes per-function
/// compilation across requests. Repeated or overlapping workloads skip
/// the middle end and link cached relocatable units into bit-identical
/// programs.
///
/// Requests ("cmd" field):
///   ping      liveness probe; answers ok=1.
///   stats     daemon-wide aggregates: the global counter registry as
///             JSON plus cache-entries/-bytes/-hits/-misses/-evictions
///             and the request count.
///   shutdown  answers ok=1, then stops the server.
///   compile   fields: source (required), options (whitespace-separated
///             s1lispc flags: -O0 -O2 --cse --no-*), jobs, entry (a
///             function to call after compiling), run ("vm" default,
///             "interp" for the oracle), engine ("threaded" default,
///             "legacy", "native"; the only way to pick one),
///             fuel, listing=1, transcript=1, remarks=1 (JSON),
///             stats=text|json, timing=1, cache=0 (bypass the memo).
///             Answers ok, error, memo-hits, memo-misses, and — as
///             requested — listing, transcript, remarks, stats, timing,
///             output, value or run-error. A jobs or fuel value that is
///             not a decimal u64 (jobs: 1 to UINT_MAX) fails the request.
///
/// Every request runs under a private TallyScope, so its counters (and
/// the stats=json report) are isolated from concurrently executing
/// requests and identical to what a fresh s1lispc process would report;
/// the tallies fold into the daemon-wide registry afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_SERVICE_SERVER_H
#define S1LISP_SERVICE_SERVER_H

#include "service/CompileCache.h"
#include "service/Protocol.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace s1lisp {
namespace service {

struct ServerOptions {
  std::string SocketPath;
  /// Worker threads accepting connections; 0 = hardware concurrency.
  unsigned Workers = 0;
  size_t CacheMaxBytes = CompileCache::DefaultMaxBytes;
  /// Simulator fuel for requests that don't set their own; 0 keeps the
  /// Machine default.
  uint64_t VmFuel = 0;
};

class Server {
public:
  explicit Server(ServerOptions Opts);

  /// Handles one request in-process (the transport-independent core; the
  /// benchmark harness and tests call it directly).
  Message handle(const Message &Req);

  /// Binds SocketPath and serves until a shutdown request (or
  /// requestStop()). Workers each accept on the shared listening socket.
  /// Returns false (with \p Err) when the socket can't be set up.
  bool serveUnixSocket(std::string *Err = nullptr);

  /// Serves frames from stdin to stdout until EOF or shutdown; returns
  /// the process exit status. Single-threaded by nature of the pipe.
  int serveStdio();

  /// Makes serveUnixSocket return; safe from any thread.
  void requestStop();

  CompileCache &cache() { return Cache; }
  uint64_t requestCount() const { return Requests.load(); }

private:
  void handleDispatch(const Message &Req, Message &Resp,
                      const stats::LocalTally &T);
  void handleCompile(const Message &Req, Message &Resp,
                     const stats::LocalTally &T);
  void handleStats(Message &Resp);
  /// Serves one accepted connection until the peer hangs up.
  void serveConnection(int Fd);

  ServerOptions Opts;
  CompileCache Cache;
  std::atomic<bool> Stopping{false};
  std::atomic<uint64_t> Requests{0};
  int ListenFd = -1;
};

} // namespace service
} // namespace s1lisp

#endif // S1LISP_SERVICE_SERVER_H
