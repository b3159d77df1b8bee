//===- tools/s1lispd.cpp - The S1LISP compile-service daemon --------------===//
//
// A long-running compile server: accepts concurrent compile/run requests
// over the length-prefixed protocol on a unix socket (or stdin/stdout
// with --stdio), dispatches them on a worker pool, and memoizes
// per-function compilation in a content-addressed cache so repeated and
// overlapping workloads skip the middle end. Clients: s1lispc
// --server=SOCKET, s1lisp-fuzz --server=SOCKET, or anything speaking
// service/Protocol.h.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

using namespace s1lisp;

namespace {

const char *UsageText =
    "usage: s1lispd --socket=PATH [options]\n"
    "       s1lispd --stdio [options]\n"
    "\n"
    "Runs the S1LISP compile service: clients submit sources over the\n"
    "length-prefixed protocol and receive values, listings, remarks, or\n"
    "stats (the s1lispc surface); per-function compilation is memoized\n"
    "in a content-addressed cache shared across requests. Run requests\n"
    "pick their simulator dispatch engine per request in the \"engine\"\n"
    "key (legacy, threaded or native); compiled output is\n"
    "byte-identical across engines, so cache entries are shared.\n"
    "\n"
    "  --socket=PATH       listen on a unix-domain socket at PATH\n"
    "  --stdio             serve frames from stdin to stdout instead\n"
    "                      (single request stream; for tests and pipes)\n"
    "  --workers=N         accept-loop worker threads (default: hardware\n"
    "                      concurrency)\n"
    "  --cache-max-mb=N    compilation-cache byte budget (default 256)\n"
    "  --fuel=N            default simulator fuel for run requests that\n"
    "                      don't set their own (0 = simulator default)\n"
    "  --help              this text\n";

bool startsWith(const char *Arg, const char *Prefix) {
  return std::strncmp(Arg, Prefix, std::strlen(Prefix)) == 0;
}

} // namespace

int main(int Argc, char **Argv) {
  service::ServerOptions Opts;
  bool Stdio = false;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    uint64_t N = 0;
    if (std::strcmp(A, "--help") == 0 || std::strcmp(A, "-h") == 0) {
      fputs(UsageText, stdout);
      return 0;
    } else if (startsWith(A, "--socket=")) {
      Opts.SocketPath = A + 9;
    } else if (std::strcmp(A, "--stdio") == 0) {
      Stdio = true;
    } else if (startsWith(A, "--workers=") && service::parseU64(A + 10, N) &&
               N <= std::numeric_limits<unsigned>::max()) {
      Opts.Workers = static_cast<unsigned>(N);
    } else if (startsWith(A, "--cache-max-mb=") &&
               service::parseU64(A + 15, N) &&
               N <= std::numeric_limits<size_t>::max() >> 20) {
      Opts.CacheMaxBytes = static_cast<size_t>(N) << 20;
    } else if (startsWith(A, "--fuel=") && service::parseU64(A + 7, N)) {
      Opts.VmFuel = N;
    } else {
      fprintf(stderr, "s1lispd: unknown option '%s' (try --help)\n", A);
      return 2;
    }
  }
  if (Stdio != Opts.SocketPath.empty()) {
    fprintf(stderr, "s1lispd: need exactly one of --socket=PATH or --stdio\n");
    return 2;
  }

  service::Server Srv(Opts);
  if (Stdio)
    return Srv.serveStdio();
  std::string Err;
  if (!Srv.serveUnixSocket(&Err)) {
    fprintf(stderr, "s1lispd: %s\n", Err.c_str());
    return 1;
  }
  return 0;
}
