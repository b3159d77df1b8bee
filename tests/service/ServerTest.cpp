//===- tests/service/ServerTest.cpp ---------------------------------------===//
//
// The transport-independent request core: Server::handle() compiles and
// runs sources, reports memo traffic, isolates each request's counters
// from concurrent requests (the TallyScope contract), serves identical
// answers warm or cold (front-cache hits included), and fails cleanly on
// malformed requests.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "fuzz/Generator.h"

#include "gtest/gtest.h"

#include <string>
#include <thread>
#include <vector>

using namespace s1lisp;
using namespace s1lisp::service;

namespace {

const char *ExptSrc = "(defun exptl (b n)\n"
                      "  (if (zerop n) 1 (* b (exptl b (1- n)))))\n"
                      "(defun fut () (exptl 2 10))\n";

const char *TriSrc = "(defun tri (n)\n"
                     "  (if (zerop n) 0 (+ n (tri (1- n)))))\n"
                     "(defun fut () (tri 100))\n";

Message compileReq(const std::string &Source) {
  Message Req;
  Req.set("cmd", "compile");
  Req.set("source", Source);
  Req.set("entry", "fut");
  return Req;
}

TEST(Server, PingAndUnknownCmd) {
  Server Srv({});
  Message Ping;
  Ping.set("cmd", "ping");
  EXPECT_EQ(Srv.handle(Ping).getOr("ok"), "1");

  Message Bogus;
  Bogus.set("cmd", "frobnicate");
  Message Resp = Srv.handle(Bogus);
  EXPECT_EQ(Resp.getOr("ok"), "0");
  EXPECT_NE(Resp.getOr("error").find("frobnicate"), std::string::npos);
  EXPECT_EQ(Srv.requestCount(), 2u);
}

TEST(Server, CompileRunAndMemoTraffic) {
  Server Srv({});
  Message Resp = Srv.handle(compileReq(ExptSrc));
  EXPECT_EQ(Resp.getOr("ok"), "1");
  EXPECT_EQ(Resp.getOr("value"), "1024");
  EXPECT_EQ(Resp.getOr("memo-hits"), "0");
  EXPECT_EQ(Resp.getOr("memo-misses"), "2");

  // The repeat is served from the cache, same value.
  Message Again = Srv.handle(compileReq(ExptSrc));
  EXPECT_EQ(Again.getOr("ok"), "1");
  EXPECT_EQ(Again.getOr("value"), "1024");
  EXPECT_EQ(Again.getOr("memo-hits"), "2");
  EXPECT_EQ(Again.getOr("memo-misses"), "0");
  EXPECT_EQ(Srv.cache().entries(), 2u);
}

TEST(Server, WarmResponsesMatchColdByteForByte) {
  Server Srv({});
  Message Req = compileReq(ExptSrc);
  Req.set("listing", "1");
  Req.set("transcript", "1");
  Req.set("remarks", "1");
  Req.set("stats", "json");

  Message Cold = Srv.handle(Req);
  ASSERT_EQ(Cold.getOr("ok"), "1");
  EXPECT_FALSE(Cold.getOr("listing").empty());
  EXPECT_FALSE(Cold.getOr("stats").empty());

  Message Warm = Srv.handle(Req);
  ASSERT_EQ(Warm.getOr("ok"), "1");
  EXPECT_EQ(Warm.getOr("memo-misses"), "0");
  for (const char *Key : {"value", "listing", "transcript", "remarks", "stats"})
    EXPECT_EQ(Cold.getOr(Key), Warm.getOr(Key)) << "field '" << Key << "'";
}

TEST(Server, InterpreterOracleRun) {
  Server Srv({});
  Message Req = compileReq(ExptSrc);
  Req.set("run", "interp");
  Message Resp = Srv.handle(Req);
  EXPECT_EQ(Resp.getOr("ok"), "1");
  EXPECT_EQ(Resp.getOr("value"), "1024");
}

TEST(Server, CacheBypassLeavesTheCacheCold) {
  Server Srv({});
  Message Req = compileReq(ExptSrc);
  Req.set("cache", "0");
  Message Resp = Srv.handle(Req);
  EXPECT_EQ(Resp.getOr("ok"), "1");
  EXPECT_EQ(Resp.getOr("value"), "1024");
  EXPECT_EQ(Resp.getOr("memo-hits"), "0");
  EXPECT_EQ(Resp.getOr("memo-misses"), "0");
  EXPECT_EQ(Srv.cache().entries(), 0u);
}

TEST(Server, CompilerOptionsChangeTheMemoKey) {
  Server Srv({});
  Message Req = compileReq(ExptSrc);
  ASSERT_EQ(Srv.handle(Req).getOr("ok"), "1");

  Message NoOpt = compileReq(ExptSrc);
  NoOpt.set("options", "-O0");
  Message Resp = Srv.handle(NoOpt);
  EXPECT_EQ(Resp.getOr("ok"), "1");
  EXPECT_EQ(Resp.getOr("value"), "1024");
  EXPECT_EQ(Resp.getOr("memo-hits"), "0");
  EXPECT_EQ(Resp.getOr("memo-misses"), "2");
}

// The per-request engine choice rides the options field through the
// shared driver flag table. An engine is an execution preference, not a
// compilation input: it is excluded from the memo fingerprint, so every
// engine shares cache entries and is served byte-identical compile
// output (listing included) and the same run value.
TEST(Server, EngineRowsShareCacheAndServeIdenticalBytes) {
  Server Srv({});
  Message Base = compileReq(ExptSrc);
  Base.set("listing", "1");

  Message Cold = Srv.handle(Base);
  ASSERT_EQ(Cold.getOr("ok"), "1");
  ASSERT_EQ(Cold.getOr("memo-misses"), "2");
  ASSERT_EQ(Cold.getOr("value"), "1024");

  for (const char *Eng :
       {"--engine=legacy", "--engine=threaded", "--engine=native"}) {
    Message Req = compileReq(ExptSrc);
    Req.set("listing", "1");
    Req.set("options", Eng);
    Message Resp = Srv.handle(Req);
    ASSERT_EQ(Resp.getOr("ok"), "1") << Eng;
    // Same fingerprint as the engine-less cold request: pure cache hits.
    EXPECT_EQ(Resp.getOr("memo-hits"), "2") << Eng;
    EXPECT_EQ(Resp.getOr("memo-misses"), "0") << Eng;
    EXPECT_EQ(Resp.getOr("listing"), Cold.getOr("listing")) << Eng;
    EXPECT_EQ(Resp.getOr("value"), Cold.getOr("value")) << Eng;
  }

  Message BadEngineOpt = compileReq(ExptSrc);
  BadEngineOpt.set("options", "--engine=abacus");
  EXPECT_EQ(Srv.handle(BadEngineOpt).getOr("ok"), "0");
}

TEST(Server, ErrorPaths) {
  Server Srv({});

  Message NoSource;
  NoSource.set("cmd", "compile");
  Message Resp = Srv.handle(NoSource);
  EXPECT_EQ(Resp.getOr("ok"), "0");
  EXPECT_NE(Resp.getOr("error").find("source"), std::string::npos);

  Message BadOpt = compileReq(ExptSrc);
  BadOpt.set("options", "--definitely-not-a-pass");
  Resp = Srv.handle(BadOpt);
  EXPECT_EQ(Resp.getOr("ok"), "0");
  EXPECT_NE(Resp.getOr("error").find("--definitely-not-a-pass"),
            std::string::npos);

  Message BadJobs = compileReq(ExptSrc);
  BadJobs.set("jobs", "zero");
  EXPECT_EQ(Srv.handle(BadJobs).getOr("ok"), "0");

  Message BadEngine = compileReq(ExptSrc);
  BadEngine.set("engine", "abacus");
  EXPECT_EQ(Srv.handle(BadEngine).getOr("ok"), "0");

  // A missing entry function compiles fine but reports a run error.
  Message BadEntry = compileReq(ExptSrc);
  BadEntry.Fields.clear();
  BadEntry.set("cmd", "compile");
  BadEntry.set("source", ExptSrc);
  BadEntry.set("entry", "nope");
  Resp = Srv.handle(BadEntry);
  EXPECT_EQ(Resp.getOr("ok"), "1");
  EXPECT_FALSE(Resp.has("value"));
  EXPECT_NE(Resp.getOr("run-error").find("nope"), std::string::npos);

  Message BadSyntax;
  BadSyntax.set("cmd", "compile");
  BadSyntax.set("source", "(defun oops (x");
  EXPECT_EQ(Srv.handle(BadSyntax).getOr("ok"), "0");
}

TEST(Server, StatsCmdReportsCacheAndTraffic) {
  Server Srv({});
  ASSERT_EQ(Srv.handle(compileReq(ExptSrc)).getOr("ok"), "1");

  Message Req;
  Req.set("cmd", "stats");
  Message Resp = Srv.handle(Req);
  EXPECT_EQ(Resp.getOr("ok"), "1");
  EXPECT_EQ(Resp.getOr("cache-entries"), "2");
  EXPECT_EQ(Resp.getOr("cache-misses"), "2");
  EXPECT_EQ(Resp.getOr("requests"), "1"); // count precedes this request
  EXPECT_TRUE(Resp.has("stats"));
  EXPECT_NE(Resp.getOr("stats").find("\"service.front.misses\""),
            std::string::npos);
}

/// The response fields a front hit must leave byte-identical to a fresh
/// server's answer.
void expectSameAsFresh(const Message &Req, const Message &Resp,
                       const std::string &What) {
  Server Fresh({});
  Message Want = Fresh.handle(Req);
  for (const char *Key :
       {"ok", "error", "value", "run-error", "listing", "stats"})
    EXPECT_EQ(Resp.getOr(Key), Want.getOr(Key))
        << What << ": field '" << Key << "'";
}

Message fullReq(const std::string &Source) {
  Message Req = compileReq(Source);
  Req.set("listing", "1");
  Req.set("stats", "json");
  return Req;
}

// f's datum is the same in both modules, but with (defvar x) before it
// f binds x dynamically, and g sees the binding; without it x is lexical
// and g reads an unbound global. The specials proclaimed before a defun
// are part of its front key, so neither order reuses the other's f.
TEST(Server, FrontKeyIncludesProclaimedSpecials) {
  const std::string Special = "(defvar x)\n"
                              "(defun g () x)\n"
                              "(defun f (x) (g))\n"
                              "(defun fut () (f 5))\n";
  const std::string Lexical = "(defun g () x)\n"
                              "(defun f (x) (g))\n"
                              "(defun fut () (f 5))\n";
  for (const auto &Order : {std::vector<std::string>{Special, Lexical},
                            std::vector<std::string>{Lexical, Special}}) {
    Server Srv({});
    for (const std::string &Source : Order) {
      Message Req = fullReq(Source);
      Message Resp = Srv.handle(Req);
      ASSERT_EQ(Resp.getOr("ok"), "1") << Resp.getOr("error");
      expectSameAsFresh(Req, Resp, Source);
    }
    EXPECT_EQ(Srv.cache().frontHits(), 0u);
  }
}

// The same module at -O0 and then at the default options: every defun
// hits the front cache (conversion does not read options) and misses the
// memo, so each must still be converted, and counted, exactly once.
TEST(Server, FrontHitWithMemoMissConverts) {
  Server Srv({});
  Message NoOpt = fullReq(ExptSrc);
  NoOpt.set("options", "-O0");
  ASSERT_EQ(Srv.handle(NoOpt).getOr("ok"), "1");
  ASSERT_EQ(Srv.cache().frontHits(), 0u);

  Message Req = fullReq(ExptSrc);
  Message Resp = Srv.handle(Req);
  ASSERT_EQ(Resp.getOr("ok"), "1") << Resp.getOr("error");
  EXPECT_EQ(Srv.cache().frontHits(), 2u);
  EXPECT_EQ(Resp.getOr("memo-hits"), "0");
  EXPECT_EQ(Resp.getOr("memo-misses"), "2");
  EXPECT_EQ(Resp.getOr("value"), "1024");
  expectSameAsFresh(Req, Resp, "default after -O0");
}

// The service shape: a library plus a request-specific entry. The second
// request converts only its new entry; the library's forms go from the
// reader to memo hits, replaying the counters their conversion recorded.
TEST(Server, WarmLibrarySkipsConversion) {
  fuzz::GenOptions GO;
  GO.Helpers = 11;
  fuzz::GeneratedProgram Lib = fuzz::Generator(7600, GO).generate();
  const unsigned N = GO.Helpers + 2; // helpers, the library entry, q
  auto Module = [&](const std::string &Q, const std::string &Args) {
    Message Req = fullReq(Lib.Source + "\n(defun " + Q + " () (" + Lib.Entry +
                          " " + Args + "))\n");
    Req.set("entry", Q);
    Req.set("options", "--cse");
    return Req;
  };

  Server Srv({});
  ASSERT_EQ(Srv.handle(Module("q1", "1 2 0.5")).getOr("ok"), "1");
  const uint64_t Hits = Srv.cache().frontHits();
  const uint64_t Misses = Srv.cache().frontMisses();

  Message Req = Module("q2", "-3 4 2.25");
  Message Resp = Srv.handle(Req);
  ASSERT_EQ(Resp.getOr("ok"), "1") << Resp.getOr("error");
  EXPECT_EQ(Srv.cache().frontHits() - Hits, N - 1);
  EXPECT_EQ(Srv.cache().frontMisses() - Misses, 1u);
  EXPECT_EQ(Resp.getOr("memo-hits"), std::to_string(N - 1));
  EXPECT_EQ(Resp.getOr("memo-misses"), "1");
  expectSameAsFresh(Req, Resp, "warm library");
}

// An interpreter run needs every function's tree, even when the front
// cache has seen every form.
TEST(Server, InterpRunAfterWarmVmRequests) {
  Server Srv({});
  ASSERT_EQ(Srv.handle(compileReq(ExptSrc)).getOr("value"), "1024");
  ASSERT_EQ(Srv.handle(compileReq(ExptSrc)).getOr("value"), "1024");
  ASSERT_EQ(Srv.cache().frontHits(), 2u);

  Message Req = compileReq(ExptSrc);
  Req.set("run", "interp");
  Message Resp = Srv.handle(Req);
  EXPECT_EQ(Resp.getOr("ok"), "1");
  EXPECT_EQ(Resp.getOr("value"), "1024");
  EXPECT_EQ(Resp.getOr("memo-hits"), "2");
}

// A failed conversion answers exactly as without the front cache, and
// reports no memo traffic, even when earlier forms hit. w converts with a
// warning, so it is never remembered: the failed request's diagnostics
// still carry that warning.
TEST(Server, ConvertErrorAfterFrontHitsMatchesFresh) {
  const std::string Lib = std::string(ExptSrc) + "(defun w () zz)\n";
  Server Srv({});
  ASSERT_EQ(Srv.handle(compileReq(Lib)).getOr("ok"), "1");
  Message Req = compileReq(Lib + "(defun bad (y) (let ((1 2)) y))\n");
  Message Resp = Srv.handle(Req);
  EXPECT_EQ(Resp.getOr("ok"), "0");
  EXPECT_EQ(Resp.getOr("memo-hits"), "0");
  EXPECT_EQ(Resp.getOr("memo-misses"), "0");
  EXPECT_EQ(Srv.cache().frontHits(), 2u);
  EXPECT_NE(Resp.getOr("error").find("'zz'"), std::string::npos);
  Message Want = Server({}).handle(Req);
  EXPECT_EQ(Resp.getOr("error"), Want.getOr("error"));
}

TEST(Server, ShutdownCmdAcknowledges) {
  Server Srv({});
  Message Req;
  Req.set("cmd", "shutdown");
  EXPECT_EQ(Srv.handle(Req).getOr("ok"), "1");
}

// The satellite regression: two clients interleaving different workloads
// must each see exactly the counters a solo run of their request reports
// — no bleed-through between concurrently executing requests.
TEST(Server, InterleavedRequestsKeepStatsIsolated) {
  Message ReqA = compileReq(ExptSrc);
  ReqA.set("stats", "json");
  Message ReqB = compileReq(TriSrc);
  ReqB.set("stats", "json");

  // Solo baselines from private servers.
  std::string SoloA, SoloB, ValueA, ValueB;
  {
    Server Solo({});
    Message R = Solo.handle(ReqA);
    ASSERT_EQ(R.getOr("ok"), "1");
    SoloA = R.getOr("stats");
    ValueA = R.getOr("value");
  }
  {
    Server Solo({});
    Message R = Solo.handle(ReqB);
    ASSERT_EQ(R.getOr("ok"), "1");
    SoloB = R.getOr("stats");
    ValueB = R.getOr("value");
  }
  ASSERT_FALSE(SoloA.empty());
  ASSERT_NE(SoloA, SoloB) << "workloads too similar to detect bleed-through";

  Server Shared({});
  constexpr int Iterations = 25;
  std::vector<std::string> BadA, BadB;
  std::thread ThreadA([&] {
    for (int I = 0; I < Iterations; ++I) {
      Message R = Shared.handle(ReqA);
      if (R.getOr("stats") != SoloA || R.getOr("value") != ValueA)
        BadA.push_back(R.getOr("stats"));
    }
  });
  std::thread ThreadB([&] {
    for (int I = 0; I < Iterations; ++I) {
      Message R = Shared.handle(ReqB);
      if (R.getOr("stats") != SoloB || R.getOr("value") != ValueB)
        BadB.push_back(R.getOr("stats"));
    }
  });
  ThreadA.join();
  ThreadB.join();

  EXPECT_TRUE(BadA.empty()) << BadA.size() << " polluted responses, first:\n"
                            << BadA.front() << "\nexpected:\n" << SoloA;
  EXPECT_TRUE(BadB.empty()) << BadB.size() << " polluted responses, first:\n"
                            << BadB.front() << "\nexpected:\n" << SoloB;
  EXPECT_EQ(Shared.requestCount(), 2u * Iterations);
}

} // namespace
