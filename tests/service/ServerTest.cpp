//===- tests/service/ServerTest.cpp ---------------------------------------===//
//
// The transport-independent request core: Server::handle() compiles and
// runs sources, reports memo traffic, isolates each request's counters
// from concurrent requests (the TallyScope contract), serves identical
// answers warm or cold (front-cache hits and remarks requests over a
// plain fill included), and fails cleanly on malformed requests.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "driver/Compiler.h"
#include "fuzz/Generator.h"

#include "harness/DeepStack.h"

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

// The interpreter is the oracle: it runs the program as written, not the
// tree a compile optimized (which drops the dead (car x)), and a memo hit
// answers as the miss did.
TEST(Server, InterpreterRunsTheProgramAsWritten) {
  Server Srv({});
  Message Req = compileReq("(defun f (x) (progn (car x) 1))\n"
                           "(defun fut () (f 5))\n");
  Req.set("run", "interp");
  Message Cold = Srv.handle(Req);
  Message Warm = Srv.handle(Req);
  EXPECT_EQ(Warm.getOr("memo-hits"), "2");
  for (const Message &Resp : {Cold, Warm}) {
    EXPECT_EQ(Resp.getOr("ok"), "1");
    EXPECT_FALSE(Resp.has("value")) << Resp.getOr("value");
    EXPECT_EQ(Resp.getOr("run-error"), "wrong type of argument to 'car/cdr'");
  }
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

// A plain request stores its units without remarks. The same source
// asking for a transcript, remarks, a listing and stats then answers
// exactly as a request that bypasses the cache, and counts every function
// as a hit.
TEST(Server, TranscriptAfterPlainFillMatchesUncached) {
  fuzz::GenOptions GO;
  GO.Helpers = 6;
  fuzz::GeneratedProgram P = fuzz::Generator(4242, GO).generate();
  Message Plain = compileReq(P.Source);
  Plain.set("entry", P.Entry);
  Message Full = Plain;
  Full.set("transcript", "1");
  Full.set("remarks", "1");
  Full.set("listing", "1");
  Full.set("stats", "json");
  Message Uncached = Full;
  Uncached.set("cache", "0");

  Server Srv({});
  Message Fill = Srv.handle(Plain);
  ASSERT_EQ(Fill.getOr("ok"), "1") << Fill.getOr("error");
  Message Resp = Srv.handle(Full);
  Message Want = Srv.handle(Uncached);
  ASSERT_EQ(Resp.getOr("ok"), "1") << Resp.getOr("error");
  EXPECT_FALSE(Want.getOr("transcript").empty());
  EXPECT_EQ(Resp.getOr("memo-hits"), Fill.getOr("memo-misses"));
  EXPECT_EQ(Resp.getOr("memo-misses"), "0");

  auto WithoutMemo = [](const Message &M) {
    Message Out;
    for (const auto &[K, V] : M.Fields)
      if (K != "memo-hits" && K != "memo-misses")
        Out.set(K, V);
    return Out.Fields;
  };
  EXPECT_EQ(WithoutMemo(Resp), WithoutMemo(Want));
}

// A request picks its engine in the "engine" key. An engine is an
// execution preference, not a compilation input: it is not part of the
// memo fingerprint, so every engine shares cache entries and is served
// byte-identical compile output (listing included) and the same run
// value. The options field carries compiler flags only.
TEST(Server, EngineRowsShareCacheAndServeIdenticalBytes) {
  Server Srv({});
  Message Base = compileReq(ExptSrc);
  Base.set("listing", "1");

  Message Cold = Srv.handle(Base);
  ASSERT_EQ(Cold.getOr("ok"), "1");
  ASSERT_EQ(Cold.getOr("memo-misses"), "2");
  ASSERT_EQ(Cold.getOr("value"), "1024");

  for (const char *Eng : {"legacy", "threaded", "native"}) {
    Message Req = compileReq(ExptSrc);
    Req.set("listing", "1");
    Req.set("engine", Eng);
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
  Message Resp = Srv.handle(BadEngineOpt);
  EXPECT_EQ(Resp.getOr("ok"), "0");
  EXPECT_EQ(Resp.getOr("error"), "unknown compiler option '--engine=abacus'");
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

  // Malformed numeric fields fail the request instead of being ignored
  // or wrapped: 2^64 + 1 and 2^32 must not pass as 1 and 0.
  for (const char *Jobs : {"zero", "", "-1", "18446744073709551617",
                           "4294967296"}) {
    Message BadJobs = compileReq(ExptSrc);
    BadJobs.set("jobs", Jobs);
    Resp = Srv.handle(BadJobs);
    EXPECT_EQ(Resp.getOr("ok"), "0") << "jobs=" << Jobs;
    EXPECT_EQ(Resp.getOr("error"), "bad jobs value") << "jobs=" << Jobs;
  }
  for (const char *Fuel : {"abc", "-1", "", "18446744073709551616", "1e6"}) {
    Message BadFuel = compileReq(ExptSrc);
    BadFuel.set("fuel", Fuel);
    Resp = Srv.handle(BadFuel);
    EXPECT_EQ(Resp.getOr("ok"), "0") << "fuel=" << Fuel;
    EXPECT_EQ(Resp.getOr("error"), "bad fuel value") << "fuel=" << Fuel;
    EXPECT_FALSE(Resp.has("value")) << "fuel=" << Fuel;
  }

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

/// The service workload's shape: a 60-function generated library, then
/// one entry that calls the library's.
struct Library {
  fuzz::GeneratedProgram Lib;
  Library() {
    fuzz::GenOptions GO;
    GO.Helpers = 59;
    Lib = fuzz::Generator(7600, GO).generate();
  }
  std::string entry(const std::string &Q) const {
    return "(defun " + Q + " () (" + Lib.Entry + " 1 2 0.5))\n";
  }
  /// A full request that runs \p Q. (fullReq sets entry=fut, and a
  /// second entry field would be ignored: get() returns the first.)
  Message request(const std::string &Source, const std::string &Q) const {
    Message Req;
    Req.set("cmd", "compile");
    Req.set("source", Source + "\n" + entry(Q));
    Req.set("entry", Q);
    Req.set("options", "--cse");
    Req.set("listing", "1");
    Req.set("stats", "json");
    return Req;
  }
};

// Resending the library byte for byte reads none of it: the module holds
// no more conses than one compiled from the new entry alone.
TEST(Server, ResentLibraryReadsOnlyTheNewForm) {
  const Library L;
  driver::CompilerOptions Opts;
  Opts.Cse = true;
  CompileCache Cache;
  {
    ir::Module M;
    ASSERT_TRUE(driver::compileSource(M, L.Lib.Source + "\n" + L.entry("q1"),
                                      Opts, nullptr, &Cache)
                    .Ok);
  }
  ir::Module Warm;
  driver::CompileOutcome Out = driver::compileSource(
      Warm, L.Lib.Source + "\n" + L.entry("q2"), Opts, nullptr, &Cache);
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_EQ(Out.MemoHits, 60u);
  EXPECT_EQ(Out.MemoMisses, 1u);

  ir::Module Alone;
  ASSERT_TRUE(driver::compileSource(Alone, L.entry("q2"), Opts).Ok);
  EXPECT_GT(Alone.DataHeap.consCount(), 0u);
  EXPECT_LE(Warm.DataHeap.consCount(), Alone.DataHeap.consCount());
}

// A warm request links all 61 functions but enters two, the new entry and
// the library's fut: the threaded loop decodes only those, and the answer
// is the one an uncached compile gives, listing and stats included.
TEST(Server, WarmLibraryRequestDecodesOnlyTheFunctionsItEnters) {
  const Library L;
  Server Srv({});
  ASSERT_EQ(Srv.handle(L.request(L.Lib.Source, "q1")).getOr("ok"), "1");
  Message Req = L.request(L.Lib.Source, "q2");
  Message Warm = Srv.handle(Req);
  ASSERT_EQ(Warm.getOr("ok"), "1") << Warm.getOr("error");
  EXPECT_EQ(Warm.getOr("memo-hits"), "60");
  EXPECT_EQ(Warm.getOr("run-error"), "");
  EXPECT_NE(Warm.getOr("value"), "");
  const std::string Stats = Warm.getOr("stats");
  EXPECT_NE(Stats.find("\"codegen.functions\": 61,"), std::string::npos)
      << Stats;
  EXPECT_NE(Stats.find("\"vm.decode.functions\": 2,"), std::string::npos)
      << Stats;

  Message Uncached = Req;
  Uncached.set("cache", "0");
  Message Fresh = Server({}).handle(Uncached);
  for (const char *Key : {"ok", "value", "run-error", "output", "listing",
                          "stats"})
    EXPECT_EQ(Fresh.getOr(Key), Warm.getOr(Key)) << "field '" << Key << "'";
}

// The front key is the form's text: a whitespace-only edit of one library
// defun misses the front cache for that form alone, and its conversion
// still hits the memo, like every other library function.
TEST(Server, WhitespaceEditMissesTheFrontForThatFormOnly) {
  const Library L;
  std::string Edited = L.Lib.Source;
  size_t At = 0;
  for (int I = 0; I < 10; ++I)
    At = Edited.find("(defun ", At + 1);
  ASSERT_NE(At, std::string::npos);
  Edited.insert(At + 6, "  \n ");

  Server Srv({});
  ASSERT_EQ(Srv.handle(L.request(L.Lib.Source, "q1")).getOr("ok"), "1");
  const uint64_t Hits = Srv.cache().frontHits();
  const uint64_t Misses = Srv.cache().frontMisses();

  Message Req = L.request(Edited, "q2");
  Message Resp = Srv.handle(Req);
  ASSERT_EQ(Resp.getOr("ok"), "1") << Resp.getOr("error");
  EXPECT_EQ(Srv.cache().frontHits() - Hits, 59u);
  EXPECT_EQ(Srv.cache().frontMisses() - Misses, 2u);
  EXPECT_EQ(Resp.getOr("memo-hits"), "60");
  EXPECT_EQ(Resp.getOr("memo-misses"), "1");
  expectSameAsFresh(Req, Resp, "whitespace edit");
}

// f is a front hit and a memo miss, so it converts after the span pass has
// read the (defvar x) behind it; it must still convert before that defvar
// and bind x lexically, as a fresh server does.
TEST(Server, LateConversionDoesNotSeeALaterDefvar) {
  const std::string Source = "(defun f (x) (g)) (defvar x) (defun g () x) "
                             "(defun fut () (f 5))";
  Server Srv({});
  Message NoOpt = fullReq(Source);
  NoOpt.set("options", "-O0");
  ASSERT_EQ(Srv.handle(NoOpt).getOr("ok"), "1");

  Message Req = fullReq(Source);
  Message Resp = Srv.handle(Req);
  ASSERT_EQ(Resp.getOr("ok"), "1") << Resp.getOr("error");
  EXPECT_EQ(Srv.cache().frontHits(), 3u);
  EXPECT_EQ(Resp.getOr("memo-misses"), "3");
  EXPECT_NE(Resp.getOr("run-error"), "");
  expectSameAsFresh(Req, Resp, "default after -O0");
}

// Input the scan gives up on is read whole, so it fails with the reader's
// own error, the same with the cache as without, and nothing overflows.
TEST(Server, HostileInputFailsAlikeWithAndWithoutTheCache) {
  const unsigned Deep = 100000;
  const std::string Dotted[] = {
      "(defun fut () (and . 5))",         "(defun fut (x) (and x . 5))",
      "(defun fut () (or 1 . 5))",        "(defun fut () (+ 1 2 . 5))",
      "(defun fut () (list 1 . 2))",      "(defun fut () (progn 1 . 5))",
      "(defun fut () (let ((x . 5)) x))", "(defun fut () (setq . 5))",
      "(defun fut () (cond (t . 5)))",    "(defun fut (x) (case x (a . 5)))"};
  std::vector<std::string> Sources = {
      std::string(Deep, '(') + "x" + std::string(Deep, ')'),
      "(defun f () \"" + std::string(1u << 20, 'a')};
  for (const std::string &D : Dotted)
    Sources.push_back(std::string(ExptSrc) + D);
  for (const std::string &Source : Sources) {
    SCOPED_TRACE(Source.substr(0, 80));
    Server Srv({});
    Message Cached = compileReq(Source);
    Message Uncached = Cached;
    Uncached.set("cache", "0");
    Message Want = Srv.handle(Uncached);
    Message Got = Srv.handle(Cached);
    EXPECT_EQ(Want.getOr("ok"), "0");
    EXPECT_EQ(Got.getOr("ok"), "0");
    EXPECT_NE(Got.getOr("error"), "");
    EXPECT_EQ(Got.getOr("error"), Want.getOr("error"));
    // The server survives: the next request on it succeeds.
    Message Next = Srv.handle(compileReq(ExptSrc));
    EXPECT_EQ(Next.getOr("ok"), "1") << Next.getOr("error");
    EXPECT_EQ(Next.getOr("value"), "1024");
  }
}

TEST(Server, DeepExpansionsFailWithTheReadersError) {
  // A let* of 5,000 bindings and a cond of 5,000 clauses read in a few
  // levels but convert to trees 5,000 deep. The compile stops with the
  // reader's error before any recursive phase walks them, and the server
  // serves the next request, on a daemon worker's 8 MB stack.
  std::string LetStar = "(defun fut () (let* ((v0 0)";
  std::string Cond = "(defun fut () (cond";
  for (unsigned I = 1; I <= 5000; ++I) {
    LetStar += " (v" + std::to_string(I) + " (+ v" + std::to_string(I - 1) + " 1))";
    Cond += " ((= " + std::to_string(I) + " 0) " + std::to_string(I) + ")";
  }
  LetStar += ") v5000))";
  Cond += "))";
  Server Srv({});
  deepstack::run([&] {
    for (const std::string &Source : {LetStar, Cond}) {
      SCOPED_TRACE(Source.substr(0, 40));
      Message Resp = Srv.handle(compileReq(Source));
      EXPECT_EQ(Resp.getOr("ok"), "0");
      EXPECT_NE(Resp.getOr("error").find("expression nesting too deep"),
                std::string::npos)
          << Resp.getOr("error");
      Message Next = Srv.handle(compileReq(ExptSrc));
      EXPECT_EQ(Next.getOr("ok"), "1") << Next.getOr("error");
      EXPECT_EQ(Next.getOr("value"), "1024");
    }
  });
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
