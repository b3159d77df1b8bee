//===- tests/driver/ObservabilityTest.cpp ---------------------------------===//
//
// Observing a compile must not change it. Generated programs compile three
// ways: with no remark stream, with one, and with one through a fresh
// compile-service cache (a miss captures counters, and remarks because a
// stream was given; a plain miss would store none). All three must
// link the same listing and static pool and record the same counters, and
// every rewrite a counter reports must have left exactly one remark. Phase
// timing must count each phase once per function, and time reading inside
// conversion.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "fuzz/Generator.h"
#include "service/CompileCache.h"
#include "stats/Remark.h"
#include "stats/Stats.h"

#include "gtest/gtest.h"

#include <map>

using namespace s1lisp;

namespace {

struct Compiled {
  bool Ok = false;
  std::string Error;
  std::string Listing;
  std::vector<uint64_t> Static;
  /// Compiler counters only: a cache adds its own service.* traffic.
  std::vector<stats::TallyDelta> Tally;
};

Compiled compile(const std::string &Source, const driver::CompilerOptions &Opts,
                 stats::RemarkStream *Remarks, driver::FunctionMemo *Memo) {
  ir::Module M;
  stats::LocalTally T;
  driver::CompileOutcome R = [&] {
    stats::TallyScope Scope(T);
    return driver::compileSource(M, Source, Opts, Remarks, Memo);
  }();
  Compiled Out;
  Out.Ok = R.Ok;
  Out.Error = R.Error;
  Out.Listing = driver::listing(R.Program);
  Out.Static = std::move(R.Program.Static);
  for (const stats::TallyDelta &D : T.deltas())
    if (D.Name.rfind("service.", 0) != 0)
      Out.Tally.push_back(D);
  return Out;
}

uint64_t added(const std::vector<stats::TallyDelta> &Tally,
               const std::string &Name) {
  for (const stats::TallyDelta &D : Tally)
    if (D.Name == Name)
      return D.Add;
  return 0;
}

TEST(Observability, RemarksNeverChangeTheCompile) {
  size_t Remarks = 0;
  for (bool Cse : {false, true}) {
    driver::CompilerOptions Opts;
    Opts.Cse = Cse;
    for (uint32_t Seed = 1; Seed <= 200; ++Seed) {
      SCOPED_TRACE("seed " + std::to_string(Seed) + (Cse ? " --cse" : " -O2"));
      std::string Source = fuzz::Generator(Seed).generate().Source;

      Compiled Plain = compile(Source, Opts, nullptr, nullptr);
      stats::RemarkStream Log;
      Compiled Logged = compile(Source, Opts, &Log, nullptr);
      service::CompileCache Cache;
      stats::RemarkStream CachedLog;
      Compiled Cached = compile(Source, Opts, &CachedLog, &Cache);

      ASSERT_EQ(Plain.Ok, Logged.Ok);
      ASSERT_EQ(Plain.Ok, Cached.Ok);
      if (!Plain.Ok) {
        EXPECT_EQ(Plain.Error, Logged.Error);
        EXPECT_EQ(Plain.Error, Cached.Error);
        continue;
      }
      EXPECT_EQ(Plain.Listing, Logged.Listing);
      EXPECT_EQ(Plain.Listing, Cached.Listing);
      EXPECT_EQ(Plain.Static, Logged.Static);
      EXPECT_EQ(Plain.Static, Cached.Static);
      EXPECT_EQ(Plain.Tally, Logged.Tally);
      EXPECT_EQ(Plain.Tally, Cached.Tally);
      EXPECT_EQ(Log.Remarks, CachedLog.Remarks);
      EXPECT_EQ(Log.Remarks.size(),
                added(Logged.Tally, "opt.metaeval.rewrites") +
                    added(Logged.Tally, "opt.cse.hoisted"));
      Remarks += Log.Remarks.size();
    }
  }
  EXPECT_GT(Remarks, 0u) << "the corpus must exercise the optimizer";
}

TEST(Observability, PhaseTimingCountsEachPhaseOnce) {
  const std::string Source = "(defun sq (x) (* x x))\n"
                             "(defun cube (x) (* x (sq x)))\n"
                             "(defun main () (+ (cube 3) (cube 3)))\n";
  driver::CompilerOptions Opts;
  Opts.Cse = true;
  const bool OldTiming = stats::timingEnabled();
  stats::setTimingEnabled(true);
  stats::resetPhaseTimes();
  ir::Module M;
  driver::CompileOutcome R = driver::compileSource(M, Source, Opts);
  std::map<std::string, uint64_t> Runs;
  for (const stats::PhaseTime &T : stats::phaseTimes())
    Runs[T.Name] = T.Invocations;
  stats::resetPhaseTimes();
  stats::setTimingEnabled(OldTiming);

  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(Runs["frontend.convert"], 1u);
  EXPECT_EQ(Runs["opt.metaeval"], 3u);
  EXPECT_EQ(Runs["opt.cse"], 3u);
  EXPECT_EQ(Runs["codegen"], 3u);
  EXPECT_EQ(Runs["codegen.link"], 1u);
}

// Reading is a phase of its own, nested inside conversion.
TEST(Observability, ReadIsTimedInsideConvert) {
  const bool OldTiming = stats::timingEnabled();
  stats::setTimingEnabled(true);
  stats::resetPhaseTimes();
  ir::Module M;
  driver::CompileOutcome R =
      driver::compileSource(M, fuzz::Generator(7).generate().Source);
  std::map<std::string, stats::PhaseTime> Phases;
  for (const stats::PhaseTime &T : stats::phaseTimes())
    Phases[T.Name] = T;
  stats::resetPhaseTimes();
  stats::setTimingEnabled(OldTiming);

  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(Phases["frontend.read"].Invocations, 1u);
  EXPECT_EQ(Phases["frontend.convert"].Invocations, 1u);
  EXPECT_GT(Phases["frontend.read"].WallSeconds, 0.0);
  EXPECT_LE(Phases["frontend.read"].WallSeconds,
            Phases["frontend.convert"].WallSeconds);
}

} // namespace
