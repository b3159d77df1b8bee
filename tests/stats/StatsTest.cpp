//===- tests/stats/StatsTest.cpp - Observability subsystem tests ----------===//
//
// Covers the three pillars of src/stats: the self-registering counter
// registry, nested RAII phase timing, and structured remarks with their
// JSON round-trip.
//
//===----------------------------------------------------------------------===//

#include "stats/Remark.h"
#include "stats/Stats.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

using namespace s1lisp;

namespace {

/// RAII guard: enables counters/timing for a test and restores the old
/// global state (and wipes any values the test accumulated) afterwards.
struct StatsScope {
  bool OldEnabled, OldTiming;
  StatsScope() : OldEnabled(stats::enabled()), OldTiming(stats::timingEnabled()) {
    stats::setEnabled(true);
    stats::setTimingEnabled(true);
    stats::resetStats();
    stats::resetPhaseTimes();
  }
  ~StatsScope() {
    stats::resetStats();
    stats::resetPhaseTimes();
    stats::setEnabled(OldEnabled);
    stats::setTimingEnabled(OldTiming);
  }
};

TEST(Statistic, RegistersAndCounts) {
  StatsScope Scope;
  stats::Statistic Counter("test.stats.counter", "a test counter");
  ++Counter;
  Counter += 41;
  EXPECT_EQ(Counter.value(), 42u);
  EXPECT_EQ(stats::statValue("test.stats.counter"), 42u);

  bool Found = false;
  for (const stats::StatValue &SV : stats::allStats())
    if (SV.Name == "test.stats.counter") {
      Found = true;
      EXPECT_EQ(SV.Value, 42u);
      EXPECT_STREQ(SV.Desc.c_str(), "a test counter");
    }
  EXPECT_TRUE(Found);
}

TEST(Statistic, DisabledCountersAreInert) {
  StatsScope Scope;
  stats::setEnabled(false);
  stats::Statistic Counter("test.stats.gated", "gated");
  ++Counter;
  Counter += 10;
  Counter.updateMax(99);
  EXPECT_EQ(Counter.value(), 0u);
}

TEST(Statistic, UpdateMaxKeepsHighWater) {
  StatsScope Scope;
  stats::Statistic Counter("test.stats.max", "high water");
  Counter.updateMax(7);
  Counter.updateMax(3);
  EXPECT_EQ(Counter.value(), 7u);
  Counter.updateMax(11);
  EXPECT_EQ(Counter.value(), 11u);
}

TEST(Statistic, DeregistersOnDestruction) {
  StatsScope Scope;
  {
    stats::Statistic Counter("test.stats.transient", "scoped");
    ++Counter;
    EXPECT_EQ(stats::statValue("test.stats.transient"), 1u);
  }
  EXPECT_EQ(stats::statValue("test.stats.transient"), 0u);
}

// Replayed deltas resolve a name to its first-registered live counter;
// when that counter dies, the name passes to the next one, and a name
// with no live counter is dropped.
TEST(Statistic, ReplayedDeltasResolveToTheFirstLiveCounter) {
  StatsScope Scope;
  stats::Statistic Earlier("test.stats.replay", "earlier");
  {
    stats::Statistic Later("test.stats.replay", "later");
    stats::applyTallyDeltas({{"test.stats.replay", 3, 0}});
    EXPECT_EQ(Earlier.value(), 3u);
    EXPECT_EQ(Later.value(), 0u);
    EXPECT_EQ(stats::statDesc("test.stats.replay"), "earlier");
  }
  {
    auto Dies = std::make_unique<stats::Statistic>("test.stats.again", "dies");
    stats::Statistic Survives("test.stats.again", "survives");
    Dies.reset();
    stats::applyTallyDeltas({{"test.stats.again", 4, 0}});
    EXPECT_EQ(Survives.value(), 4u);
    EXPECT_EQ(stats::statDesc("test.stats.again"), "survives");
  }
  stats::applyTallyDeltas({{"test.stats.again", 5, 0}});
  EXPECT_EQ(stats::statDesc("test.stats.again"), "");
  EXPECT_EQ(stats::statValue("test.stats.again"), 0u);
}

TEST(Statistic, ReportsRenderNamesAndValues) {
  StatsScope Scope;
  stats::Statistic Counter("test.stats.report", "shown in reports");
  Counter += 5;
  std::string Text = stats::reportStats();
  EXPECT_NE(Text.find("test.stats.report"), std::string::npos);
  EXPECT_NE(Text.find("shown in reports"), std::string::npos);
  std::string Json = stats::reportStatsJson();
  EXPECT_NE(Json.find("\"test.stats.report\": 5"), std::string::npos);
}

TEST(PhaseTimer, RecordsInvocationsAndWallTime) {
  StatsScope Scope;
  for (int I = 0; I < 3; ++I) {
    stats::PhaseTimer T("test.phase.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto Times = stats::phaseTimes();
  ASSERT_EQ(Times.size(), 1u);
  EXPECT_EQ(Times[0].Name, "test.phase.outer");
  EXPECT_EQ(Times[0].Invocations, 3u);
  EXPECT_GT(Times[0].WallSeconds, 0.0);
}

TEST(PhaseTimer, NestedScopesSplitSelfTime) {
  StatsScope Scope;
  {
    stats::PhaseTimer Outer("test.phase.parent");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      stats::PhaseTimer Inner("test.phase.child");
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
  }
  double ParentWall = 0, ParentSelf = 0, ChildWall = 0;
  for (const stats::PhaseTime &PT : stats::phaseTimes()) {
    if (PT.Name == "test.phase.parent") {
      ParentWall = PT.WallSeconds;
      ParentSelf = PT.SelfWallSeconds;
    } else if (PT.Name == "test.phase.child") {
      ChildWall = PT.WallSeconds;
    }
  }
  // The parent's wall clock covers the child; its self time must not.
  EXPECT_GT(ChildWall, 0.0);
  EXPECT_GE(ParentWall, ChildWall);
  EXPECT_LT(ParentSelf, ParentWall);
  EXPECT_NEAR(ParentSelf + ChildWall, ParentWall, 1e-3);
}

TEST(PhaseTimer, DisabledTimingRecordsNothing) {
  StatsScope Scope;
  stats::setTimingEnabled(false);
  { stats::PhaseTimer T("test.phase.gated"); }
  EXPECT_TRUE(stats::phaseTimes().empty());
}

TEST(RemarkStream, TranscriptMatchesOptLogFormat) {
  stats::RemarkStream RS;
  RS.remark({"opt.metaeval", "META-IF-IDENTITY", "f", "(if t a b)", "a", ""});
  RS.remark({"opt.metaeval", "META-SUBSTITUTE", "f", "", "",
             "1 substitution for the variable x by 3"});
  EXPECT_EQ(RS.str(),
            ";**** Optimizing this form: (if t a b)\n"
            ";**** to be this form: a\n"
            ";**** courtesy of META-IF-IDENTITY\n"
            ";**** 1 substitution for the variable x by 3\n"
            ";**** courtesy of META-SUBSTITUTE\n");
  EXPECT_EQ(RS.count("META-IF-IDENTITY"), 1u);
  EXPECT_EQ(RS.count("NO-SUCH-RULE"), 0u);
}

TEST(RemarkStream, JsonRoundTrips) {
  stats::RemarkStream RS;
  RS.remark({"opt.metaeval", "META-CALL-LAMBDA", "testfn",
             "((lambda (x) x) 3)", "3", ""});
  RS.remark({"opt.cse", "META-INTRODUCE-COMMON-SUBEXPRESSION", "g", "", "",
             "2 occurrences hoisted\nwith \"quotes\" and \\backslash"});

  std::vector<stats::Remark> Parsed;
  ASSERT_TRUE(stats::parseRemarksJson(RS.json(), Parsed));
  ASSERT_EQ(Parsed.size(), 2u);
  EXPECT_EQ(Parsed[0], RS.Remarks[0]);
  EXPECT_EQ(Parsed[1], RS.Remarks[1]);
}

TEST(RemarkStream, ParserRejectsMalformedJson) {
  std::vector<stats::Remark> Parsed;
  EXPECT_FALSE(stats::parseRemarksJson("", Parsed));
  EXPECT_FALSE(stats::parseRemarksJson("[{\"phase\": }]", Parsed));
  EXPECT_FALSE(stats::parseRemarksJson("[] trailing", Parsed));
}

} // namespace
