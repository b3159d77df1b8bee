//===- tests/driver/ParallelDeterminismTest.cpp ---------------------------===//
//
// Determinism under contention: the sharded symbol table, thread-affine
// heap regions, and lock-free tallies must not leak worker scheduling
// into the output. An intern-heavy module (remark back-translation
// interns on every worker; constant folding allocates ratios and conses
// from the shared module heap) compiles repeatedly at jobs 1/2/4/8 and
// must produce identical programs, listings, symbol address assignments,
// remark transcripts, and counter totals every time. A second suite
// checks that none of this perturbs the memo's keys: a memo populated by
// a parallel compile must serve a 100% hit rate to a serial recompile of
// the same source, and vice versa.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "frontend/Convert.h"
#include "fuzz/Generator.h"
#include "stats/Stats.h"

#include "gtest/gtest.h"

#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

using namespace s1lisp;

namespace {

/// A generated 40-function module plus hand-built functions that lean on
/// the contended paths: every worker interns fresh distinct names (per-
/// function parameter names surface in remark back-translation) and the
/// constant folder allocates ratios/conses from the shared module heap.
std::string internHeavySource() {
  fuzz::GenOptions GO;
  GO.Helpers = 39;
  fuzz::Generator G(4242, GO);
  std::string Src = G.generate().Source;
  for (int I = 1; I <= 24; ++I) {
    std::string N = std::to_string(I);
    Src += "\n(defun contend-" + N + " (alpha-" + N + " beta-" + N + ")"
           "  (+ (* (/ 1 3) (/ " + N + " 7))"
           "     (+ (* alpha-" + N + " (/ " + N + " 9))"
           "        (* beta-" + N + " (/ 2 " + N + ")))))";
  }
  return Src;
}

struct CompiledAt {
  ir::Module M;
  s1::Program P;
  stats::RemarkStream Remarks;
  std::string StatsJson;
  size_t SymCount = 0;
};

void compileAt(CompiledAt &Out, const std::string &Source, unsigned Jobs) {
  driver::CompilerOptions Opts;
  Opts.Cse = true;
  Opts.Jobs = Jobs;
  stats::resetStats();
  driver::CompileOutcome R =
      driver::compileSource(Out.M, Source, Opts, &Out.Remarks);
  ASSERT_TRUE(R.Ok) << R.Error;
  Out.P = std::move(R.Program);
  Out.StatsJson = stats::reportStatsJson();
  Out.SymCount = Out.M.Syms.size();
}

/// SymbolAddr keys are per-module Symbol pointers; compare by name.
std::map<std::string, uint64_t> symbolAddrsByName(const s1::Program &P) {
  std::map<std::string, uint64_t> Out;
  for (const auto &[Sym, Addr] : P.SymbolAddr)
    Out[Sym->name()] = Addr;
  return Out;
}

TEST(ParallelDeterminism, ContendedCompilesAreBitIdentical) {
  std::string Source = internHeavySource();
  bool PrevEnabled = stats::enabled();
  stats::setEnabled(true);

  CompiledAt Serial;
  compileAt(Serial, Source, 1);
  if (::testing::Test::HasFatalFailure())
    return;
  std::string SerialListing = driver::listing(Serial.P);
  auto SerialSyms = symbolAddrsByName(Serial.P);

  // Repeated runs at each job count: one lucky schedule proves nothing.
  for (unsigned Rep = 0; Rep < 3; ++Rep) {
    for (unsigned Jobs : {2u, 4u, 8u}) {
      CompiledAt Par;
      compileAt(Par, Source, Jobs);
      if (::testing::Test::HasFatalFailure())
        return;
      EXPECT_EQ(SerialListing, driver::listing(Par.P))
          << "listing differs, jobs=" << Jobs << " rep=" << Rep;
      EXPECT_EQ(Serial.P.Static, Par.P.Static)
          << "static image differs, jobs=" << Jobs << " rep=" << Rep;
      EXPECT_EQ(SerialSyms, symbolAddrsByName(Par.P))
          << "symbol address assignment differs, jobs=" << Jobs
          << " rep=" << Rep;
      EXPECT_EQ(Serial.P.StringAddr, Par.P.StringAddr)
          << "jobs=" << Jobs << " rep=" << Rep;
      EXPECT_EQ(Serial.Remarks.Remarks, Par.Remarks.Remarks)
          << "remark transcript differs, jobs=" << Jobs << " rep=" << Rep;
      EXPECT_EQ(Serial.StatsJson, Par.StatsJson)
          << "counter totals differ, jobs=" << Jobs << " rep=" << Rep;
      // The workers fold constants concurrently, each applying the
      // interpreter's shared definitions of the primitives.
      if (Jobs == 4) {
        EXPECT_GT(stats::statValue("opt.fold.folded"), 0u) << "rep=" << Rep;
      }
      // The set of names interned (frontend + optimizer rewrites +
      // link) is schedule-invariant, whatever shard each landed in.
      EXPECT_EQ(Serial.SymCount, Par.SymCount)
          << "interned symbol population differs, jobs=" << Jobs
          << " rep=" << Rep;
    }
  }
  stats::setEnabled(PrevEnabled);
}

/// Minimal thread-safe FunctionMemo over a plain map.
class MapMemo : public driver::FunctionMemo {
public:
  std::shared_ptr<const driver::MemoizedFunction> lookup(uint64_t Key) override {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Map.find(Key);
    return It == Map.end() ? nullptr : It->second;
  }
  void insert(uint64_t Key,
              std::shared_ptr<const driver::MemoizedFunction> Fn) override {
    std::lock_guard<std::mutex> Lock(Mu);
    Map.emplace(Key, std::move(Fn));
  }

private:
  std::mutex Mu;
  std::unordered_map<uint64_t, std::shared_ptr<const driver::MemoizedFunction>>
      Map;
};

TEST(ParallelDeterminism, ShardedInterningKeepsMemoHitRate) {
  const std::string Source = internHeavySource();
  ir::Module Base;
  DiagEngine Diags;
  ASSERT_TRUE(frontend::convertSource(Base, Source, Diags)) << Diags.str();
  const unsigned N = static_cast<unsigned>(Base.functions().size());

  driver::CompilerOptions Opts;
  Opts.Cse = true;
  MapMemo Memo;

  // Populate the memo from a parallel compile: the memo misses compile
  // on 8 workers, interning into the sharded table as they go.
  ir::Module Warm;
  Opts.Jobs = 8;
  driver::CompileOutcome First =
      driver::compileSource(Warm, Source, Opts, nullptr, &Memo);
  ASSERT_TRUE(First.Ok) << First.Error;
  EXPECT_EQ(First.MemoMisses, N);
  EXPECT_EQ(First.MemoHits, 0u);

  // A serial recompile into a fresh module (fresh symbol pointers, fresh
  // heap) must hit on every function: memo keys depend only on source
  // text, options and names, never on shard or schedule.
  ir::Module Cold;
  Opts.Jobs = 1;
  driver::CompileOutcome Second =
      driver::compileSource(Cold, Source, Opts, nullptr, &Memo);
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_EQ(Second.MemoHits, N);
  EXPECT_EQ(Second.MemoMisses, 0u);
  EXPECT_EQ(driver::listing(First.Program), driver::listing(Second.Program));

  // And back up to 8 jobs against the warm memo: still all hits.
  ir::Module Again;
  Opts.Jobs = 8;
  driver::CompileOutcome Third =
      driver::compileSource(Again, Source, Opts, nullptr, &Memo);
  ASSERT_TRUE(Third.Ok) << Third.Error;
  EXPECT_EQ(Third.MemoHits, N);
  EXPECT_EQ(Third.MemoMisses, 0u);
  EXPECT_EQ(driver::listing(First.Program), driver::listing(Third.Program));
}

} // namespace
