//===- tests/driver/ParallelCompileTest.cpp -------------------------------===//
//
// The parallel per-function pipeline's contract: for any job count the
// driver produces a bit-identical program (listings, static image, symbol
// and string tables, function metadata), the same remark transcript in
// the same order, and the same optimizer counter totals.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "fuzz/Generator.h"
#include "stats/Stats.h"

#include "gtest/gtest.h"

#include <map>

using namespace s1lisp;

namespace {

/// A 100-function generated module: big enough that a 4-way fan-out
/// actually interleaves units, varied enough (closures, floats, strings
/// via the full grammar) to exercise the per-unit static pools and the
/// deterministic link.
std::string bigSource() {
  fuzz::GenOptions GO;
  GO.Helpers = 99;
  fuzz::Generator G(9100, GO);
  return G.generate().Source;
}

struct CompiledAt {
  ir::Module M;
  s1::Program P;
  stats::RemarkStream Remarks;
  std::string StatsJson;
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
}

/// SymbolAddr keys are per-module Symbol pointers; compare by name.
std::map<std::string, uint64_t> symbolAddrsByName(const s1::Program &P) {
  std::map<std::string, uint64_t> Out;
  for (const auto &[Sym, Addr] : P.SymbolAddr)
    Out[Sym->name()] = Addr;
  return Out;
}

TEST(ParallelCompile, BitIdenticalAcrossJobCounts) {
  std::string Source = bigSource();
  bool PrevEnabled = stats::enabled();
  stats::setEnabled(true);

  CompiledAt Serial;
  compileAt(Serial, Source, 1);
  if (::testing::Test::HasFatalFailure())
    return;

  for (unsigned Jobs : {2u, 4u, 8u}) {
    CompiledAt Par;
    compileAt(Par, Source, Jobs);
    if (::testing::Test::HasFatalFailure())
      break;

    // The whole program text: every function's listing, in order.
    EXPECT_EQ(driver::listing(Serial.P), driver::listing(Par.P))
        << "listings differ at jobs=" << Jobs;

    // The static data image and its symbol/string directories.
    EXPECT_EQ(Serial.P.Static, Par.P.Static) << "jobs=" << Jobs;
    EXPECT_EQ(symbolAddrsByName(Serial.P), symbolAddrsByName(Par.P))
        << "jobs=" << Jobs;
    EXPECT_EQ(Serial.P.StringAddr, Par.P.StringAddr) << "jobs=" << Jobs;

    // Function metadata, in the same order.
    ASSERT_EQ(Serial.P.Functions.size(), Par.P.Functions.size());
    for (size_t I = 0; I < Serial.P.Functions.size(); ++I) {
      const s1::AsmFunction &A = Serial.P.Functions[I];
      const s1::AsmFunction &B = Par.P.Functions[I];
      EXPECT_EQ(A.Name, B.Name) << "function " << I << " jobs=" << Jobs;
      EXPECT_EQ(A.FrameSize, B.FrameSize) << A.Name;
      EXPECT_EQ(A.MinArgs, B.MinArgs) << A.Name;
      EXPECT_EQ(A.MaxArgs, B.MaxArgs) << A.Name;
      EXPECT_EQ(A.HasRest, B.HasRest) << A.Name;
    }

    // The remark transcript arrives merged in function order, so it is
    // identical element-for-element, not just as a multiset.
    EXPECT_EQ(Serial.Remarks.Remarks, Par.Remarks.Remarks)
        << "jobs=" << Jobs;

    // Worker-local tallies fold into the same counter totals.
    EXPECT_EQ(Serial.StatsJson, Par.StatsJson) << "jobs=" << Jobs;
  }
  stats::setEnabled(PrevEnabled);
}

TEST(ParallelCompile, OversubscribedJobsStillCompile) {
  // More workers than functions: the work queue must drain cleanly.
  ir::Module M;
  driver::CompilerOptions Opts;
  Opts.Jobs = 16;
  auto R = driver::compileSource(M, "(defun solo (x) (+ x 1))", Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GE(R.Program.Functions.size(), 1u);
}

} // namespace
