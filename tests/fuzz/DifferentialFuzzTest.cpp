//===- tests/fuzz/DifferentialFuzzTest.cpp --------------------------------===//
//
// The bounded tier of the differential fuzzer: a fixed block of seeds runs
// through the full ablation matrix on every ctest invocation, plus unit
// coverage of the generator's determinism and weights table, the oracle's
// error classification, and the delta-debugging reducer (demonstrated
// against a deliberately mis-flagged constant folder).
//
//===----------------------------------------------------------------------===//

#include "driver/Ablation.h"
#include "frontend/Convert.h"
#include "fuzz/Generator.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reducer.h"
#include "interp/Interp.h"
#include "sexpr/Printer.h"
#include "vm/Machine.h"

#include "gtest/gtest.h"

#include <fstream>
#include <optional>
#include <sstream>

using namespace s1lisp;

namespace {

std::string describe(const fuzz::CheckResult &R) {
  if (R.Divergences.empty())
    return "";
  const fuzz::Divergence &D = R.Divergences.front();
  std::ostringstream Out;
  Out << "config " << D.Config << " arg row " << D.ArgIndex
      << "\n  reference: " << D.Reference.Text
      << "\n  actual:    " << D.Actual.Text;
  return Out.str();
}

//===----------------------------------------------------------------------===//
// Bounded differential tier: 500 seeded programs x the full matrix.
// Batched so ctest -j spreads the seeds across cores.
//===----------------------------------------------------------------------===//

constexpr unsigned BatchSize = 25;

class DifferentialFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialFuzz, AgreesAcrossAblationMatrix) {
  fuzz::GenOptions GO; // library defaults: full grammar, floats, helpers
  fuzz::OracleOptions OO; // full ablation matrix
  // Tight fuel keeps the tier's wall clock bounded: the rare seed whose
  // loops run long exhausts fuel instead, and fuel rows are tolerated as
  // tainted by the oracle (the CLI soak keeps the roomier defaults).
  OO.InterpFuel = 200'000;
  OO.VmFuel = 2'000'000;
  for (unsigned Seed = GetParam(); Seed < GetParam() + BatchSize; ++Seed) {
    fuzz::Generator G(Seed, GO);
    fuzz::GeneratedProgram P = G.generate();
    fuzz::CheckResult R = fuzz::checkProgram(P, OO);
    ASSERT_NE(R.St, fuzz::CheckResult::Status::ConvertError)
        << "seed " << Seed << " did not convert:\n"
        << R.ConvertMessage << "\n"
        << P.Source;
    EXPECT_EQ(R.St, fuzz::CheckResult::Status::Agree)
        << "seed " << Seed << " diverged: " << describe(R) << "\n"
        << P.Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Range(1u, 501u, BatchSize));

//===----------------------------------------------------------------------===//
// Forced-GC schedules: the same generated programs re-run with a collection
// forced every N conses. A moving collector earns its keep here — any
// missed root shows up as a divergence from the GC-off baseline, and the
// heap verifier (enabled for every interpreter run below) aborts on
// structural corruption right after the faulty collection.
//===----------------------------------------------------------------------===//

/// Interpreter outcomes for every grid row of a generated program, with a
/// collection forced every GcEvery conses (0 = collector off). Each row
/// gets a fresh evaluator, mirroring the oracle's own discipline.
std::optional<std::vector<fuzz::Outcome>>
interpGrid(const fuzz::GeneratedProgram &P, uint64_t Fuel, uint64_t GcEvery) {
  ir::Module M;
  DiagEngine Diags;
  if (!frontend::convertSource(M, P.Source, Diags))
    return std::nullopt;
  std::vector<fuzz::Outcome> Out;
  for (const std::vector<sexpr::Value> &Row : P.ArgGrid) {
    interp::Interpreter I(M);
    I.setFuel(Fuel);
    if (GcEvery) {
      I.setGcEvery(GcEvery);
      I.setGcVerify(true); // verify() after every collection, abort if dirty
    }
    std::vector<interp::RtValue> Args;
    Args.reserve(Row.size());
    for (sexpr::Value V : Row)
      Args.push_back(interp::RtValue::data(V));
    interp::Interpreter::Result R = I.call(P.Entry, Args);
    Out.push_back(R.Ok ? fuzz::Outcome::value(R.Value.str())
                       : fuzz::Outcome::error(R.Error));
  }
  return Out;
}

class GcScheduleFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(GcScheduleFuzz, SchedulesAreObservationallyIdentical) {
  constexpr uint64_t InterpFuel = 100'000;
  constexpr uint64_t VmFuel = 1'000'000;
  constexpr uint64_t Schedules[] = {1, 7, 64};

  // Two configurations bound the cost of the 3-schedule re-run: the full
  // optimizer and the bare translator. The optimization-sensitive rows are
  // the 500-seed tier's job; this tier varies only the collector.
  std::vector<driver::AblationConfig> Configs;
  Configs.push_back(driver::ablationMatrix().front());
  ASSERT_EQ(Configs.front().Name, "O2");
  std::optional<driver::AblationConfig> O0 = driver::ablationByName("O0");
  ASSERT_TRUE(O0.has_value());
  Configs.push_back(*O0);

  for (unsigned Seed = GetParam(); Seed < GetParam() + BatchSize; ++Seed) {
    fuzz::Generator G(Seed);
    fuzz::GeneratedProgram P = G.generate();

    std::optional<std::vector<fuzz::Outcome>> Baseline =
        interpGrid(P, InterpFuel, /*GcEvery=*/0);
    ASSERT_TRUE(Baseline.has_value())
        << "seed " << Seed << " did not convert:\n"
        << P.Source;

    for (uint64_t N : Schedules) {
      // Cross-schedule identity: collecting every N conses must not
      // change a single observable outcome relative to the GC-off run.
      std::optional<std::vector<fuzz::Outcome>> Got =
          interpGrid(P, InterpFuel, N);
      ASSERT_TRUE(Got.has_value());
      ASSERT_EQ(Got->size(), Baseline->size());
      for (size_t Row = 0; Row < Baseline->size(); ++Row) {
        const fuzz::Outcome &Want = (*Baseline)[Row];
        const fuzz::Outcome &Have = (*Got)[Row];
        ASSERT_EQ(Have.K, Want.K)
            << "seed " << Seed << " gc-every=" << N << " row " << Row
            << "\n  baseline: " << Want.Text << "\n  actual:   " << Have.Text
            << "\n" << P.Source;
        if (Want.K == fuzz::Outcome::Kind::Value)
          EXPECT_EQ(Have.Text, Want.Text)
              << "seed " << Seed << " gc-every=" << N << " row " << Row << "\n"
              << P.Source;
        else
          EXPECT_EQ(Have.EC, Want.EC)
              << "seed " << Seed << " gc-every=" << N << " row " << Row
              << "\n  baseline: " << Want.Text << "\n  actual:   " << Have.Text
              << "\n" << P.Source;
      }

      // The interp-vs-VM differential holds at this schedule too (the VM
      // side forces its own word-heap collections every N allocations).
      fuzz::OracleOptions OO;
      OO.Configs = Configs;
      OO.InterpFuel = InterpFuel;
      OO.VmFuel = VmFuel;
      OO.GcEvery = N;
      fuzz::CheckResult R = fuzz::checkProgram(P, OO);
      EXPECT_EQ(R.St, fuzz::CheckResult::Status::Agree)
          << "seed " << Seed << " gc-every=" << N << " diverged: "
          << describe(R) << "\n"
          << P.Source;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcScheduleFuzz,
                         ::testing::Range(1u, 201u, BatchSize));

//===----------------------------------------------------------------------===//
// Generator properties
//===----------------------------------------------------------------------===//

TEST(FuzzGenerator, Deterministic) {
  for (uint32_t Seed : {1u, 7u, 1234u}) {
    fuzz::Generator A(Seed), B(Seed);
    EXPECT_EQ(A.generate().Source, B.generate().Source);
  }
  fuzz::Generator A(3), B(4);
  EXPECT_NE(A.generate().Source, B.generate().Source);
}

TEST(FuzzGenerator, ZeroWeightDisablesConstruct) {
  fuzz::GenOptions GO;
  ASSERT_TRUE(fuzz::applyWeightOverride(GO.W, "do=0,case=0,cond=0"));
  for (uint32_t Seed = 1; Seed <= 30; ++Seed) {
    fuzz::Generator G(Seed, GO);
    std::string Src = G.generate().Source;
    EXPECT_EQ(Src.find("(do "), std::string::npos) << Src;
    EXPECT_EQ(Src.find("(case "), std::string::npos) << Src;
    EXPECT_EQ(Src.find("(cond "), std::string::npos) << Src;
  }
}

TEST(FuzzGenerator, WeightOverrideParsing) {
  fuzz::GenWeights W;
  EXPECT_TRUE(fuzz::applyWeightOverride(W, "do=20"));
  EXPECT_EQ(W.Do, 20u);
  EXPECT_TRUE(fuzz::applyWeightOverride(W, "arith=1,let*=5,float=0"));
  EXPECT_EQ(W.Arith, 1u);
  EXPECT_EQ(W.LetStar, 5u);
  EXPECT_EQ(W.FloatArith, 0u);
  EXPECT_FALSE(fuzz::applyWeightOverride(W, "bogus=1"));
  EXPECT_FALSE(fuzz::applyWeightOverride(W, "do="));
  EXPECT_FALSE(fuzz::applyWeightOverride(W, "do=abc"));
}

TEST(FuzzGenerator, ProgramsConvertAndCarryGrid) {
  for (uint32_t Seed = 600; Seed < 620; ++Seed) {
    fuzz::Generator G(Seed);
    fuzz::GeneratedProgram P = G.generate();
    EXPECT_FALSE(P.ArgGrid.empty());
    ir::Module M;
    DiagEngine Diags;
    EXPECT_TRUE(frontend::convertSource(M, P.Source, Diags))
        << Diags.str() << "\n"
        << P.Source;
  }
}

//===----------------------------------------------------------------------===//
// Oracle unit behavior
//===----------------------------------------------------------------------===//

TEST(FuzzOracle, ClassifiesErrors) {
  using fuzz::ErrorClass;
  EXPECT_EQ(fuzz::classifyError("fixnum overflow (compiled fixnums are 32-bit)"),
            ErrorClass::Overflow);
  EXPECT_EQ(fuzz::classifyError("wrong type of argument to '+'"),
            ErrorClass::WrongType);
  EXPECT_EQ(fuzz::classifyError("wrong number of arguments (3)"),
            ErrorClass::WrongArgCount);
  EXPECT_EQ(fuzz::classifyError("division by zero"),
            ErrorClass::DivisionByZero);
  EXPECT_EQ(fuzz::classifyError("instruction fuel exhausted"),
            ErrorClass::Fuel);
  EXPECT_EQ(fuzz::classifyError("evaluation fuel exhausted"),
            ErrorClass::Fuel);
  EXPECT_EQ(fuzz::classifyError("function 'nope' is not defined"),
            ErrorClass::Undefined);
  EXPECT_EQ(fuzz::classifyError("stack overflow"), ErrorClass::Other);
  EXPECT_EQ(fuzz::classifyError("some novel message"), ErrorClass::Other);
}

TEST(FuzzOracle, AgreesOnHandWrittenProgram) {
  fuzz::GeneratedProgram P;
  P.Source = "(defun fut (a b) (+ (* a 3) (- b 1)))";
  P.ArgGrid = {{sexpr::Value::fixnum(2), sexpr::Value::fixnum(5)},
               {sexpr::Value::fixnum(-1), sexpr::Value::fixnum(0)}};
  fuzz::CheckResult R = fuzz::checkProgram(P);
  EXPECT_EQ(R.St, fuzz::CheckResult::Status::Agree) << describe(R);
  EXPECT_GT(R.RowsCompared, 0u);
}

TEST(FuzzOracle, WrongArgCountAgreesAsError) {
  // fut calls its helper with too many arguments; both engines must
  // report the same error class on every configuration.
  fuzz::GeneratedProgram P;
  P.Source = "(defun one (x) x)\n(defun fut (a b) (one a b))";
  P.ArgGrid = {{sexpr::Value::fixnum(1), sexpr::Value::fixnum(2)}};
  fuzz::CheckResult R = fuzz::checkProgram(P);
  EXPECT_EQ(R.St, fuzz::CheckResult::Status::Agree) << describe(R);
}

//===----------------------------------------------------------------------===//
// Reducer: find an injected miscompile, shrink it, write a runnable repro.
//===----------------------------------------------------------------------===//

TEST(FuzzReducer, CountsForms) {
  EXPECT_EQ(fuzz::countForms("(defun fut (a b) (+ 1 2))"), 3u);
  EXPECT_EQ(fuzz::countForms("x"), 0u);
  EXPECT_EQ(fuzz::countForms("(f (g (h 1)))"), 3u);
}

TEST(FuzzReducer, ShrinksInjectedFoldFault) {
  // The hidden fault knob makes every folded constant fixnum addition come
  // out off by one under O2, so interpreter and compiled results diverge.
  driver::AblationConfig Faulted = driver::ablationMatrix().front();
  ASSERT_EQ(Faulted.Name, "O2");
  Faulted.Opts.Opt.FaultConstantFold = true;

  fuzz::OracleOptions OO;
  OO.Configs = {Faulted};
  OO.CaptureStats = true;

  for (uint32_t Seed = 1; Seed <= 80; ++Seed) {
    fuzz::Generator G(Seed);
    fuzz::GeneratedProgram P = G.generate();
    fuzz::CheckResult R = fuzz::checkProgram(P, OO);
    if (R.St != fuzz::CheckResult::Status::Diverged)
      continue;

    fuzz::ReduceOptions RO;
    RO.Oracle = OO;
    auto Min = fuzz::reduceDivergence(P, R.Divergences.front(), Faulted, RO);
    ASSERT_TRUE(Min.has_value()) << "seed " << Seed << "\n" << P.Source;
    EXPECT_LE(Min->Forms, 10u) << Min->Source;
    EXPECT_EQ(fuzz::countForms(Min->Source), Min->Forms);

    std::string Path = ::testing::TempDir() + "s1lisp-fuzz-repro.lisp";
    ASSERT_TRUE(fuzz::writeRepro(Path, *Min, Seed));

    // The repro is runnable: it converts, and (main) replays the
    // divergence between the interpreter and the faulted configuration.
    std::ifstream In(Path);
    std::stringstream Buf;
    Buf << In.rdbuf();
    std::string Repro = Buf.str();
    EXPECT_NE(Repro.find("(defun main"), std::string::npos);
    EXPECT_NE(Repro.find(";; config: O2"), std::string::npos);

    ir::Module IM;
    DiagEngine Diags;
    ASSERT_TRUE(frontend::convertSource(IM, Repro, Diags)) << Diags.str();
    interp::Interpreter I(IM);
    auto RefRun = I.call("main", {});

    ir::Module CM;
    auto Compiled = driver::compileSource(CM, Repro, Faulted.Opts);
    ASSERT_TRUE(Compiled.Ok) << Compiled.Error;
    vm::Machine VM(Compiled.Program, CM.Syms, CM.DataHeap);
    auto ActRun = VM.call("main", {});

    if (Min->Final.Reference.K == fuzz::Outcome::Kind::Value &&
        Min->Final.Actual.K == fuzz::Outcome::Kind::Value) {
      ASSERT_TRUE(RefRun.Ok) << RefRun.Error;
      ASSERT_TRUE(ActRun.Ok && ActRun.Result.has_value()) << ActRun.Error;
      EXPECT_NE(RefRun.Value.str(), sexpr::toString(*ActRun.Result))
          << "repro no longer diverges:\n"
          << Repro;
    }
    return; // one demonstration is the point
  }
  FAIL() << "fault injection produced no divergence in 80 seeds";
}

TEST(FuzzReducer, DivergenceCarriesStatsDelta) {
  driver::AblationConfig Faulted = driver::ablationMatrix().front();
  Faulted.Opts.Opt.FaultConstantFold = true;
  fuzz::OracleOptions OO;
  // Two healthy configurations beside the faulted one, so a parallel
  // sweep compiles several configurations at once.
  OO.Configs = {Faulted, *driver::ablationByName("O0"),
                *driver::ablationByName("no-tail-calls")};
  OO.CaptureStats = true;
  for (uint32_t Seed = 1; Seed <= 80; ++Seed) {
    fuzz::Generator G(Seed);
    fuzz::GeneratedProgram P = G.generate();
    fuzz::CheckResult R = fuzz::checkProgram(P, OO);
    if (R.St != fuzz::CheckResult::Status::Diverged)
      continue;
    // The offending configuration's compile folded at least one constant,
    // and the delta attached to the divergence shows it.
    EXPECT_EQ(R.Divergences.front().Config, "O2");
    EXPECT_NE(R.Divergences.front().StatsJson.find("opt"), std::string::npos)
        << R.Divergences.front().StatsJson;
    // Each compile counts into its own tally: the deltas do not depend on
    // how many configurations compile at once, and cover optimize and
    // codegen only, not the configuration's own conversion.
    fuzz::OracleOptions Parallel = OO;
    Parallel.Jobs = 4;
    fuzz::CheckResult RP = fuzz::checkProgram(P, Parallel);
    ASSERT_EQ(RP.Divergences.size(), R.Divergences.size());
    for (size_t I = 0; I < R.Divergences.size(); ++I) {
      EXPECT_EQ(RP.Divergences[I].Config, R.Divergences[I].Config);
      EXPECT_EQ(RP.Divergences[I].StatsJson, R.Divergences[I].StatsJson);
      EXPECT_EQ(R.Divergences[I].StatsJson.find("frontend."),
                std::string::npos)
          << R.Divergences[I].StatsJson;
      EXPECT_EQ(RP.Divergences[I].StatsJson.find("frontend."),
                std::string::npos)
          << RP.Divergences[I].StatsJson;
    }
    return;
  }
  FAIL() << "fault injection produced no divergence in 80 seeds";
}

} // namespace
