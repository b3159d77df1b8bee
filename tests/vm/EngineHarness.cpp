//===- tests/vm/EngineHarness.cpp -----------------------------------------===//

#include "EngineHarness.h"

#include "sexpr/Printer.h"
#include "vm/Jit.h"

#include "gtest/gtest.h"

#include <sstream>
#include <utility>

using namespace s1lisp;
using namespace s1lisp::enginetest;

namespace {

/// The fields of \p Got that differ from legacy's \p Want. Only a failure
/// message: the contract itself is MachineStats::operator==.
std::string statsDiff(const vm::MachineStats &Want,
                      const vm::MachineStats &Got) {
  using S = vm::MachineStats;
  static constexpr std::pair<const char *, uint64_t S::*> Fields[] = {
      {"Instructions", &S::Instructions},
      {"Movs", &S::Movs},
      {"Calls", &S::Calls},
      {"TailCalls", &S::TailCalls},
      {"Syscalls", &S::Syscalls},
      {"HeapObjects", &S::HeapObjects},
      {"HeapWordsUsed", &S::HeapWordsUsed},
      {"StackHighWater", &S::StackHighWater},
      {"SpecialSearches", &S::SpecialSearches},
      {"SpecialSearchSteps", &S::SpecialSearchSteps},
      {"GcRuns", &S::GcRuns},
      {"GcWordsReclaimed", &S::GcWordsReclaimed},
  };
  std::ostringstream Out;
  for (auto [Name, Field] : Fields)
    if (Want.*Field != Got.*Field)
      Out << "  " << Name << ": legacy " << Want.*Field << " vs "
          << Got.*Field << "\n";
  for (size_t I = 0; I < Want.PerOpcode.size(); ++I)
    if (Want.PerOpcode[I] != Got.PerOpcode[I])
      Out << "  PerOpcode[" << I << "]: legacy " << Want.PerOpcode[I]
          << " vs " << Got.PerOpcode[I] << "\n";
  return Out.str();
}

} // namespace

std::vector<vm::Engine> enginetest::enginesUnderTest() {
  std::vector<vm::Engine> Engines = {vm::Engine::Legacy, vm::Engine::Threaded};
  if (vm::jitAvailable())
    Engines.push_back(vm::Engine::Native);
  return Engines;
}

std::string enginetest::describe(const RunConfig &C) {
  return "fuel=" + std::to_string(C.Fuel) +
         " gc-every=" + std::to_string(C.GcEvery) +
         " heap-budget=" + std::to_string(C.GcBudgetBytes);
}

EngineRun enginetest::runOn(const s1::Program &P, sexpr::SymbolTable &Syms,
                            sexpr::Heap &H, const std::string &Entry,
                            const std::vector<sexpr::Value> &Args,
                            vm::Engine Eng, const RunConfig &C) {
  vm::Machine VM(P, Syms, H);
  VM.setEngine(Eng);
  VM.setFuel(C.Fuel);
  VM.setGcEvery(C.GcEvery);
  VM.setGcBudget(C.GcBudgetBytes);
  vm::Machine::RunResult R = VM.call(Entry, Args);
  EngineRun Out;
  Out.Ok = R.Ok;
  Out.Text = !R.Ok     ? R.Error
             : R.Result ? sexpr::toString(*R.Result)
                        : "#<undecodable>";
  Out.ResultWord = R.Ok ? R.ResultWord : 0;
  Out.Stats = VM.stats();
  return Out;
}

EngineRun enginetest::expectEnginesAgree(const s1::Program &P,
                                         sexpr::SymbolTable &Syms,
                                         sexpr::Heap &H,
                                         const std::string &Entry,
                                         const std::vector<sexpr::Value> &Args,
                                         const RunConfig &C) {
  EngineRun Want = runOn(P, Syms, H, Entry, Args, vm::Engine::Legacy, C);
  for (vm::Engine Eng : enginesUnderTest()) {
    if (Eng == vm::Engine::Legacy)
      continue;
    EngineRun Got = runOn(P, Syms, H, Entry, Args, Eng, C);
    std::string Where = std::string(vm::engineName(Eng)) +
                        " against legacy, " + describe(C);
    EXPECT_EQ(Got.Ok, Want.Ok) << Where;
    EXPECT_EQ(Got.Text, Want.Text) << Where;
    EXPECT_EQ(Got.ResultWord, Want.ResultWord) << Where;
    EXPECT_TRUE(Got.Stats == Want.Stats)
        << Where << ", MachineStats differ:\n"
        << statsDiff(Want.Stats, Got.Stats);
  }
  return Want;
}

EngineRun enginetest::expectEquivalent(const std::string &Source,
                                       const std::string &Entry,
                                       const std::vector<sexpr::Value> &Args,
                                       const driver::CompilerOptions &Opts,
                                       const RunConfig &C) {
  ir::Module M;
  driver::CompileOutcome Out = driver::compileSource(M, Source, Opts);
  EXPECT_TRUE(Out.Ok) << Out.Error;
  if (!Out.Ok)
    return {};
  return expectEnginesAgree(Out.Program, M.Syms, M.DataHeap, Entry, Args, C);
}
