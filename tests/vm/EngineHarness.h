//===- tests/vm/EngineHarness.h - One engine contract -----------*- C++ -*-===//
//
// Every test under tests/vm that holds one dispatch engine against another
// goes through this harness, so the engine contract is stated in one
// place: for the same program, call, fuel and collector schedule, the
// threaded and native engines must return what the legacy engine (the
// reference) returns — the same printed value and result word, or the
// same trap text with the same pc — and retire equal MachineStats.
//
//===----------------------------------------------------------------------===//

#ifndef S1LISP_TESTS_VM_ENGINEHARNESS_H
#define S1LISP_TESTS_VM_ENGINEHARNESS_H

#include "driver/Compiler.h"
#include "vm/Machine.h"

#include <string>
#include <vector>

namespace s1lisp {
namespace enginetest {

/// Legacy (the reference) and threaded, plus native when this host can
/// JIT; elsewhere Machine falls back to the threaded loop for it.
std::vector<vm::Engine> enginesUnderTest();

/// The fuel and collector schedule of one run.
struct RunConfig {
  uint64_t Fuel = 2'000'000;
  uint64_t GcEvery = 0;       ///< collect every N allocations; 0 = never
  uint64_t GcBudgetBytes = 0; ///< collect past this live heap; 0 = never
};

/// "fuel=F gc-every=N heap-budget=B", for failure messages.
std::string describe(const RunConfig &C);

/// What one engine did with one call.
struct EngineRun {
  bool Ok = false;
  std::string Text;        ///< printed value, or the trap text
  uint64_t ResultWord = 0; ///< the raw result word when Ok
  vm::MachineStats Stats;
};

/// Calls \p Entry on a fresh Machine over \p P running \p Eng under \p C.
EngineRun runOn(const s1::Program &P, sexpr::SymbolTable &Syms,
                sexpr::Heap &H, const std::string &Entry,
                const std::vector<sexpr::Value> &Args, vm::Engine Eng,
                const RunConfig &C = {});

/// Runs the call on every engine under test and expects each to keep the
/// contract against legacy. Returns legacy's run.
EngineRun expectEnginesAgree(const s1::Program &P, sexpr::SymbolTable &Syms,
                             sexpr::Heap &H, const std::string &Entry,
                             const std::vector<sexpr::Value> &Args,
                             const RunConfig &C = {});

/// Compiles \p Source under \p Opts and expects every engine to keep the
/// contract on one call. Returns legacy's run.
EngineRun expectEquivalent(const std::string &Source, const std::string &Entry,
                           const std::vector<sexpr::Value> &Args,
                           const driver::CompilerOptions &Opts = {},
                           const RunConfig &C = {});

} // namespace enginetest
} // namespace s1lisp

#endif // S1LISP_TESTS_VM_ENGINEHARNESS_H
