//===- fuzz/Oracle.h - Differential ablation-matrix oracle ------*- C++ -*-===//
///
/// \file
/// Runs one generated program on its argument grid through the
/// interpreter (the semantic reference) and through the compiler at every
/// configuration of the ablation matrix (driver/Ablation.h), then compares
/// outcomes. Printed results must match exactly; error outcomes must agree
/// by class (the interpreter and the simulator word their messages
/// differently, but "wrong number of arguments" must never turn into a
/// wrong answer).
///
/// Two documented deviations are tolerated rather than reported:
///
///  * Fixnum width. Interpreted fixnums are 64-bit, compiled fixnums are
///    32-bit (the S-1's boxed immediates), so any grid point where either
///    engine overflows is skipped — constant folding can also legitimately
///    remove an overflow outright, so there is no portable expectation.
///  * Error elision by optimization. The optimizer may delete a pure but
///    doomed computation (an unused binding whose init would signal), so a
///    configuration with optimization enabled is allowed to succeed where
///    the reference errs. The reverse — an optimized program erring where
///    the reference succeeds — is always a reported divergence.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_FUZZ_ORACLE_H
#define S1LISP_FUZZ_ORACLE_H

#include "driver/Ablation.h"
#include "fuzz/Generator.h"
#include "vm/Machine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace s1lisp {
namespace fuzz {

/// Coarse classification of a runtime error message, used to compare
/// error outcomes across engines whose message texts differ.
enum class ErrorClass {
  None,
  Overflow, ///< compiled 32-bit fixnum boxing trap
  WrongType,
  WrongArgCount,
  DivisionByZero,
  Undefined,
  NotAFunction,
  Unbound,
  Fuel,
  Other,
};

/// Maps an engine's error message onto an ErrorClass by keyword.
ErrorClass classifyError(const std::string &Message);

/// What one engine produced for one grid point.
struct Outcome {
  enum class Kind { Value, Error, CompileError };
  Kind K = Kind::Value;
  std::string Text; ///< printed value, or the error message
  ErrorClass EC = ErrorClass::None;

  static Outcome value(std::string Printed);
  static Outcome error(std::string Message);
  static Outcome compileError(std::string Message);
};

/// How an outcome compares with the reference's under the rules above.
enum class Judgement { Agree, Diverge, ToleratedOverflow, ToleratedElision };

/// Judges \p Act, from a compile under \p Opts, against the
/// interpreter's \p Ref. A point where either side overflowed or ran out
/// of fuel is a tolerated overflow; a configuration that optimizes
/// (Optimize or Cse) may succeed where the reference erred.
Judgement judgeOutcome(const Outcome &Ref, const Outcome &Act,
                       const driver::CompilerOptions &Opts);

/// One reference/actual disagreement.
struct Divergence {
  std::string Config;   ///< ablation-matrix name, or "compile"
  size_t ArgIndex = 0;  ///< row of GeneratedProgram::ArgGrid
  Outcome Reference;    ///< what the interpreter did
  Outcome Actual;       ///< what this configuration did
  std::string StatsJson;///< per-config compile counter/remark delta
};

struct OracleOptions {
  /// Configurations to test; empty means the full ablationMatrix().
  std::vector<driver::AblationConfig> Configs;
  uint64_t InterpFuel = 2'000'000;
  uint64_t VmFuel = 20'000'000;
  /// Capture a src/stats counter delta per configuration compile, attached
  /// to any divergence against that configuration (and to repro files).
  /// Each compile records into its own tally, so the deltas are the same
  /// at any job count.
  bool CaptureStats = false;
  /// Worker threads fanning out over the ablation matrix (each
  /// configuration compiles and runs its grid independently); 1 = serial.
  unsigned Jobs = 1;
  /// Simulator dispatch engine for the compiled side of the comparison.
  vm::Engine Engine = vm::Engine::Threaded;
  /// Forced-GC schedule: both sides collect their runtime heaps every N
  /// allocations (0 = never). Results must be identical across schedules;
  /// interpreter runs also re-verify the heap after every collection, so
  /// N=1 is the strongest automated test of both collectors' rooting.
  uint64_t GcEvery = 0;
};

struct CheckResult {
  enum class Status {
    Agree,        ///< all configurations matched the reference on all rows
    Diverged,     ///< at least one reported divergence
    ConvertError, ///< the program did not convert — generator bug
  };
  Status St = Status::Agree;
  std::string ConvertMessage;
  std::vector<Divergence> Divergences;
  unsigned ToleratedOverflows = 0; ///< grid points skipped for fixnum width
  unsigned ToleratedElisions = 0;  ///< optimizer legitimately removed an error
  unsigned RowsCompared = 0;       ///< (config, grid point) pairs checked
};

/// Runs the full differential check for one program.
CheckResult checkProgram(const GeneratedProgram &P,
                         const OracleOptions &O = {});

/// Runs one source/entry/grid triple against a single configuration,
/// returning only that configuration's divergences. The reducer uses this
/// to re-test shrunken candidates cheaply.
std::vector<Divergence> checkAgainstConfig(const std::string &Source,
                                           const std::string &Entry,
                                           const std::vector<std::vector<sexpr::Value>> &Grid,
                                           const driver::AblationConfig &Config,
                                           const OracleOptions &O = {});

} // namespace fuzz
} // namespace s1lisp

#endif // S1LISP_FUZZ_ORACLE_H
