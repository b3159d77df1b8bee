//===- driver/Ablation.h - Ablation-matrix enumeration ----------*- C++ -*-===//
///
/// \file
/// One canonical enumeration of the compiler's ablation matrix: the
/// baseline optimization levels plus every single-pass ablation of
/// CompilerOptions, each under the stable name the CLI tools use
/// (O0, O2, O2+cse, no-substitute, ...). The differential fuzzer runs
/// every generated program through all of these; the benchmark harness
/// and tests pick configurations from the same table so nobody grows a
/// private, drifting copy of the switch list.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_DRIVER_ABLATION_H
#define S1LISP_DRIVER_ABLATION_H

#include "driver/Compiler.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace s1lisp {
namespace driver {

/// One named point in the ablation matrix.
struct AblationConfig {
  std::string Name;
  /// The s1lispc flag that selects this configuration from the defaults:
  /// "" for O2, "-O0", "--cse", or "--" + Name for a single-pass ablation.
  std::string Flag;
  CompilerOptions Opts;
};

/// The full matrix: "O2" (everything on), "O0", "O2+cse", then one entry
/// per single-pass ablation ("no-substitute", "no-tail-calls", ...), each
/// of which is O2 with exactly that switch off. "O2" is always first.
/// Each entry's Opts is its Flag applied to the defaults by
/// applyCompilerFlag.
std::vector<AblationConfig> ablationMatrix();

/// Looks a configuration up by its matrix name; nullopt when unknown.
std::optional<AblationConfig> ablationByName(const std::string &Name);

/// Applies one s1lispc-style compiler flag to \p O: "-O0", "-O2",
/// "--cse", or any "--no-<pass>" ablation. Returns false (leaving \p O
/// untouched) when the token is not a compiler flag. s1lispc, the compile
/// service, and tests all parse through this one table, so the flag
/// surface can't drift between the CLI and the daemon protocol. The
/// execution engine is not a compiler flag: a daemon request names it in
/// its own "engine" key.
bool applyCompilerFlag(std::string_view Flag, CompilerOptions &O);

} // namespace driver
} // namespace s1lisp

#endif // S1LISP_DRIVER_ABLATION_H
