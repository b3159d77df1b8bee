//===- ir/StableHash.h - Deterministic hashes for cache keys ----*- C++ -*-===//
///
/// \file
/// What the compile service's cache keys are built from (see
/// driver::FunctionMemo): a 64-bit mixing step, a string hash that a
/// front key takes of a top-level form's source text, and the global
/// names a converted function's code could resolve against the module's
/// function index. The hashes are the same on every host and in every
/// run.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_IR_STABLEHASH_H
#define S1LISP_IR_STABLEHASH_H

#include "ir/Ir.h"

#include <cstdint>
#include <string>
#include <vector>

namespace s1lisp {
namespace ir {

/// Deterministic 64-bit mixing step (splitmix64 finalizer over FNV-style
/// accumulation); stable across platforms and runs.
uint64_t hashCombine(uint64_t Seed, uint64_t V);

/// \p S's length and bytes mixed into \p Seed, eight bytes per step. The
/// one string hash: names in memo keys, and the source text of a
/// top-level form in its front key (driver::FunctionMemo).
uint64_t hashString(uint64_t Seed, std::string_view S);

/// Every global name the compiled code of \p F could resolve against the
/// module's function index: call-site names and literal symbols (which
/// covers (function f) and quoted data conservatively), sorted and
/// deduplicated. The cache key fingerprints the module index restricted
/// to these names, so a unit is reused only where every such name maps to
/// the same function slot (or is absent) as when it was compiled.
std::vector<std::string> referencedGlobalNames(const Function &F);

} // namespace ir
} // namespace s1lisp

#endif // S1LISP_IR_STABLEHASH_H
