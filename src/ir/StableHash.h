//===- ir/StableHash.h - Alpha-normalized structural hashing ----*- C++ -*-===//
///
/// \file
/// A content hash over a Function's internal tree that is invariant under
/// alpha-renaming of lexically scoped variables and prog tags: variables
/// hash as sequence numbers assigned in traversal order, not as names.
/// Everything with observable semantics does land in the hash — literal
/// data (by printed form), call names, special-variable and free-variable
/// names (dynamic scoping binds by symbol), lambda-list shape, caseq keys,
/// and go/return targets by position.
///
/// The hash is the content-address half of the compile service's
/// per-function compilation cache key: two conversions of the same (or
/// alpha-renamed) source hash equal, so a warm s1lispd skips the middle
/// end for them; any semantic change reaches the hash and misses.
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
uint64_t hashString(uint64_t Seed, std::string_view S);

/// Structural hash of a datum, seeded with \p Seed: cons shape, symbol
/// names, fixnum, flonum and ratio values, and string contents. Source
/// positions are not part of it.
uint64_t stableDatumHash(uint64_t Seed, sexpr::Value V);

/// Alpha-normalized structural hash of \p F's tree (the function's own
/// name is NOT included; callers that key caches mix it in themselves).
uint64_t stableFunctionHash(const Function &F);

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
