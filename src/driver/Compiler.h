//===- driver/Compiler.h - The whole pipeline -------------------*- C++ -*-===//
///
/// \file
/// The Table 1 pipeline as one facade: preliminary conversion →
/// source-program analysis → source-level optimization → machine-dependent
/// annotation → TNBIND → code generation. Each phase has switches so the
/// benchmark harness can ablate it.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_DRIVER_COMPILER_H
#define S1LISP_DRIVER_COMPILER_H

#include "codegen/Codegen.h"
#include "ir/Ir.h"
#include "opt/Cse.h"
#include "opt/MetaEval.h"
#include "stats/Remark.h"
#include "stats/Stats.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace s1lisp {
namespace driver {

struct CompilerOptions {
  bool Optimize = true; ///< run the §5 source-level optimizer
  bool Cse = false;     ///< run the §4.3 CSE phase after the optimizer
  opt::OptOptions Opt;
  opt::CseOptions CseOpts;
  codegen::CodegenOptions Codegen;
  /// Worker threads for the per-function pipeline: optimize + CSE fan out
  /// over the module's functions, and code generation compiles each
  /// function's unit concurrently before a serial link. Output (program,
  /// listings, remark set, merged stats) is bit-identical for any job
  /// count.
  unsigned Jobs = 1;
};

struct CompileOutcome {
  bool Ok = false;
  std::string Error;
  s1::Program Program;
  /// Per-function memo traffic for this compile (zero without a memo).
  unsigned MemoHits = 0;
  unsigned MemoMisses = 0;
};

/// Everything the middle end produces for one function, keyed by content:
/// the relocatable unit plus the counter deltas and optimizer remarks that
/// a fresh compile of the function would have emitted. A memo hit replays
/// the deltas and remarks, so cached and fresh compiles report identical
/// totals and transcripts.
///
/// Remarks are captured only when the compile that stored the entry had a
/// remark stream; nullopt means they were not. A caller that wants remarks
/// recompiles a hit stored without them (it still counts as a hit) and
/// offers the fresh entry back to the memo, which should replace the old.
struct MemoizedFunction {
  codegen::CompiledUnit Unit;
  std::vector<stats::TallyDelta> Tally;
  std::optional<std::vector<stats::Remark>> Remarks;

  size_t byteSize() const;
};

/// What the driver needs from a defun's converted tree: the function's
/// name for the module's function index, the global names its memo key
/// resolves, and the counter deltas converting the defun recorded. The
/// front cache keys it by the defun's front key, so a form sent before
/// reaches its memo key with no reading and no conversion, and replays
/// the deltas instead.
struct FrontEntry {
  std::string Name;
  std::vector<std::string> Globals; ///< ir::referencedGlobalNames
  std::vector<stats::TallyDelta> Tally;

  size_t byteSize() const;
};

/// A per-function compilation memo the driver probes before running the
/// middle end, and the front cache in front of it (lookupFront/
/// insertFront).
///
/// A top-level form's front key is ir::hashString of its source text
/// mixed with the names of the specials proclaimed before it, the only
/// other input conversion reads. Every top-level form is looked up in the
/// front cache, proclamations included, before it is read; only defuns
/// are stored.
///
/// A function's memo key is its defun's front key mixed with the options
/// fingerprint and the module-index resolution of every global name the
/// unit could reference (units bake call indices into immediates, so
/// reuse is only sound where those resolutions agree). Those names are
/// known only after conversion, so the front cache is a level of its own
/// and its entry carries them. Since a hit needs the same text, it
/// answers as a fresh compile does, spellings of locals in listings and
/// remarks included; a renamed local or an edit inside a form recompiles
/// that function.
///
/// Implementations must be safe to call from concurrent compiles; entries
/// are shared_ptr so eviction never frees a unit mid-link. A memo without
/// a front cache keeps the defaults, and every form is read and converted.
class FunctionMemo {
public:
  virtual ~FunctionMemo() = default;
  virtual std::shared_ptr<const MemoizedFunction> lookup(uint64_t Key) = 0;
  virtual void insert(uint64_t Key,
                      std::shared_ptr<const MemoizedFunction> Fn) = 0;
  virtual std::shared_ptr<const FrontEntry> lookupFront(uint64_t) {
    return nullptr;
  }
  virtual void insertFront(uint64_t, std::shared_ptr<const FrontEntry>) {}
};

/// Fingerprint of every output-relevant option (Jobs is excluded: output
/// is bit-identical for any job count). Two option sets with equal
/// fingerprints compile every function identically, so the fingerprint is
/// the options half of the memo key.
uint64_t optionsFingerprint(const CompilerOptions &Opts);

/// Reads, converts, optimizes and compiles every top-level form in
/// \p Source into \p M. When \p Remarks is given, every optimizer rewrite
/// is recorded there as a structured remark.
///
/// With \p Memo, the source is first split into the spans of its
/// top-level forms (sexpr::Reader::scan), and only the forms the front
/// cache misses are read. A defun it has seen (same text, same specials
/// before it) goes straight to its memo probe; it is read and converted
/// only when the memo misses, or when \p Remarks is given and the hit was
/// stored without remarks. Such a hit counts as a hit, since its key
/// matched; it recompiles with capture and is offered back like a miss.
/// A miss stores its remarks only when \p Remarks is given. Forms still
/// convert in source order, each seeing only the specials proclaimed
/// before it. \p M then holds only the forms that were read and the
/// functions that were converted. Input the scan gives up on is read
/// whole, as without a memo. Output, diagnostics, counters and remarks
/// are those of a compile without a memo.
///
/// \p M's trees are the optimized ones, or unoptimized where the memo hit,
/// so a caller that interprets the program converts \p Source afresh.
CompileOutcome compileSource(ir::Module &M, std::string_view Source,
                             const CompilerOptions &Opts = {},
                             stats::RemarkStream *Remarks = nullptr,
                             FunctionMemo *Memo = nullptr);

/// Compiles an already-converted module: optimize + CSE + codegen, fanned
/// out per function when Opts.Jobs > 1. Remarks, when given, arrive merged
/// in module-function order regardless of the job count.
CompileOutcome compileModule(ir::Module &M, const CompilerOptions &Opts = {},
                             stats::RemarkStream *Remarks = nullptr);

/// The whole program as a parenthesized assembly listing (Table 4 style).
std::string listing(const s1::Program &P);

} // namespace driver
} // namespace s1lisp

#endif // S1LISP_DRIVER_COMPILER_H
