//===- codegen/Codegen.h - Single-pass code generation ----------*- C++ -*-===//
///
/// \file
/// The code generation phase: one pass over the decorated tree per
/// compilation unit (a module function plus one unit per lifted closure),
/// emitting S-1/64 assembly. Optional arguments compile into the per-count
/// dispatch of Table 4; tail calls become TAILCALL "parameter-passing
/// gotos"; jump-strategy thunks are emitted once and their call sites are
/// plain JMPAs (the §5 short-circuit code shape); raw floats stay in
/// registers and are boxed only at POINTER boundaries, on the stack when
/// the pdl-number annotation authorizes it.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_CODEGEN_CODEGEN_H
#define S1LISP_CODEGEN_CODEGEN_H

#include "annotate/Annotate.h"
#include "ir/Ir.h"
#include "s1/Isa.h"
#include "tnbind/TnBind.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace s1lisp {
namespace codegen {

struct CodegenOptions {
  tnbind::TnBindOptions TnBind;
  annotate::AnnotateOptions Annotate;
  /// Cache special-variable binding addresses in the frame (§4.4).
  bool SpecialCache = true;
  /// Compile tail calls as jumps (§2).
  bool TailCalls = true;
  /// Let expression temporaries use registers (ablation: frame slots only).
  bool RegisterTemps = true;
  /// Ignored: the driver fans units out itself (driver::compileSlots,
  /// at CompilerOptions::Jobs). The field stays only so the assignment
  /// in s1bench/CompileWorkload.cpp still compiles; delete it with that.
  unsigned Jobs = 1;
};

struct CompileResult {
  bool Ok = false;
  std::string Error;
  s1::Program Program;
};

/// One module function (plus every closure lifted out of it) compiled
/// into a private, relocatable unit: a local static pool addressed from
/// zero, symbol references by unit-local ordinal into SymNames, and
/// lifted-closure references encoded as negative ordinals. Units carry no
/// pointers into any Module — symbols travel as names — so a unit is a
/// serialized compilation artifact: the compile service's
/// content-addressed cache stores units and links them into later
/// requests' programs, bit-identically to a fresh compile.
struct CompiledUnit {
  bool Ok = false;
  std::string Error;
  /// [0] is the module function; lifted closures follow in lift order.
  std::vector<s1::AsmFunction> Fns;
  /// Local data pool (cons cells, flonum/ratio payloads, string headers).
  std::vector<uint64_t> Static;
  /// Pool slots holding encoded words the link must relocate.
  std::vector<size_t> PtrSlots;
  /// Symbol names in first-use order; a Symbol word's address field
  /// indexes here until the link rewrites it.
  std::vector<std::string> SymNames;
  /// Static string objects at unit-local addresses.
  std::vector<std::pair<uint64_t, std::string>> Strings;

  /// Approximate retained bytes, for cache budget accounting.
  size_t byteSize() const;
};

/// Compiles one function of \p M into a relocatable unit. \p FuncIndex is
/// the module-function index assignment (name -> slot) the unit's direct
/// calls are resolved against, in module order.
CompiledUnit compileFunctionUnit(ir::Module &M, ir::Function &F,
                                 const CodegenOptions &Opts,
                                 const std::unordered_map<std::string, int> &FuncIndex);

/// Serially links units (one per module function, in module order) into a
/// program: unit pools are concatenated, symbol names are interned into
/// \p M and assigned global value cells in first-use order, and encoded
/// words in pools and instruction immediates are relocated. Output is a
/// pure function of the unit contents, so cached and freshly compiled
/// units link bit-identically.
CompileResult linkUnits(ir::Module &M,
                        const std::vector<const CompiledUnit *> &Units);

} // namespace codegen
} // namespace s1lisp

#endif // S1LISP_CODEGEN_CODEGEN_H
