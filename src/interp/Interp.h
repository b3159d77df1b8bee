//===- interp/Interp.h - Baseline tree-walking evaluator --------*- C++ -*-===//
///
/// \file
/// A direct interpreter over the internal tree. It implements the full
/// dialect semantics — lexical closures, deep-bound special variables,
/// proper tail calls (so the §2 exptl example is iterative here too),
/// catch/throw, prog/go/return — and doubles as:
///
///   * the oracle for differential testing of the optimizer and compiler
///     (same program, interpreted vs. optimized vs. compiled),
///   * the performance baseline for the compiled-vs-interpreted benchmark,
///     and
///   * the definition of every foldable primitive (applyFoldable), which
///     the meta-evaluator applies at compile time.
///
/// It keeps counters (evaluation steps, special-variable search length,
/// cons allocations) that the benchmark harness reads.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_INTERP_INTERP_H
#define S1LISP_INTERP_INTERP_H

#include "ir/Ir.h"
#include "ir/Primitives.h"
#include "sexpr/Value.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace s1lisp {
namespace interp {

class Interpreter;
struct Closure;
struct FloatArray;

/// A runtime value: plain S-expression data, a closure, a builtin, or a
/// float array. Lists built at run time live in the interpreter's own heap
/// and may contain only data values (storing a function into a list is
/// reported as a runtime error rather than silently mangled).
class RtValue {
public:
  enum class Kind : uint8_t { Data, Closure, Builtin, Array };

  RtValue() : K(Kind::Data), Data(sexpr::Value::nil()) {}
  static RtValue data(sexpr::Value V) {
    RtValue R;
    R.K = Kind::Data;
    R.Data = V;
    return R;
  }
  static RtValue closure(Closure *C) {
    RtValue R;
    R.K = Kind::Closure;
    R.Fn = C;
    return R;
  }
  static RtValue builtin(const ir::PrimInfo *P) {
    RtValue R;
    R.K = Kind::Builtin;
    R.Prim = P;
    return R;
  }
  static RtValue array(FloatArray *A) {
    RtValue R;
    R.K = Kind::Array;
    R.Arr = A;
    return R;
  }

  Kind kind() const { return K; }
  bool isData() const { return K == Kind::Data; }
  bool isCallable() const { return K == Kind::Closure || K == Kind::Builtin; }
  bool isArray() const { return K == Kind::Array; }

  sexpr::Value dataValue() const {
    assert(isData() && "not a data value");
    return Data;
  }
  Closure *closureValue() const {
    assert(K == Kind::Closure);
    return Fn;
  }
  const ir::PrimInfo *builtinValue() const {
    assert(K == Kind::Builtin);
    return Prim;
  }
  FloatArray *arrayValue() const {
    assert(K == Kind::Array);
    return Arr;
  }

  /// Lisp truthiness: only NIL is false.
  bool isTrue() const { return !isData() || !Data.isNil(); }

  /// Printable rendering (closures as #<function>).
  std::string str() const;

private:
  Kind K;
  sexpr::Value Data;
  union {
    Closure *Fn;
    const ir::PrimInfo *Prim;
    FloatArray *Arr;
  };
};

/// A row-major float array of rank 1 or 2 (the §6.1 substrate).
struct FloatArray {
  size_t Dim0 = 0;
  size_t Dim1 = 1; ///< 1 for rank-1 arrays.
  bool Rank2 = false;
  std::vector<double> Data;

  double &at(size_t I, size_t J) { return Data[I * Dim1 + J]; }
};

/// A lexical environment frame. Closures share frames, hence shared_ptr.
struct EnvFrame {
  std::shared_ptr<EnvFrame> Parent;
  std::vector<std::pair<ir::Variable *, RtValue>> Slots;
};
using EnvPtr = std::shared_ptr<EnvFrame>;

/// A lexical closure: a lambda plus its captured environment.
struct Closure {
  const ir::LambdaNode *Lambda = nullptr;
  EnvPtr Env;
};

/// Execution counters read by tests and benchmarks.
struct InterpStats {
  uint64_t Steps = 0;              ///< nodes evaluated.
  uint64_t Applies = 0;            ///< function applications (incl. tail).
  uint64_t TailTransfers = 0;      ///< applications that reused the frame.
  uint64_t MaxApplyDepth = 0;      ///< high-water C++ recursion depth.
  uint64_t ConsAllocs = 0;         ///< runtime cons cells created.
  uint64_t SpecialSearches = 0;    ///< special-variable lookups performed.
  uint64_t SpecialSearchSteps = 0; ///< total bindings scanned during lookups.
};

/// The evaluator. One instance per Module; reusable across calls.
///
/// The interpreter is the runtime heap's root provider: every live
/// environment frame (tracked by a registry fed from the single
/// frame-creation site), the special-variable stacks, and the transient
/// roots the evaluator registers around allocation points are enumerated
/// precisely, so the heap's collector can free unreachable cells mid-run.
class Interpreter : private sexpr::RootProvider {
public:
  explicit Interpreter(ir::Module &M);
  ~Interpreter();

  struct Result {
    bool Ok = false;
    std::string Error;
    RtValue Value;
  };

  /// Calls module function \p Name with \p Args.
  Result call(const std::string &Name, const std::vector<RtValue> &Args);

  /// Establishes the global (outermost) value of a special variable.
  void setGlobalSpecial(const sexpr::Symbol *Name, RtValue V);

  /// Creates a float array owned by this interpreter.
  RtValue makeArray(size_t Dim0);
  RtValue makeArray(size_t Dim0, size_t Dim1);

  /// Evaluation-step budget; exceeded budgets abort with an error. The
  /// default is generous but finite so property tests terminate.
  void setFuel(uint64_t NewFuel) { Fuel = NewFuel; }

  /// GC schedule for the runtime heap: collect every \p N runtime cons
  /// allocations (0 = never, the default).
  void setGcEvery(uint64_t N) { RtHeap.setGcEvery(N); }
  /// Runtime-heap budget in bytes (0 = unbounded).
  void setHeapBudget(size_t Bytes) { RtHeap.setHeapBudget(Bytes); }
  /// Re-verify the heap after every collection, aborting on corruption.
  void setGcVerify(bool On) { RtHeap.setVerifyAfterGc(On); }

  sexpr::Heap &heap() { return RtHeap; }
  const sexpr::GcStats &gcStats() const { return RtHeap.gcStats(); }

  InterpStats &stats() { return Stats; }
  void resetStats() { Stats = InterpStats(); }

  /// Text emitted by the print primitive.
  const std::string &output() const { return Out; }
  void clearOutput() { Out.clear(); }

  ir::Module &M;

  /// Transient GC roots: the evaluator registers C++ locals here (RAII)
  /// while they hold heap values across allocation points. Evaluator
  /// internals — not a public API.
  struct TransientRoots {
    std::vector<std::vector<RtValue> *> RtVecs;
    std::vector<RtValue *> RtVals;
  };

private:
  friend struct Evaluator;

  /// sexpr::RootProvider: enumerates every runtime-heap value held in
  /// live environment frames, the special stacks, and the transient
  /// roots.
  void visitRoots(const std::function<void(sexpr::Value)> &Visit) override;

  /// The one way evaluator code creates environment frames: the frame is
  /// tracked in LiveFrames until its last reference dies, so the
  /// collector sees every binding in every live frame.
  EnvPtr makeFrame(EnvPtr Parent);

  /// Bumps the gc.* statistics by the heap's progress since the last
  /// publication (no-ops when GC is off).
  void publishGcStats();

  sexpr::Heap RtHeap; ///< runtime conses/strings/ratios.
  /// Destroyed after Closures/frames (declared first): frame deleters
  /// unregister themselves here.
  std::unordered_set<EnvFrame *> LiveFrames;
  TransientRoots Roots;
  std::deque<Closure> Closures;
  /// One memoized closure per global function (no captured environment):
  /// keeps Closures from growing per call, which would make root
  /// enumeration quadratic under tight GC schedules.
  std::unordered_map<ir::Function *, Closure *> GlobalClosures;
  std::deque<FloatArray> Arrays;

  /// Deep-binding stack of (symbol, value); lookups scan from the top.
  std::vector<std::pair<const sexpr::Symbol *, RtValue>> SpecialStack;
  std::vector<std::pair<const sexpr::Symbol *, RtValue>> SpecialGlobals;

  InterpStats Stats;
  sexpr::GcStats LastPublishedGc;
  uint64_t Fuel = 50'000'000;
  std::string Out;
};

/// Structural equality over runtime values (closures by identity).
bool rtEqual(RtValue A, RtValue B);
bool rtEql(RtValue A, RtValue B);

/// What applying a primitive produced: its value, or the error it signals.
struct PrimResult {
  bool Ok = false;
  RtValue Value;
  std::string Error;
};

/// Applies a Foldable primitive (ir::PrimInfo::Foldable) to \p Args, a
/// count of arguments \p Op accepts. This is the one definition of what
/// each of them computes: the evaluator applies it at run time, and the
/// meta-evaluator at compile time, to literal operands (§5's compile-time
/// "apply"). These primitives only read their arguments and allocate only
/// numbers, in \p H (sexpr::Heap::makeRatio never collects), so a call
/// needs no GC roots and no interpreter, and compile workers may make it
/// concurrently.
PrimResult applyFoldable(ir::Prim Op, std::span<const RtValue> Args,
                         sexpr::Heap &H, const sexpr::SymbolTable &Syms);

} // namespace interp
} // namespace s1lisp

#endif // S1LISP_INTERP_INTERP_H
