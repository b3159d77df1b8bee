//===- sexpr/Value.h - Lisp S-expression values -----------------*- C++ -*-===//
///
/// \file
/// The S-expression data model used by the reader, the compiler's constant
/// folder, and the baseline interpreter's data world: symbols, the numeric
/// tower (fixnum / ratio / flonum), strings, and conses.
///
/// A Value is a small tagged union passed by value. Conses, strings and
/// ratios live in a Heap; symbols are interned in a SymbolTable. Symbols
/// are immortal (pointer identity is symbol identity for the lifetime of
/// the table), but heap cells are collectible: a Heap is a generational
/// collector with a bump-allocated nursery per thread-affine region,
/// copying promotion into tenured chunks, and a mark-sweep fallback for
/// the tenured generation. Collection is off by default — a heap with no
/// GC schedule configured behaves exactly like the old grow-only
/// allocator — and is enabled per-heap with setGcEvery()/setHeapBudget().
///
/// Because promotion moves cells, a GC-enabled heap requires the precise
/// root discipline below (see "Root discipline"); GC-enabled heaps are
/// single-mutator.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_SEXPR_VALUE_H
#define S1LISP_SEXPR_VALUE_H

#include "support/SourceLocation.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace s1lisp {
namespace sexpr {

class Value;

/// An interned symbol. Pointer identity is symbol identity.
class Symbol {
public:
  explicit Symbol(std::string Name) : Name(std::move(Name)) {}
  const std::string &name() const { return Name; }

private:
  std::string Name;
};

/// A mutable cons cell. \c Loc records where the reader saw the open paren,
/// so later phases can attach diagnostics to source positions.
struct Cons;

/// Heap-allocated string payload.
struct StringObj {
  std::string Str;
};

/// An exact rational. Always normalized: Den > 0, gcd(|Num|, Den) == 1,
/// and Den != 1 (a denominator of one would have been a fixnum).
struct Ratio {
  int64_t Num = 0;
  int64_t Den = 1;
};

/// Discriminator for Value.
enum class ValueKind : uint8_t {
  Nil,
  Symbol,
  Fixnum,
  Flonum,
  Ratio,
  String,
  Cons,
};

/// A Lisp datum: 16 bytes, copied freely.
class Value {
public:
  Value() : Kind(ValueKind::Nil), Fix(0) {}

  static Value nil() { return Value(); }
  static Value fixnum(int64_t N) {
    Value V;
    V.Kind = ValueKind::Fixnum;
    V.Fix = N;
    return V;
  }
  static Value flonum(double D) {
    Value V;
    V.Kind = ValueKind::Flonum;
    V.Flo = D;
    return V;
  }
  static Value symbol(const Symbol *S) {
    assert(S && "null symbol");
    Value V;
    V.Kind = ValueKind::Symbol;
    V.Sym = S;
    return V;
  }
  static Value string(const StringObj *S) {
    Value V;
    V.Kind = ValueKind::String;
    V.Str = S;
    return V;
  }
  static Value ratio(const Ratio *R) {
    Value V;
    V.Kind = ValueKind::Ratio;
    V.Rat = R;
    return V;
  }
  static Value cons(Cons *C) {
    Value V;
    V.Kind = ValueKind::Cons;
    V.C = C;
    return V;
  }

  ValueKind kind() const { return Kind; }
  bool isNil() const { return Kind == ValueKind::Nil; }
  bool isSymbol() const { return Kind == ValueKind::Symbol; }
  bool isFixnum() const { return Kind == ValueKind::Fixnum; }
  bool isFlonum() const { return Kind == ValueKind::Flonum; }
  bool isRatio() const { return Kind == ValueKind::Ratio; }
  bool isString() const { return Kind == ValueKind::String; }
  bool isCons() const { return Kind == ValueKind::Cons; }
  bool isNumber() const { return isFixnum() || isFlonum() || isRatio(); }
  /// An atom is anything that is not a cons (NIL included).
  bool isAtom() const { return !isCons(); }

  int64_t fixnum() const {
    assert(isFixnum() && "not a fixnum");
    return Fix;
  }
  double flonum() const {
    assert(isFlonum() && "not a flonum");
    return Flo;
  }
  const Symbol *symbol() const {
    assert(isSymbol() && "not a symbol");
    return Sym;
  }
  const Ratio &ratio() const {
    assert(isRatio() && "not a ratio");
    return *Rat;
  }
  const std::string &stringValue() const;
  Cons *consCell() const {
    assert(isCons() && "not a cons");
    return C;
  }

  /// car/cdr with the Lisp convention (car nil) = (cdr nil) = nil.
  Value car() const;
  Value cdr() const;

  /// True for anything but NIL (Lisp generalized boolean).
  bool isTrue() const { return !isNil(); }

private:
  /// The collector reads and rewrites the payload pointers in place when
  /// promotion moves a cell.
  friend class Heap;

  ValueKind Kind;
  union {
    int64_t Fix;
    double Flo;
    const Symbol *Sym;
    const StringObj *Str;
    const Ratio *Rat;
    Cons *C;
  };
};

struct Cons {
  Value Car;
  Value Cdr;
  SourceLocation Loc;
};

/// Interns symbols; owns their storage. Also pre-interns the handful of
/// symbols the compiler needs constantly (T, NIL-as-symbol is not used;
/// NIL the datum is ValueKind::Nil). Interning is thread-safe (interned
/// pointers are stable, so readers need no lock) — the parallel driver
/// optimizes functions of one module concurrently, and the optimizer
/// interns rewritten call names.
///
/// The table is sharded by name hash: concurrent interns of different
/// names take different locks, so pipeline workers stop convoying on one
/// global mutex. Identity stays global (one Symbol per name, whichever
/// shard it hashes to), and nothing enumerates the table, so the shard a
/// symbol lands in — and the order shards fill in — is unobservable:
/// compiled units refer to symbols by name with unit-local ordinals, and
/// the serial link assigns every final ordinal/address in first-use unit
/// order (codegen::linkUnits), keeping output bit-identical for any job
/// count.
class SymbolTable {
public:
  SymbolTable();
  SymbolTable(const SymbolTable &) = delete;
  SymbolTable &operator=(const SymbolTable &) = delete;

  /// Returns the unique Symbol for \p Name, creating it on first use.
  const Symbol *intern(std::string_view Name);

  /// The symbol T (canonical true).
  const Symbol *t() const { return SymT; }
  const Symbol *quote() const { return SymQuote; }

  /// Total symbols interned so far. Aggregates per-shard counters without
  /// taking any shard lock, so it never blocks (or is blocked by)
  /// concurrent intern calls on the hot path.
  size_t size() const {
    size_t N = 0;
    for (const Shard &S : Shards)
      N += S.Count.load(std::memory_order_acquire);
    return N;
  }

private:
  /// Heterogeneous string hashing so lookups take string_view without
  /// materializing a std::string per probe.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>{}(S);
    }
    size_t operator()(const std::string &S) const {
      return std::hash<std::string_view>{}(S);
    }
  };

  static constexpr size_t NumShards = 16; ///< power of two
  struct Shard {
    mutable std::mutex Mu;
    std::unordered_map<std::string, const Symbol *, StringHash,
                       std::equal_to<>>
        Map;
    std::deque<Symbol> Storage;
    /// Map.size(), published after each insert for lock-free size().
    std::atomic<size_t> Count{0};
  };
  Shard Shards[NumShards];
  const Symbol *SymT;
  const Symbol *SymQuote;
};

/// Enumerates the Value slots a heap client keeps live across
/// collections. The interpreter, the VM's decode path, and the driver's
/// constant pools each implement this; the collector calls \c visitRoots
/// with a visitor it applies to every root slot, rewriting moved cells in
/// place.
class RootProvider {
public:
  virtual ~RootProvider() = default;
  virtual void visitRoots(const std::function<void(Value &)> &Visit) = 0;
};

/// Counters one Heap's collector maintains. Kept per-heap (sexpr sits
/// below the stats registry in the library layering); the interpreter,
/// the VM, and the tools publish them into src/stats.
struct GcStats {
  uint64_t Collections = 0;      ///< minor (nursery) collections
  uint64_t MajorCollections = 0; ///< tenured mark-sweep passes
  uint64_t CellsPromoted = 0;
  uint64_t BytesPromoted = 0;
  uint64_t CellsSwept = 0;
  uint64_t BytesSwept = 0;
  uint64_t PauseNsTotal = 0;
};

/// Allocates conses, strings, and ratios — and, when a GC schedule is
/// configured, collects them.
///
/// Storage is slot-chunked with thread affinity: each allocating thread
/// is assigned a region round-robin (cached thread-locally), so pipeline
/// workers allocate from effectively private regions and never contend on
/// a global allocation mutex. New cells are bump-allocated into the
/// region's nursery chunks; a collection evacuates every reachable
/// nursery cell into the region's tenured chunks (copying promotion with
/// forwarding pointers), resets the nursery for reuse, and — when the
/// tenured generation exceeds the configured budget — runs a mark-sweep
/// pass over tenured chunks, returning dead slots to per-region free
/// lists.
///
/// Root discipline (GC-enabled heaps only): collections move cells, so
/// every Value held live across an allocation must be reachable from a
/// registered RootProvider, from the shadow stack (pushRoot/popRoots /
/// RootScope), or be one of cons()'s own arguments (which cons roots
/// itself). Mutating Car/Cdr of an already-allocated cons must be
/// followed by writeBarrier() so old-to-young and cross-heap pointers
/// stay visible to the collector. Heaps with GC enabled are
/// single-mutator: the parallel compiler pipeline always runs with GC off
/// (the default), where allocation is thread-safe exactly as before and
/// no cell ever moves.
class Heap {
public:
  Heap();
  ~Heap();
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  Value cons(Value Car, Value Cdr, SourceLocation Loc = SourceLocation());
  Value string(std::string S);
  /// Makes an exact rational; normalizes, and returns a fixnum when the
  /// normalized denominator is 1. \p Den must be nonzero.
  Value makeRatio(int64_t Num, int64_t Den);

  /// Builds a proper list from \p Items.
  Value list(std::initializer_list<Value> Items);
  Value list(const std::vector<Value> &Items);

  /// Total cons cells allocated (monotone; GC does not roll it back).
  /// Sums per-region counters without taking any region lock, so it
  /// never blocks concurrent allocation.
  size_t consCount() const {
    size_t N = 0;
    for (const Region &R : Regions)
      N += R.ConsTally.load(std::memory_order_acquire);
    return N;
  }

  //===--- GC configuration ----------------------------------------------===//

  /// Collect after every \p N cons allocations (0 disables the schedule).
  /// Only cons() can trigger a collection; string()/makeRatio() allocate
  /// without ever collecting, so arithmetic loops may hold intermediate
  /// values across them without rooting.
  void setGcEvery(uint64_t N) { GcEvery = N; }
  uint64_t gcEvery() const { return GcEvery; }

  /// Sets the tenured-generation budget in bytes. When set, nursery
  /// pressure also triggers minor collections, and a minor collection
  /// that leaves the tenured generation over budget runs the mark-sweep
  /// fallback. 0 (default) means unbounded.
  void setHeapBudget(size_t Bytes) { BudgetBytes = Bytes; }
  size_t heapBudget() const { return BudgetBytes; }

  bool gcEnabled() const { return GcEvery != 0 || BudgetBytes != 0; }

  /// Forces a full collection now: minor evacuation, then the tenured
  /// mark-sweep regardless of budget.
  void collect();

  //===--- Roots ----------------------------------------------------------===//

  void registerRootProvider(RootProvider *P);
  void unregisterRootProvider(RootProvider *P);

  /// Shadow stack for transient roots: the pointed-to slots are updated
  /// in place when a collection moves their referents.
  void pushRoot(Value *Slot) { ShadowStack.push_back(Slot); }
  void popRoots(size_t N) {
    assert(N <= ShadowStack.size());
    ShadowStack.resize(ShadowStack.size() - N);
  }

  /// RAII shadow-stack frame.
  class RootScope {
  public:
    explicit RootScope(Heap &H) : H(H) {}
    ~RootScope() { H.popRoots(N); }
    RootScope(const RootScope &) = delete;
    RootScope &operator=(const RootScope &) = delete;
    void add(Value *Slot) {
      H.pushRoot(Slot);
      ++N;
    }

  private:
    Heap &H;
    size_t N = 0;
  };

  /// Records that \p C's Car/Cdr were just mutated. Own tenured cells land
  /// in the (per-minor-GC) remembered set; cells owned by *another* heap
  /// land in the persistent cross-heap set — a mutated foreign cell (a
  /// module literal pointing into a runtime heap, say) is an external
  /// root that must survive major collections too.
  void writeBarrier(Cons *C);

  //===--- Verification and stats ----------------------------------------===//

  /// Debug walk over the whole heap: every cell reachable from the
  /// registered roots must lie in a live region with no surviving
  /// forwarding pointer, and no live nursery cell may point at freed
  /// tenured space. Returns false and fills \p Err on the first
  /// violation.
  bool verify(std::string *Err = nullptr);

  /// When set, every collection re-verifies the heap and aborts (with a
  /// message on stderr) on any violation — the fuzz GC schedules run
  /// with this on.
  void setVerifyAfterGc(bool On) { VerifyAfterGc = On; }

  const GcStats &gcStats() const { return Stats; }

  /// Cells currently live in the tenured generation (post-sweep view;
  /// promoted minus swept).
  size_t tenuredCells() const { return TenuredLive; }

private:
  enum class CellKind : uint8_t { ConsCell, StringCell, RatioCell };

  /// Per-cell metadata preceding every payload. \c Forward doubles as the
  /// broken-heart pointer during evacuation; it must be null whenever the
  /// mutator runs.
  struct CellHeader {
    CellKind Kind;
    uint8_t Mark = 0;
    uint8_t Free = 0;
    uint8_t Pad = 0;
    void *Forward = nullptr;
  };

  static constexpr size_t PayloadMax =
      sizeof(Cons) > sizeof(StringObj)
          ? (sizeof(Cons) > sizeof(Ratio) ? sizeof(Cons) : sizeof(Ratio))
          : (sizeof(StringObj) > sizeof(Ratio) ? sizeof(StringObj)
                                               : sizeof(Ratio));

  /// One uniform allocation slot: header plus payload storage big enough
  /// for any cell kind. Uniform slots keep chunk walking, forwarding, and
  /// free-list reuse kind-agnostic.
  struct Slot {
    CellHeader H;
    alignas(alignof(std::max_align_t)) unsigned char Payload[PayloadMax];
  };

  struct Chunk {
    std::unique_ptr<Slot[]> Slots;
    size_t Cap = 0;
    size_t Used = 0;
    bool Nursery = true;
    size_t RegionIdx = 0;
  };

  static constexpr size_t NumRegions = 16;     ///< power of two
  static constexpr size_t ChunkSlots = 1024;   ///< slots per chunk

  struct Region {
    mutable std::mutex Mu;
    /// Bump-allocated nursery chunks; ActiveNursery indexes the chunk
    /// currently bumping. Reset (not freed) by every minor collection.
    std::vector<std::unique_ptr<Chunk>> Nursery;
    size_t ActiveNursery = 0;
    /// Promotion target chunks plus the free list mark-sweep refills.
    std::vector<std::unique_ptr<Chunk>> Tenured;
    std::vector<Slot *> FreeList;
    /// Monotone cons-allocation count, published for lock-free consCount().
    std::atomic<size_t> ConsTally{0};
  };

  struct RangeEntry {
    const Slot *Begin;
    const Slot *End;
    Chunk *Ch;
  };

  /// The calling thread's region (stable for the thread's lifetime).
  Region &myRegion();

  static Slot *slotOf(void *Payload);
  void *payloadOf(Slot *S) const { return S->Payload; }

  Slot *nurseryAlloc(Region &R, CellKind K);
  Slot *tenuredAlloc(size_t RegionIdx, CellKind K);
  void registerChunk(Chunk *Ch);
  /// The owning chunk, or null for pointers into other heaps (or no heap).
  Chunk *owningChunk(const void *Payload);

  void maybeCollect(Value *Car, Value *Cdr);
  void collectImpl(std::initializer_list<Value *> Extra, bool ForceMajor);
  void forEachRootSlot(const std::function<void(Value &)> &F,
                       std::initializer_list<Value *> Extra);
  /// Evacuates \p V's referent out of the nursery if it is ours and still
  /// there, rewriting \p V; appends newly copied conses to \p ScanList.
  void evacuate(Value &V, std::vector<Cons *> &ScanList);
  void majorMarkSweep(std::initializer_list<Value *> Extra);
  void markValue(Value V, std::vector<Cons *> &Work);
  void destroyPayload(Slot *S);

  Region Regions[NumRegions];

  mutable std::mutex RangeMu;
  std::vector<RangeEntry> Ranges; ///< sorted by Begin

  uint64_t GcEvery = 0;
  size_t BudgetBytes = 0;
  uint64_t AllocSinceGc = 0;
  std::atomic<size_t> NurseryLive{0}; ///< live (un-reset) nursery slots
  size_t TenuredLive = 0;             ///< tenured slots in use
  bool VerifyAfterGc = false;
  bool InGc = false;

  std::vector<Value *> ShadowStack;
  std::vector<RootProvider *> Providers;
  std::unordered_set<Cons *> RememberedOwn; ///< own tenured, maybe old->young
  std::unordered_set<Cons *> RememberedForeign; ///< foreign cells aimed here

  GcStats Stats;
};

/// True if \p V is a proper (NIL-terminated, acyclic within 2^32 cells) list.
bool isProperList(Value V);

/// The length of a proper list; asserts on improper lists.
size_t listLength(Value V);

/// Flattens a proper list into a vector; asserts on improper lists.
std::vector<Value> listToVector(Value V);

/// Structural equality: EQL on atoms (numbers compare by exact value and
/// type; symbols by identity; strings by contents) and recursive on conses.
bool equal(Value A, Value B);

/// Identity-or-number equality, the paper's EQL: symbols/conses by pointer,
/// numbers by type+value, strings by pointer.
bool eql(Value A, Value B);

} // namespace sexpr
} // namespace s1lisp

#endif // S1LISP_SEXPR_VALUE_H
