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
/// the table), but heap cells are collectible: a Heap is a non-moving
/// mark-sweep collector over slot chunks in thread-affine regions, each
/// with a free list. Collection is off by default — a heap with no GC
/// schedule configured is a grow-only allocator — and is enabled per-heap
/// with setGcEvery()/setHeapBudget().
///
/// Cells never move, but a GC-enabled heap frees every cell its roots do
/// not reach, so it requires the root discipline below (see "Root
/// discipline"); GC-enabled heaps are single-mutator.
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
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace s1lisp {
namespace sexpr {

class Value;

/// The names the front end tests operators, keywords and top-level heads
/// against, and the fixed names its expansions build. Every SymbolTable
/// interns them at construction and tags each with its id, so the front
/// end compares symbols by identity, never by spelling; every other
/// symbol is Known::None. knownName gives the spellings.
enum class Known : uint8_t {
  None,
  // The special forms: the basic set, then the macros expanded into it.
  Quote, If, Progn, Lambda, Setq, Go, Return,
  Let, LetStar, Cond, And, Or, When, Unless, Prog, Do, Dotimes, Dolist,
  Case, Caseq, Catch, Catcher, Prog1, Prog2, Function,
  // Lambda-list keywords and declarations.
  Optional, Rest, Declare, Special, Otherwise,
  // Top-level heads.
  Defun, Defvar, Defparameter, Proclaim,
  // Names the expansions build.
  T, V, F, DoLoop, DotimesLimit, DolistTail, Prog1Value, OnePlus,
  GreaterOrEqual, Car, Cdr, Null,
};
constexpr size_t NumKnown = static_cast<size_t>(Known::Null) + 1;
/// The special forms are the ids from Quote to Function.
constexpr Known FirstSpecialForm = Known::Quote;
constexpr Known LastSpecialForm = Known::Function;

/// The spelling of \p K ("" for Known::None).
std::string_view knownName(Known K);

/// An interned symbol. Pointer identity is symbol identity.
class Symbol {
public:
  explicit Symbol(std::string Name, Known Id = Known::None)
      : Name(std::move(Name)), Id(Id) {}
  const std::string &name() const { return Name; }
  /// Which of the front end's fixed names this symbol is.
  Known known() const { return Id; }

  /// The index of this symbol's entry in ir's primitive table, filled by
  /// ir::lookupPrim on its first lookup: -2 until then, -1 when the name
  /// is not a primitive. Every thread that fills it stores the same
  /// value, so relaxed loads and stores keep concurrent compiles
  /// race-free.
  mutable std::atomic<int32_t> PrimIndex{-2};

private:
  std::string Name;
  Known Id;
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
  /// The collector reads the payload pointers to find each cell's slot.
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

/// Interns symbols; owns their storage. Also pre-interns every Known name,
/// tagged with its id (T is Known::T; NIL-as-symbol is not used, NIL the
/// datum is ValueKind::Nil). Interning is thread-safe (interned
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

  /// The symbol spelled knownName(\p K), read without a lock.
  const Symbol *known(Known K) const {
    return KnownSyms[static_cast<size_t>(K)];
  }
  /// The symbol T (canonical true).
  const Symbol *t() const { return known(Known::T); }
  const Symbol *quote() const { return known(Known::Quote); }

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
  /// intern, tagging a new symbol with \p Id.
  const Symbol *internAs(std::string_view Name, Known Id);

  Shard Shards[NumShards];
  const Symbol *KnownSyms[NumKnown] = {};
};

/// Enumerates the Values a heap client keeps live across collections.
/// The interpreter implements this; the collector calls \c visitRoots
/// with a visitor it applies to every root value and marks from there.
class RootProvider {
public:
  virtual ~RootProvider() = default;
  virtual void visitRoots(const std::function<void(Value)> &Visit) = 0;
};

/// Counters one Heap's collector maintains. Kept per-heap (sexpr sits
/// below the stats registry in the library layering); the interpreter,
/// the VM, and the tools publish them into src/stats.
struct GcStats {
  uint64_t Collections = 0;
  uint64_t CellsSwept = 0;
  uint64_t PauseNsTotal = 0;
};

/// Allocates conses, strings, and ratios — and, when a GC schedule is
/// configured, collects them.
///
/// Storage is slot-chunked with thread affinity: each allocating thread
/// is assigned a region round-robin (cached thread-locally), so pipeline
/// workers allocate from effectively private regions and never contend on
/// a global allocation mutex. A new cell takes a slot from its region's
/// free list, or else bumps the region's newest chunk. A collection marks
/// every cell reachable from the roots and sweeps the rest onto their
/// regions' free lists; no cell ever moves.
///
/// Root discipline (GC-enabled heaps only): every Value held live across
/// an allocation must be reachable from a registered RootProvider, from
/// the shadow stack (pushRoot/popRoots/RootScope), or be one of cons()'s
/// own arguments (which cons roots itself). A cell of *another* heap that
/// is mutated to point at this heap's cells must be passed to
/// writeBarrier(). Heaps with GC enabled are single-mutator: the parallel
/// compiler pipeline always runs with GC off (the default), where
/// allocation is thread-safe and nothing is ever freed.
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
  Value list(std::span<const Value> Items);
  /// Builds the list of \p Items ending in \p Tail, every cons at \p Loc.
  /// On a GC-free heap the whole list takes one region lock and one update
  /// of the counters; a heap with a GC schedule conses cell by cell with
  /// \p Items rooted, since cons() is the only collection trigger.
  Value list(std::span<const Value> Items, Value Tail, SourceLocation Loc);

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

  /// Sets the heap budget in bytes. Without a gc-every schedule, a cons
  /// collects once the cells in use exceed the budget, but never twice
  /// within min(1 MB, budget/4) bytes of allocation. 0 (default) means
  /// unbounded.
  void setHeapBudget(size_t Bytes) { BudgetBytes = Bytes; }
  size_t heapBudget() const { return BudgetBytes; }

  bool gcEnabled() const { return GcEvery != 0 || BudgetBytes != 0; }

  /// Forces a collection now.
  void collect();

  //===--- Roots ----------------------------------------------------------===//

  void registerRootProvider(RootProvider *P);
  void unregisterRootProvider(RootProvider *P);

  /// Shadow stack for transient roots: each collection reads the
  /// pointed-to slots and keeps their current referents.
  void pushRoot(const Value *Slot) { ShadowStack.push_back(Slot); }
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
    void add(const Value *Slot) {
      H.pushRoot(Slot);
      ++N;
    }

  private:
    Heap &H;
    size_t N = 0;
  };

  /// Records that \p C's Car/Cdr were just mutated. A cell owned by
  /// *another* heap (a module literal pointing into a runtime heap, say)
  /// lands in the persistent cross-heap set: its fields are roots of
  /// every later collection. Own cells need nothing, since a collection
  /// traces them wherever they are reachable from.
  void writeBarrier(Cons *C);

  //===--- Verification and stats ----------------------------------------===//

  /// Debug walk over everything the roots reach: every reachable cell of
  /// this heap must be allocated (not on a free list), lie inside its
  /// chunk's live extent, and carry the kind its Value tag says. Returns
  /// false and fills \p Err on the first violation.
  bool verify(std::string *Err = nullptr);

  /// When set, every collection re-verifies the heap and aborts (with a
  /// message on stderr) on any violation — the fuzz GC schedules run
  /// with this on.
  void setVerifyAfterGc(bool On) { VerifyAfterGc = On; }

  const GcStats &gcStats() const { return Stats; }

  /// Cells currently allocated: allocated minus swept.
  size_t liveCells() const { return Live.load(std::memory_order_relaxed); }

private:
  enum class CellKind : uint8_t { ConsCell, StringCell, RatioCell };

  /// Per-cell metadata preceding every payload. alloc() sets it: a chunk's
  /// slots stay uninitialized until they are bumped into use.
  struct CellHeader {
    CellKind Kind;
    uint8_t Mark;
    uint8_t Free;
  };

  static constexpr size_t PayloadMax =
      sizeof(Cons) > sizeof(StringObj)
          ? (sizeof(Cons) > sizeof(Ratio) ? sizeof(Cons) : sizeof(Ratio))
          : (sizeof(StringObj) > sizeof(Ratio) ? sizeof(StringObj)
                                               : sizeof(Ratio));

  /// One uniform allocation slot: header plus payload storage big enough
  /// for any cell kind. Uniform slots keep chunk walking and free-list
  /// reuse kind-agnostic.
  struct Slot {
    CellHeader H;
    alignas(alignof(std::max_align_t)) unsigned char Payload[PayloadMax];
  };

  static constexpr size_t NumRegions = 16;     ///< power of two
  static constexpr size_t ChunkSlots = 1024;   ///< slots per chunk

  struct Chunk {
    std::unique_ptr<Slot[]> Slots; ///< ChunkSlots of them
    size_t Used = 0;
  };

  struct Region {
    mutable std::mutex Mu;
    /// Bump-allocated in order; only the last chunk has room to bump.
    std::vector<std::unique_ptr<Chunk>> Chunks;
    /// Slots the sweep freed, reused before bumping.
    std::vector<Slot *> FreeList;
    /// Monotone cons-allocation count, published for lock-free consCount().
    std::atomic<size_t> ConsTally{0};
    /// Whether a string was ever allocated here: only strings own storage
    /// the destructor must free slot by slot.
    bool HasStrings = false;
  };

  struct RangeEntry {
    const Slot *Begin;
    const Slot *End;
    Chunk *Ch;
  };

  /// The calling thread's region (stable for the thread's lifetime).
  Region &myRegion();

  static Slot *slotOf(void *Payload);
  /// The cell \p V points at, or null for an immediate.
  static void *payloadOf(Value V);

  /// Takes a slot in \p R, which the caller holds locked. The caller
  /// counts it into Live.
  Slot *alloc(Region &R, CellKind K);
  void registerChunk(Chunk *Ch);
  /// The chunk of \p Table holding \p Payload, or null for pointers into
  /// other heaps (or no heap).
  static Chunk *findChunk(const std::vector<RangeEntry> &Table,
                          const void *Payload);
  /// findChunk over the live range table, under its lock.
  Chunk *owningChunk(const void *Payload);
  /// A copy of the range table. Nothing allocates while a collection or a
  /// verify runs, so a copy taken at its start stays exact and spares
  /// them a lock per lookup.
  std::vector<RangeEntry> rangeSnapshot();

  void maybeCollect(Value Car, Value Cdr);
  void collectImpl(std::initializer_list<Value> Extra);
  /// Visits every root value: the shadow stack, the providers, \p Extra,
  /// and the fields of the cross-heap set.
  void forEachRoot(const std::function<void(Value)> &F,
                   std::initializer_list<Value> Extra);
  void markValue(Value V, const std::vector<RangeEntry> &Table,
                 std::vector<Cons *> &Work);
  void destroyPayload(Slot *S);

  Region Regions[NumRegions];

  mutable std::mutex RangeMu;
  std::vector<RangeEntry> Ranges; ///< sorted by Begin

  uint64_t GcEvery = 0;
  size_t BudgetBytes = 0;
  uint64_t AllocSinceGc = 0;      ///< conses since the last collection
  std::atomic<size_t> Live{0};    ///< allocated slots
  size_t LiveAfterGc = 0;         ///< Live when the last collection ended
  bool VerifyAfterGc = false;
  bool InGc = false;

  std::vector<const Value *> ShadowStack;
  std::vector<RootProvider *> Providers;
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
