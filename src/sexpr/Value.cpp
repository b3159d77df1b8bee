//===- sexpr/Value.cpp ----------------------------------------------------===//

#include "sexpr/Value.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <numeric>

using namespace s1lisp;
using namespace s1lisp::sexpr;

const std::string &Value::stringValue() const {
  assert(isString() && "not a string");
  return Str->Str;
}

Value Value::car() const {
  if (isNil())
    return Value::nil();
  assert(isCons() && "car of a non-list");
  return C->Car;
}

Value Value::cdr() const {
  if (isNil())
    return Value::nil();
  assert(isCons() && "cdr of a non-list");
  return C->Cdr;
}

namespace {

/// Known's spellings, in its order.
constexpr std::string_view KnownNames[] = {
    "",
    // The special forms.
    "quote", "if", "progn", "lambda", "setq", "go", "return", "let", "let*",
    "cond", "and", "or", "when", "unless", "prog", "do", "dotimes", "dolist",
    "case", "caseq", "catch", "catcher", "prog1", "prog2", "function",
    // Lambda-list keywords and declarations.
    "&optional", "&rest", "declare", "special", "otherwise",
    // Top-level heads.
    "defun", "defvar", "defparameter", "proclaim",
    // Names the expansions build.
    "t", "v", "f", "do-loop", "dotimes-limit", "dolist-tail", "prog1-value",
    "1+", ">=", "car", "cdr", "null"};
static_assert(std::size(KnownNames) == NumKnown,
              "one spelling per Known id");

} // namespace

std::string_view sexpr::knownName(Known K) {
  return KnownNames[static_cast<size_t>(K)];
}

SymbolTable::SymbolTable() {
  for (size_t K = 1; K < NumKnown; ++K)
    KnownSyms[K] = internAs(KnownNames[K], static_cast<Known>(K));
}

const Symbol *SymbolTable::intern(std::string_view Name) {
  return internAs(Name, Known::None);
}

const Symbol *SymbolTable::internAs(std::string_view Name, Known Id) {
  Shard &S = Shards[StringHash{}(Name) & (NumShards - 1)];
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Map.find(Name);
  if (It != S.Map.end())
    return It->second;
  S.Storage.emplace_back(std::string(Name), Id);
  const Symbol *Sym = &S.Storage.back();
  S.Map.emplace(std::string(Name), Sym);
  S.Count.store(S.Map.size(), std::memory_order_release);
  return Sym;
}

//===----------------------------------------------------------------------===//
// Heap: allocation
//===----------------------------------------------------------------------===//

Heap::Heap() = default;

Heap::~Heap() {
  // Only strings own out-of-line storage; conses and ratios are trivially
  // destructible, so a region that never held a string frees its chunks
  // without visiting their slots.
  for (Region &R : Regions)
    if (R.HasStrings)
      for (auto &Ch : R.Chunks)
        for (size_t I = 0; I < Ch->Used; ++I)
          if (!Ch->Slots[I].H.Free)
            destroyPayload(&Ch->Slots[I]);
}

Heap::Region &Heap::myRegion() {
  // Threads take regions round-robin: the parallel pipeline's handful of
  // workers each get a private region; collisions only appear past
  // NumRegions live allocating threads, and are still correct (the region
  // mutex covers them).
  static std::atomic<size_t> NextSlot{0};
  thread_local const size_t Slot =
      NextSlot.fetch_add(1, std::memory_order_relaxed);
  return Regions[Slot & (NumRegions - 1)];
}

Heap::Slot *Heap::slotOf(void *Payload) {
  return reinterpret_cast<Slot *>(static_cast<char *>(Payload) -
                                  offsetof(Slot, Payload));
}

void *Heap::payloadOf(Value V) {
  switch (V.kind()) {
  case ValueKind::Cons:
    return V.C;
  case ValueKind::String:
    return const_cast<StringObj *>(V.Str);
  case ValueKind::Ratio:
    return const_cast<Ratio *>(V.Rat);
  default:
    return nullptr;
  }
}

void Heap::registerChunk(Chunk *Ch) {
  std::lock_guard<std::mutex> Lock(RangeMu);
  RangeEntry E{Ch->Slots.get(), Ch->Slots.get() + ChunkSlots, Ch};
  Ranges.insert(std::upper_bound(Ranges.begin(), Ranges.end(), E,
                                 [](const RangeEntry &A, const RangeEntry &B) {
                                   return A.Begin < B.Begin;
                                 }),
                E);
}

Heap::Chunk *Heap::findChunk(const std::vector<RangeEntry> &Table,
                             const void *Payload) {
  auto It = std::upper_bound(Table.begin(), Table.end(), Payload,
                             [](const void *P, const RangeEntry &E) {
                               return P < static_cast<const void *>(E.Begin);
                             });
  if (It == Table.begin())
    return nullptr;
  --It;
  if (Payload < static_cast<const void *>(It->End))
    return It->Ch;
  return nullptr;
}

Heap::Chunk *Heap::owningChunk(const void *Payload) {
  std::lock_guard<std::mutex> Lock(RangeMu);
  return findChunk(Ranges, Payload);
}

std::vector<Heap::RangeEntry> Heap::rangeSnapshot() {
  std::lock_guard<std::mutex> Lock(RangeMu);
  return Ranges;
}

Heap::Slot *Heap::alloc(Region &R, CellKind K) {
  Slot *S;
  if (!R.FreeList.empty()) {
    S = R.FreeList.back();
    R.FreeList.pop_back();
  } else {
    if (R.Chunks.empty() || R.Chunks.back()->Used == ChunkSlots) {
      auto Ch = std::make_unique<Chunk>();
      Ch->Slots = std::make_unique_for_overwrite<Slot[]>(ChunkSlots);
      registerChunk(Ch.get());
      R.Chunks.push_back(std::move(Ch));
    }
    Chunk &Ch = *R.Chunks.back();
    S = &Ch.Slots[Ch.Used++];
  }
  S->H = CellHeader{K, 0, 0};
  return S;
}

Value Heap::cons(Value Car, Value Cdr, SourceLocation Loc) {
  // The only collection trigger. cons() roots its own arguments, so
  // callers never need to; the trigger runs before any lock is taken.
  if (gcEnabled() && !InGc)
    maybeCollect(Car, Cdr);
  Region &R = myRegion();
  std::lock_guard<std::mutex> Lock(R.Mu);
  Slot *S = alloc(R, CellKind::ConsCell);
  Cons *C = new (S->Payload) Cons{Car, Cdr, Loc};
  Live.fetch_add(1, std::memory_order_relaxed);
  R.ConsTally.fetch_add(1, std::memory_order_release);
  return Value::cons(C);
}

Value Heap::string(std::string S) {
  Region &R = myRegion();
  std::lock_guard<std::mutex> Lock(R.Mu);
  Slot *Sl = alloc(R, CellKind::StringCell);
  StringObj *O = new (Sl->Payload) StringObj{std::move(S)};
  R.HasStrings = true;
  Live.fetch_add(1, std::memory_order_relaxed);
  return Value::string(O);
}

Value Heap::makeRatio(int64_t Num, int64_t Den) {
  assert(Den != 0 && "ratio with zero denominator");
  if (Den < 0) {
    Num = -Num;
    Den = -Den;
  }
  int64_t G = std::gcd(Num < 0 ? -Num : Num, Den);
  if (G > 1) {
    Num /= G;
    Den /= G;
  }
  if (Den == 1)
    return Value::fixnum(Num);
  Region &R = myRegion();
  std::lock_guard<std::mutex> Lock(R.Mu);
  Slot *Sl = alloc(R, CellKind::RatioCell);
  Ratio *Rt = new (Sl->Payload) Ratio{Num, Den};
  Live.fetch_add(1, std::memory_order_relaxed);
  return Value::ratio(Rt);
}

Value Heap::list(std::initializer_list<Value> Items) {
  return list(std::span<const Value>(Items.begin(), Items.size()));
}

Value Heap::list(std::span<const Value> Items) {
  return list(Items, Value::nil(), SourceLocation());
}

Value Heap::list(std::span<const Value> Items, Value Tail,
                 SourceLocation Loc) {
  if (gcEnabled()) {
    // A collection triggered by one of the conses below would free items
    // nothing else reaches yet, so root them (each cons roots the tail it
    // extends).
    RootScope Roots(*this);
    for (const Value &V : Items)
      Roots.add(&V);
    for (size_t I = Items.size(); I > 0; --I)
      Tail = cons(Items[I - 1], Tail, Loc);
    return Tail;
  }
  // Nothing collects: the parallel compiler pipeline's workers (always
  // GC-free) build whole lists under one lock of their own region.
  if (Items.empty())
    return Tail;
  Region &R = myRegion();
  std::lock_guard<std::mutex> Lock(R.Mu);
  for (size_t I = Items.size(); I > 0; --I) {
    Slot *S = alloc(R, CellKind::ConsCell);
    Tail = Value::cons(new (S->Payload) Cons{Items[I - 1], Tail, Loc});
  }
  Live.fetch_add(Items.size(), std::memory_order_relaxed);
  R.ConsTally.fetch_add(Items.size(), std::memory_order_release);
  return Tail;
}

//===----------------------------------------------------------------------===//
// Heap: collection
//===----------------------------------------------------------------------===//

void Heap::registerRootProvider(RootProvider *P) { Providers.push_back(P); }

void Heap::unregisterRootProvider(RootProvider *P) {
  Providers.erase(std::remove(Providers.begin(), Providers.end(), P),
                  Providers.end());
}

void Heap::writeBarrier(Cons *C) {
  // A cell of another heap was just pointed (possibly) at our cells: it
  // becomes a permanent external root. It is never cleared — dropping it
  // would let a sweep free cells the foreign heap still reaches.
  if (gcEnabled() && !owningChunk(C))
    RememberedForeign.insert(C);
}

void Heap::maybeCollect(Value Car, Value Cdr) {
  bool Trigger;
  if (GcEvery != 0) {
    Trigger = ++AllocSinceGc >= GcEvery;
  } else {
    // Over budget, but spaced out: a live set near the budget must not
    // turn every cons into a collection.
    size_t Spacing = std::min<size_t>(size_t(1) << 20,
                                      std::max<size_t>(BudgetBytes / 4, 1));
    size_t InUse = liveCells();
    Trigger = InUse * sizeof(Slot) > BudgetBytes &&
              (InUse - LiveAfterGc) * sizeof(Slot) >= Spacing;
  }
  if (Trigger)
    collectImpl({Car, Cdr});
}

void Heap::collect() { collectImpl({}); }

void Heap::forEachRoot(const std::function<void(Value)> &F,
                       std::initializer_list<Value> Extra) {
  for (const Value *V : ShadowStack)
    F(*V);
  for (RootProvider *P : Providers)
    P->visitRoots(F);
  for (Value V : Extra)
    F(V);
  // Mutated foreign cells reach into this heap from outside.
  for (Cons *C : RememberedForeign) {
    F(C->Car);
    F(C->Cdr);
  }
}

void Heap::markValue(Value V, const std::vector<RangeEntry> &Table,
                     std::vector<Cons *> &Work) {
  void *P = payloadOf(V);
  if (!P || !findChunk(Table, P))
    return; // an immediate, or another heap's cell
  Slot *S = slotOf(P);
  if (S->H.Mark)
    return;
  S->H.Mark = 1;
  if (S->H.Kind == CellKind::ConsCell)
    Work.push_back(static_cast<Cons *>(P));
}

void Heap::destroyPayload(Slot *S) {
  if (S->H.Kind == CellKind::StringCell)
    reinterpret_cast<StringObj *>(S->Payload)->~StringObj();
}

void Heap::collectImpl(std::initializer_list<Value> Extra) {
  if (InGc)
    return;
  InGc = true;
  auto T0 = std::chrono::steady_clock::now();

  const std::vector<RangeEntry> Table = rangeSnapshot();
  std::vector<Cons *> Work;
  forEachRoot([&](Value V) { markValue(V, Table, Work); }, Extra);
  while (!Work.empty()) {
    Cons *C = Work.back();
    Work.pop_back();
    markValue(C->Car, Table, Work);
    markValue(C->Cdr, Table, Work);
  }
  size_t Swept = 0;
  for (Region &R : Regions) {
    std::lock_guard<std::mutex> Lock(R.Mu);
    for (auto &Ch : R.Chunks)
      for (size_t I = 0; I < Ch->Used; ++I) {
        Slot &S = Ch->Slots[I];
        if (S.H.Free)
          continue;
        if (S.H.Mark) {
          S.H.Mark = 0;
          continue;
        }
        destroyPayload(&S);
        S.H.Free = 1;
        R.FreeList.push_back(&S);
        ++Swept;
      }
  }
  Live.fetch_sub(Swept, std::memory_order_relaxed);
  Stats.CellsSwept += Swept;
  ++Stats.Collections;
  AllocSinceGc = 0;
  LiveAfterGc = liveCells();

  auto Ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
  Stats.PauseNsTotal += Ns;

  InGc = false;

  if (VerifyAfterGc) {
    std::string Err;
    if (!verify(&Err)) {
      fprintf(stderr, "s1lisp: heap verification failed after GC: %s\n",
              Err.c_str());
      abort();
    }
  }
}

bool Heap::verify(std::string *Err) {
  auto Fail = [&](const char *M) {
    if (Err)
      *Err = M;
    return false;
  };

  const std::vector<RangeEntry> Table = rangeSnapshot();
  std::unordered_set<const void *> Visited;
  std::vector<Value> Work;
  forEachRoot([&Work](Value V) { Work.push_back(V); }, {});
  while (!Work.empty()) {
    Value V = Work.back();
    Work.pop_back();
    void *P = payloadOf(V);
    Chunk *Ch = P ? findChunk(Table, P) : nullptr;
    if (!Ch || !Visited.insert(P).second)
      continue; // an immediate, another heap's cell, or already checked
    Slot *S = slotOf(P);
    if (S->H.Free)
      return Fail("reachable cell lies in freed space");
    if (static_cast<size_t>(S - Ch->Slots.get()) >= Ch->Used)
      return Fail("reachable cell beyond its chunk's live extent");
    if ((V.isCons() && S->H.Kind != CellKind::ConsCell) ||
        (V.isString() && S->H.Kind != CellKind::StringCell) ||
        (V.isRatio() && S->H.Kind != CellKind::RatioCell))
      return Fail("reachable cell's header kind disagrees with its tag");
    if (V.isCons()) {
      Work.push_back(V.car());
      Work.push_back(V.cdr());
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Free functions
//===----------------------------------------------------------------------===//

bool sexpr::isProperList(Value V) {
  while (V.isCons())
    V = V.cdr();
  return V.isNil();
}

size_t sexpr::listLength(Value V) {
  size_t N = 0;
  while (V.isCons()) {
    ++N;
    V = V.cdr();
  }
  assert(V.isNil() && "listLength of an improper list");
  return N;
}

std::vector<Value> sexpr::listToVector(Value V) {
  std::vector<Value> Out;
  while (V.isCons()) {
    Out.push_back(V.car());
    V = V.cdr();
  }
  assert(V.isNil() && "listToVector of an improper list");
  return Out;
}

bool sexpr::eql(Value A, Value B) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case ValueKind::Nil:
    return true;
  case ValueKind::Symbol:
    return A.symbol() == B.symbol();
  case ValueKind::Fixnum:
    return A.fixnum() == B.fixnum();
  case ValueKind::Flonum:
    return A.flonum() == B.flonum();
  case ValueKind::Ratio:
    return A.ratio().Num == B.ratio().Num && A.ratio().Den == B.ratio().Den;
  case ValueKind::String:
    return &A.stringValue() == &B.stringValue();
  case ValueKind::Cons:
    return A.consCell() == B.consCell();
  }
  return false;
}

bool sexpr::equal(Value A, Value B) {
  if (A.kind() != B.kind())
    return false;
  if (A.isCons())
    return equal(A.car(), B.car()) && equal(A.cdr(), B.cdr());
  if (A.isString())
    return A.stringValue() == B.stringValue();
  return eql(A, B);
}
