//===- sexpr/Value.cpp ----------------------------------------------------===//

#include "sexpr/Value.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
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

SymbolTable::SymbolTable() {
  SymT = intern("t");
  SymQuote = intern("quote");
}

const Symbol *SymbolTable::intern(std::string_view Name) {
  Shard &S = Shards[StringHash{}(Name) & (NumShards - 1)];
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Map.find(Name);
  if (It != S.Map.end())
    return It->second;
  S.Storage.emplace_back(std::string(Name));
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
  // destructible.
  for (Region &R : Regions) {
    for (auto &Ch : R.Nursery)
      for (size_t I = 0; I < Ch->Used; ++I)
        destroyPayload(&Ch->Slots[I]);
    for (auto &Ch : R.Tenured)
      for (size_t I = 0; I < Ch->Used; ++I)
        if (!Ch->Slots[I].H.Free)
          destroyPayload(&Ch->Slots[I]);
  }
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

void Heap::registerChunk(Chunk *Ch) {
  std::lock_guard<std::mutex> Lock(RangeMu);
  RangeEntry E{Ch->Slots.get(), Ch->Slots.get() + Ch->Cap, Ch};
  Ranges.insert(std::upper_bound(Ranges.begin(), Ranges.end(), E,
                                 [](const RangeEntry &A, const RangeEntry &B) {
                                   return A.Begin < B.Begin;
                                 }),
                E);
}

Heap::Chunk *Heap::owningChunk(const void *Payload) {
  std::lock_guard<std::mutex> Lock(RangeMu);
  auto It = std::upper_bound(Ranges.begin(), Ranges.end(), Payload,
                             [](const void *P, const RangeEntry &E) {
                               return P < static_cast<const void *>(E.Begin);
                             });
  if (It == Ranges.begin())
    return nullptr;
  --It;
  if (Payload < static_cast<const void *>(It->End))
    return It->Ch;
  return nullptr;
}

Heap::Slot *Heap::nurseryAlloc(Region &R, CellKind K) {
  // Advance past full chunks (capacity is reused across collections; a
  // reset just rewinds Used and ActiveNursery).
  while (R.ActiveNursery < R.Nursery.size() &&
         R.Nursery[R.ActiveNursery]->Used == R.Nursery[R.ActiveNursery]->Cap)
    ++R.ActiveNursery;
  if (R.ActiveNursery == R.Nursery.size()) {
    auto Ch = std::make_unique<Chunk>();
    Ch->Slots = std::make_unique<Slot[]>(ChunkSlots);
    Ch->Cap = ChunkSlots;
    Ch->Nursery = true;
    Ch->RegionIdx = static_cast<size_t>(&R - Regions);
    registerChunk(Ch.get());
    R.Nursery.push_back(std::move(Ch));
  }
  Chunk &Ch = *R.Nursery[R.ActiveNursery];
  Slot *S = &Ch.Slots[Ch.Used++];
  S->H = CellHeader{K, 0, 0, 0, nullptr};
  NurseryLive.fetch_add(1, std::memory_order_relaxed);
  return S;
}

Heap::Slot *Heap::tenuredAlloc(size_t RegionIdx, CellKind K) {
  Region &R = Regions[RegionIdx];
  std::lock_guard<std::mutex> Lock(R.Mu);
  Slot *S = nullptr;
  if (!R.FreeList.empty()) {
    S = R.FreeList.back();
    R.FreeList.pop_back();
  } else {
    if (R.Tenured.empty() || R.Tenured.back()->Used == R.Tenured.back()->Cap) {
      auto Ch = std::make_unique<Chunk>();
      Ch->Slots = std::make_unique<Slot[]>(ChunkSlots);
      Ch->Cap = ChunkSlots;
      Ch->Nursery = false;
      Ch->RegionIdx = RegionIdx;
      registerChunk(Ch.get());
      R.Tenured.push_back(std::move(Ch));
    }
    Chunk &Ch = *R.Tenured.back();
    S = &Ch.Slots[Ch.Used++];
  }
  S->H = CellHeader{K, 0, 0, 0, nullptr};
  ++TenuredLive;
  return S;
}

Value Heap::cons(Value Car, Value Cdr, SourceLocation Loc) {
  // The only collection trigger. cons() roots its own arguments, so
  // callers never need to; the trigger runs before any lock is taken.
  if (gcEnabled() && !InGc)
    maybeCollect(&Car, &Cdr);
  Region &R = myRegion();
  std::lock_guard<std::mutex> Lock(R.Mu);
  Slot *S = nurseryAlloc(R, CellKind::ConsCell);
  Cons *C = new (S->Payload) Cons{Car, Cdr, Loc};
  R.ConsTally.fetch_add(1, std::memory_order_release);
  return Value::cons(C);
}

Value Heap::string(std::string S) {
  Region &R = myRegion();
  std::lock_guard<std::mutex> Lock(R.Mu);
  Slot *Sl = nurseryAlloc(R, CellKind::StringCell);
  StringObj *O = new (Sl->Payload) StringObj{std::move(S)};
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
  Slot *Sl = nurseryAlloc(R, CellKind::RatioCell);
  Ratio *Rt = new (Sl->Payload) Ratio{Num, Den};
  return Value::ratio(Rt);
}

Value Heap::list(std::initializer_list<Value> Items) {
  return list(std::vector<Value>(Items));
}

Value Heap::list(const std::vector<Value> &Items) {
  // A collection triggered by one of the conses below would move cells
  // the remaining items still point at, so root a mutable copy. Rooting
  // is skipped on GC-free heaps: the shadow stack is single-mutator
  // state, and the parallel compiler pipeline (always GC-free) calls
  // list() from worker threads.
  std::vector<Value> Tmp(Items);
  RootScope Roots(*this);
  if (gcEnabled())
    for (Value &V : Tmp)
      Roots.add(&V);
  Value Result = Value::nil();
  for (size_t I = Tmp.size(); I > 0; --I)
    Result = cons(Tmp[I - 1], Result);
  return Result;
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
  if (!gcEnabled())
    return;
  Chunk *Ch = owningChunk(C);
  if (!Ch) {
    // A cell of another heap was just pointed (possibly) at our cells: it
    // becomes a permanent external root. It is never cleared — dropping
    // it at a major collection would let the sweep free cells the foreign
    // heap still reaches.
    RememberedForeign.insert(C);
    return;
  }
  // Own nursery cells are scanned when they are evacuated, so only
  // tenured cells can hide an old-to-young edge.
  if (!Ch->Nursery)
    RememberedOwn.insert(C);
}

void Heap::maybeCollect(Value *Car, Value *Cdr) {
  ++AllocSinceGc;
  bool Trigger = false;
  if (GcEvery != 0) {
    Trigger = AllocSinceGc >= GcEvery;
  } else if (BudgetBytes != 0) {
    size_t Limit = std::min<size_t>(size_t(1) << 20,
                                    std::max<size_t>(BudgetBytes / 4, 1));
    Trigger = NurseryLive.load(std::memory_order_relaxed) * sizeof(Slot) >=
              Limit;
  }
  if (!Trigger)
    return;
  AllocSinceGc = 0;
  collectImpl({Car, Cdr}, /*ForceMajor=*/false);
}

void Heap::collect() { collectImpl({}, /*ForceMajor=*/true); }

void Heap::forEachRootSlot(const std::function<void(Value &)> &F,
                           std::initializer_list<Value *> Extra) {
  for (Value *V : ShadowStack)
    F(*V);
  for (RootProvider *P : Providers)
    P->visitRoots(F);
  for (Value *V : Extra)
    if (V)
      F(*V);
}

void Heap::evacuate(Value &V, std::vector<Cons *> &Scan) {
  void *P = nullptr;
  switch (V.kind()) {
  case ValueKind::Cons:
    P = V.C;
    break;
  case ValueKind::String:
    P = const_cast<StringObj *>(V.Str);
    break;
  case ValueKind::Ratio:
    P = const_cast<Ratio *>(V.Rat);
    break;
  default:
    return;
  }
  Chunk *Ch = owningChunk(P);
  if (!Ch || !Ch->Nursery)
    return; // another heap's cell, or already tenured
  Slot *S = slotOf(P);
  if (!S->H.Forward) {
    Slot *NS = tenuredAlloc(Ch->RegionIdx, S->H.Kind);
    switch (S->H.Kind) {
    case CellKind::ConsCell: {
      Cons *NC = new (NS->Payload) Cons(*reinterpret_cast<Cons *>(P));
      S->H.Forward = NC;
      Scan.push_back(NC);
      break;
    }
    case CellKind::StringCell: {
      auto *Old = reinterpret_cast<StringObj *>(P);
      S->H.Forward = new (NS->Payload) StringObj{std::move(Old->Str)};
      break;
    }
    case CellKind::RatioCell:
      S->H.Forward = new (NS->Payload) Ratio(*reinterpret_cast<Ratio *>(P));
      break;
    }
    ++Stats.CellsPromoted;
    Stats.BytesPromoted += sizeof(Slot);
  }
  switch (V.kind()) {
  case ValueKind::Cons:
    V.C = static_cast<Cons *>(S->H.Forward);
    break;
  case ValueKind::String:
    V.Str = static_cast<StringObj *>(S->H.Forward);
    break;
  case ValueKind::Ratio:
    V.Rat = static_cast<Ratio *>(S->H.Forward);
    break;
  default:
    break;
  }
}

void Heap::markValue(Value V, std::vector<Cons *> &Work) {
  void *P = nullptr;
  switch (V.kind()) {
  case ValueKind::Cons:
    P = V.C;
    break;
  case ValueKind::String:
    P = const_cast<StringObj *>(V.Str);
    break;
  case ValueKind::Ratio:
    P = const_cast<Ratio *>(V.Rat);
    break;
  default:
    return;
  }
  Chunk *Ch = owningChunk(P);
  if (!Ch)
    return;
  Slot *S = slotOf(P);
  if (S->H.Mark)
    return;
  S->H.Mark = 1;
  if (S->H.Kind == CellKind::ConsCell)
    Work.push_back(reinterpret_cast<Cons *>(P));
}

void Heap::destroyPayload(Slot *S) {
  if (S->H.Kind == CellKind::StringCell)
    reinterpret_cast<StringObj *>(S->Payload)->~StringObj();
}

void Heap::majorMarkSweep(std::initializer_list<Value *> Extra) {
  ++Stats.MajorCollections;
  std::vector<Cons *> Work;
  forEachRootSlot([this, &Work](Value &V) { markValue(V, Work); }, Extra);
  // Mutated foreign cells reach into this heap from outside; their fields
  // are external roots for the sweep.
  for (Cons *C : RememberedForeign) {
    markValue(C->Car, Work);
    markValue(C->Cdr, Work);
  }
  while (!Work.empty()) {
    Cons *C = Work.back();
    Work.pop_back();
    markValue(C->Car, Work);
    markValue(C->Cdr, Work);
  }
  for (Region &R : Regions) {
    std::lock_guard<std::mutex> Lock(R.Mu);
    for (auto &Ch : R.Tenured)
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
        ++Stats.CellsSwept;
        Stats.BytesSwept += sizeof(Slot);
        --TenuredLive;
      }
  }
}

void Heap::collectImpl(std::initializer_list<Value *> Extra, bool ForceMajor) {
  if (InGc)
    return;
  InGc = true;
  auto T0 = std::chrono::steady_clock::now();

  // Minor collection: evacuate every reachable nursery cell into the
  // tenured generation (Cheney-style worklist over copied conses), then
  // reset the nursery for reuse.
  std::vector<Cons *> Scan;
  forEachRootSlot([this, &Scan](Value &V) { evacuate(V, Scan); }, Extra);
  for (Cons *C : RememberedOwn) {
    evacuate(C->Car, Scan);
    evacuate(C->Cdr, Scan);
  }
  for (Cons *C : RememberedForeign) {
    evacuate(C->Car, Scan);
    evacuate(C->Cdr, Scan);
  }
  while (!Scan.empty()) {
    Cons *C = Scan.back();
    Scan.pop_back();
    evacuate(C->Car, Scan);
    evacuate(C->Cdr, Scan);
  }
  // Old-to-young edges were promoted along with everything else; the
  // write barrier repopulates this set as the mutator runs on.
  RememberedOwn.clear();

  for (Region &R : Regions) {
    std::lock_guard<std::mutex> Lock(R.Mu);
    for (auto &Ch : R.Nursery) {
      // Forwarded strings hold a moved-from std::string; dead ones hold a
      // live one. Both destruct safely.
      for (size_t I = 0; I < Ch->Used; ++I)
        destroyPayload(&Ch->Slots[I]);
      Ch->Used = 0;
    }
    R.ActiveNursery = 0;
  }
  NurseryLive.store(0, std::memory_order_relaxed);
  ++Stats.Collections;

  if (ForceMajor ||
      (BudgetBytes != 0 && TenuredLive * sizeof(Slot) > BudgetBytes))
    majorMarkSweep(Extra);

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

  // 1. Reachability: every cell reachable from the registered roots must
  //    be un-forwarded, un-freed, kind-consistent, and inside its chunk's
  //    live extent.
  std::unordered_set<const void *> Visited;
  std::vector<Value> Work;
  forEachRootSlot([&Work](Value &V) { Work.push_back(V); }, {});
  for (Cons *C : RememberedForeign) {
    Work.push_back(C->Car);
    Work.push_back(C->Cdr);
  }
  while (!Work.empty()) {
    Value V = Work.back();
    Work.pop_back();
    void *P = nullptr;
    switch (V.kind()) {
    case ValueKind::Cons:
      P = V.C;
      break;
    case ValueKind::String:
      P = const_cast<StringObj *>(V.Str);
      break;
    case ValueKind::Ratio:
      P = const_cast<Ratio *>(V.Rat);
      break;
    default:
      continue;
    }
    Chunk *Ch = owningChunk(P);
    if (!Ch)
      continue; // another heap's cell; it validates there
    if (!Visited.insert(P).second)
      continue;
    Slot *S = slotOf(P);
    if (S->H.Forward)
      return Fail("reachable cell still carries a forwarding pointer");
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

  // 2. No live nursery cons may point at freed space, and no tenured slot
  //    may carry a stale forwarding pointer.
  for (Region &R : Regions) {
    std::lock_guard<std::mutex> Lock(R.Mu);
    for (auto &Ch : R.Nursery)
      for (size_t I = 0; I < Ch->Used; ++I) {
        Slot &S = Ch->Slots[I];
        if (S.H.Free)
          return Fail("nursery slot marked free");
        if (S.H.Kind != CellKind::ConsCell || S.H.Forward)
          continue;
        Cons *C = reinterpret_cast<Cons *>(S.Payload);
        for (Value Child : {C->Car, C->Cdr}) {
          void *CP = nullptr;
          if (Child.isCons())
            CP = Child.C;
          else if (Child.isString())
            CP = const_cast<StringObj *>(Child.Str);
          else if (Child.isRatio())
            CP = const_cast<Ratio *>(Child.Rat);
          if (!CP || !owningChunk(CP))
            continue;
          if (slotOf(CP)->H.Free)
            return Fail("live nursery cell points at freed space");
        }
      }
    for (auto &Ch : R.Tenured)
      for (size_t I = 0; I < Ch->Used; ++I)
        if (!Ch->Slots[I].H.Free && Ch->Slots[I].H.Forward)
          return Fail("tenured slot carries a forwarding pointer");
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
