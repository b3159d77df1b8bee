//===- service/CompileCache.cpp -------------------------------------------===//

#include "service/CompileCache.h"

#include "stats/Stats.h"

using namespace s1lisp;
using namespace s1lisp::service;

S1_STAT(CacheHits, "service.cache.hits", "compile-cache hits");
S1_STAT(CacheMisses, "service.cache.misses", "compile-cache misses");
S1_STAT(CacheEvictions, "service.cache.evictions",
        "compile-cache entries evicted for the byte budget");
S1_STAT(FrontHits, "service.front.hits", "front-cache hits");
S1_STAT(FrontMisses, "service.front.misses", "front-cache misses");

CompileCache::Entry *CompileCache::findLocked(uint64_t Key) {
  auto It = Map.find(Key);
  if (It == Map.end())
    return nullptr;
  Lru.splice(Lru.begin(), Lru, It->second.LruIt);
  return &It->second;
}

std::shared_ptr<const driver::MemoizedFunction>
CompileCache::lookup(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  Entry *E = findLocked(Key);
  if (!E || !E->Fn) {
    ++Misses_;
    ++CacheMisses;
    return nullptr;
  }
  ++Hits_;
  ++CacheHits;
  return E->Fn;
}

std::shared_ptr<const driver::FrontEntry>
CompileCache::lookupFront(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  Entry *E = findLocked(Key);
  if (!E || !E->Front) {
    ++FrontMisses_;
    ++FrontMisses;
    return nullptr;
  }
  ++FrontHits_;
  ++FrontHits;
  return E->Front;
}

void CompileCache::insert(uint64_t Key,
                          std::shared_ptr<const driver::MemoizedFunction> Fn) {
  if (!Fn)
    return;
  const size_t Bytes = Fn->byteSize();
  std::lock_guard<std::mutex> Lock(Mu);
  insertLocked(Key, Entry{std::move(Fn), nullptr, Bytes, {}});
}

void CompileCache::insertFront(
    uint64_t Key, std::shared_ptr<const driver::FrontEntry> Front) {
  if (!Front)
    return;
  const size_t Bytes = Front->byteSize();
  std::lock_guard<std::mutex> Lock(Mu);
  insertLocked(Key, Entry{nullptr, std::move(Front), Bytes, {}});
}

void CompileCache::insertLocked(uint64_t Key, Entry E) {
  if (E.Bytes > MaxBytes_)
    return;
  // Concurrent compiles of the same function can both miss and both
  // insert; keep the first and refresh its position. A remarks request's
  // recompile of a unit stored without remarks replaces it.
  if (Entry *Old = findLocked(Key)) {
    if (!Old->Fn || !E.Fn || Old->Fn->Remarks || !E.Fn->Remarks)
      return;
    Bytes_ = Bytes_ - Old->Bytes + E.Bytes;
    Old->Fn = std::move(E.Fn);
    Old->Bytes = E.Bytes;
    evictLocked();
    return;
  }
  Lru.push_front(Key);
  E.LruIt = Lru.begin();
  Bytes_ += E.Bytes;
  FrontEntries_ += E.Front ? 1 : 0;
  Map.emplace(Key, std::move(E));
  evictLocked();
}

void CompileCache::evictLocked() {
  while (Bytes_ > MaxBytes_ && !Lru.empty()) {
    uint64_t Victim = Lru.back();
    Lru.pop_back();
    auto It = Map.find(Victim);
    Bytes_ -= It->second.Bytes;
    if (It->second.Front) {
      --FrontEntries_;
    } else {
      ++Evictions_;
      ++CacheEvictions;
    }
    Map.erase(It);
  }
}

void CompileCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Map.clear();
  Lru.clear();
  FrontEntries_ = 0;
  Bytes_ = 0;
}

size_t CompileCache::entries() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Map.size() - FrontEntries_;
}

size_t CompileCache::frontEntries() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return FrontEntries_;
}

size_t CompileCache::bytes() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Bytes_;
}

size_t CompileCache::maxBytes() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return MaxBytes_;
}

void CompileCache::setMaxBytes(size_t MaxBytes) {
  std::lock_guard<std::mutex> Lock(Mu);
  MaxBytes_ = MaxBytes;
  evictLocked();
}

uint64_t CompileCache::hits() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Hits_;
}

uint64_t CompileCache::misses() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Misses_;
}

uint64_t CompileCache::evictions() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Evictions_;
}

uint64_t CompileCache::frontHits() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return FrontHits_;
}

uint64_t CompileCache::frontMisses() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return FrontMisses_;
}
