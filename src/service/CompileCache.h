//===- service/CompileCache.h - Content-addressed unit cache ----*- C++ -*-===//
///
/// \file
/// The compile service's content-addressed compilation cache: a
/// thread-safe LRU map from driver memo keys (a defun's front key ×
/// options fingerprint × callee-index signature, see driver::FunctionMemo)
/// to memoized per-function compiles, bounded by a byte budget. A hit
/// hands back the shared relocatable unit plus the counter deltas, and
/// the remarks when the request that stored it asked for them, that a
/// fresh compile would have produced, so a warm daemon links
/// bit-identical programs without running the middle end.
///
/// The same LRU and budget hold the front cache's entries (a defun's
/// source text × the specials before it → driver::FrontEntry), so a warm
/// daemon skips the reader and the front end too. entries(), hits(),
/// misses() and evictions() count function units only; the front*
/// accessors count front traffic, which includes a miss for every
/// top-level form that is not a remembered defun.
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_SERVICE_COMPILECACHE_H
#define S1LISP_SERVICE_COMPILECACHE_H

#include "driver/Compiler.h"

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

namespace s1lisp {
namespace service {

class CompileCache : public driver::FunctionMemo {
public:
  static constexpr size_t DefaultMaxBytes = 256u << 20;

  explicit CompileCache(size_t MaxBytes = DefaultMaxBytes)
      : MaxBytes_(MaxBytes) {}

  /// FunctionMemo: returns the entry (refreshing its LRU position) or
  /// null. Counts service.cache.{hits,misses}.
  std::shared_ptr<const driver::MemoizedFunction> lookup(uint64_t Key) override;

  /// FunctionMemo: stores \p Fn under \p Key, then evicts
  /// least-recently-used entries until the byte budget holds. An entry
  /// larger than the whole budget is not stored. A unit already under
  /// \p Key stays, unless \p Fn holds remarks and it does not.
  void insert(uint64_t Key,
              std::shared_ptr<const driver::MemoizedFunction> Fn) override;

  /// FunctionMemo: the front cache's lookup and insert, with the same
  /// LRU and budget; an entry already under the key stays. Counts
  /// service.front.{hits,misses}.
  std::shared_ptr<const driver::FrontEntry> lookupFront(uint64_t Key) override;
  void insertFront(uint64_t Key,
                   std::shared_ptr<const driver::FrontEntry> Entry) override;

  void clear();
  size_t entries() const;
  size_t frontEntries() const;
  size_t bytes() const;
  size_t maxBytes() const;
  void setMaxBytes(size_t MaxBytes);

  /// Lifetime traffic counters (monotonic, independent of the stats
  /// registry's enablement).
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  uint64_t frontHits() const;
  uint64_t frontMisses() const;

private:
  /// One LRU entry: a function unit (Fn) or a front entry (Front).
  struct Entry {
    std::shared_ptr<const driver::MemoizedFunction> Fn;
    std::shared_ptr<const driver::FrontEntry> Front;
    size_t Bytes = 0;
    std::list<uint64_t>::iterator LruIt;
  };

  /// The entry under \p Key, refreshed in the LRU, or null.
  Entry *findLocked(uint64_t Key);
  void insertLocked(uint64_t Key, Entry E);
  void evictLocked();

  mutable std::mutex Mu;
  std::list<uint64_t> Lru; ///< front = most recently used
  std::unordered_map<uint64_t, Entry> Map;
  size_t FrontEntries_ = 0;
  size_t Bytes_ = 0;
  size_t MaxBytes_;
  uint64_t Hits_ = 0, Misses_ = 0, Evictions_ = 0;
  uint64_t FrontHits_ = 0, FrontMisses_ = 0;
};

} // namespace service
} // namespace s1lisp

#endif // S1LISP_SERVICE_COMPILECACHE_H
