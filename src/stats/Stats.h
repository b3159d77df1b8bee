//===- stats/Stats.h - Compiler observability substrate ---------*- C++ -*-===//
///
/// \file
/// LLVM-style self-registering named counters and nested phase timing.
/// Every phase of the Table 1 pipeline (and the simulator) reports what it
/// did through this registry, so the driver can render one coherent
/// statistics report — the measurement substrate behind every number in
/// EXPERIMENTS.md.
///
/// Counters are declared at namespace or function-local static scope:
///
///   S1_STAT(CseHoisted, "opt.cse.hoisted", "subexpressions abstracted");
///   ...
///   ++CseHoisted;
///
/// Counting is gated by a global enable flag (off by default) so the hot
/// paths pay one predictable branch when observability is not requested.
/// `Statistic` objects must outlive any registry report; give them static
/// storage duration (they deregister on destruction, so the short-lived
/// instances tests create are safe too).
///
//===----------------------------------------------------------------------===//

#ifndef S1LISP_STATS_STATS_H
#define S1LISP_STATS_STATS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace s1lisp {
namespace stats {

/// Master switch for counter collection. Off by default, and per-thread:
/// a worker thread that never calls setEnabled(true) cannot race the
/// reporting thread's counters, which is what lets the parallel fuzzing
/// oracle compile on many threads against one registry.
bool enabled();
void setEnabled(bool On);

class LocalTally;

/// One named counter. Registers itself with the global registry on
/// construction and deregisters on destruction.
class Statistic {
public:
  Statistic(const char *Name, const char *Desc);
  ~Statistic();
  Statistic(const Statistic &) = delete;
  Statistic &operator=(const Statistic &) = delete;

  const char *name() const { return Name; }
  const char *desc() const { return Desc; }
  uint64_t value() const { return Value; }

  Statistic &operator++() {
    if (enabled())
      record(1);
    return *this;
  }
  Statistic &operator+=(uint64_t N) {
    if (enabled())
      record(N);
    return *this;
  }
  /// Monotonic maximum (for high-water marks).
  void updateMax(uint64_t N) {
    if (enabled())
      recordMax(N);
  }
  void reset() { Value = 0; }

private:
  friend class LocalTally;
  /// Routes to the thread's active LocalTally when one is installed,
  /// otherwise to the shared value (single-threaded collection).
  void record(uint64_t N);
  void recordMax(uint64_t N);

  const char *Name;
  const char *Desc;
  uint64_t Value = 0;
  /// Dense registry slot, assigned at registration (recycled on
  /// destruction). Tally cells index by it, so a worker-side counter
  /// update is one bounds check and an add — no hashing, no locks.
  unsigned Idx = 0;
};

/// One counter's contribution captured in a LocalTally, keyed by name so
/// it can outlive the capturing compilation (the compile-service cache
/// stores these and replays them on a hit, making cached counter totals
/// identical to a fresh compile's).
struct TallyDelta {
  std::string Name;
  uint64_t Add = 0;
  uint64_t Max = 0;

  bool operator==(const TallyDelta &O) const = default;
};

/// A private accumulation of counter updates made on one worker thread.
/// While a TallyScope is active, every Statistic update on that thread
/// lands here instead of the shared values; the spawning thread folds the
/// tallies in with apply() after the join. Sums commute, so totals are
/// identical to a serial run for any job count or completion order.
///
/// Accumulation is fully lock-free: cells live in a flat vector indexed
/// by each counter's dense registry slot, so the worker-side cost of one
/// update is an indexed add. Only the single fold at phase end (apply)
/// takes the registry lock.
class LocalTally {
public:
  /// Folds the tally into the shared counters; call after workers have
  /// joined. Clears the tally. Takes the registry lock, so concurrent
  /// request workers (the compile-service daemon) may fold independently.
  void apply();

  /// The captured updates by counter name, sorted. Does not clear.
  std::vector<TallyDelta> deltas() const;

private:
  friend class Statistic;
  struct Cell {
    Statistic *S = nullptr; ///< null while the slot is untouched
    uint64_t Add = 0;
    uint64_t Max = 0;
  };
  Cell &cell(Statistic *S);
  std::vector<Cell> Cells; ///< indexed by Statistic::Idx
};

/// Re-applies name-keyed deltas through the normal recording path: they
/// land in the current thread's active tally when one is installed, and
/// are dropped entirely when collection is disabled — exactly what a
/// fresh recompile of the captured work would have done. A name resolves
/// through an index to its first-registered live counter; names with no
/// live counter are ignored.
void applyTallyDeltas(const std::vector<TallyDelta> &Deltas);

/// Renders deltas as one JSON object ({"name": value, ...}), with each
/// counter's value max(Add, Max); zero values are omitted.
std::string tallyDeltasJson(const std::vector<TallyDelta> &Deltas);

/// RAII: enables stats collection on the current thread and routes it into
/// \p T until destruction (restores the previous route and enable state).
class TallyScope {
public:
  explicit TallyScope(LocalTally &T);
  ~TallyScope();
  TallyScope(const TallyScope &) = delete;
  TallyScope &operator=(const TallyScope &) = delete;

private:
  LocalTally *Prev;
  bool PrevEnabled;
};

/// RAII: resets the current thread's observability state (stats enable,
/// active tally route, phase-timing enable) to the defaults a freshly
/// spawned thread would have, restoring the previous state on
/// destruction. The worker pool wraps every parallel task in one, so a
/// task behaves identically whether it runs on a pool thread or on the
/// caller participating in its own fan-out: spawned tasks never
/// contribute to the spawning thread's counters or phase times.
class ThreadBaselineScope {
public:
  ThreadBaselineScope();
  ~ThreadBaselineScope();
  ThreadBaselineScope(const ThreadBaselineScope &) = delete;
  ThreadBaselineScope &operator=(const ThreadBaselineScope &) = delete;

private:
  LocalTally *PrevTally;
  bool PrevEnabled;
  bool PrevTiming;
};

#define S1_STAT(VAR, NAME, DESC)                                               \
  static ::s1lisp::stats::Statistic VAR(NAME, DESC)

/// A point-in-time view of one counter.
struct StatValue {
  std::string Name;
  std::string Desc;
  uint64_t Value = 0;
};

/// All live counters, sorted by name. Zero-valued counters are included
/// only when \p IncludeZeros is set.
std::vector<StatValue> allStats(bool IncludeZeros = false);

/// The description of the first-registered live counter named \p Name,
/// or empty when none is live.
std::string statDesc(std::string_view Name);

/// The counter's current value, or 0 when no such counter is live.
uint64_t statValue(const std::string &Name);

/// Zeroes every live counter.
void resetStats();

/// Renders \p Values in the LLVM `-stats`-style text layout: a banner,
/// then one line per counter (right-aligned value, name, description).
std::string renderStatsTable(const std::vector<StatValue> &Values);

/// The text report of every nonzero live counter (renderStatsTable).
std::string reportStats();

/// The counters as one JSON object: {"opt.cse.hoisted": 3, ...}.
std::string reportStatsJson(bool IncludeZeros = false);

//===----------------------------------------------------------------------===//
// Phase timing
//===----------------------------------------------------------------------===//

/// Master switch for phase timing. Off by default.
bool timingEnabled();
void setTimingEnabled(bool On);

/// RAII wall/CPU timer for one dynamic phase execution. Scopes nest: time
/// spent in an inner PhaseTimer is attributed to both the inner phase's
/// total and subtracted from the enclosing phase's self time.
class PhaseTimer {
public:
  explicit PhaseTimer(const char *Phase);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer &) = delete;
  PhaseTimer &operator=(const PhaseTimer &) = delete;

private:
  bool Active;
};

/// Accumulated timing for one phase name.
struct PhaseTime {
  std::string Name;
  uint64_t Invocations = 0;
  double WallSeconds = 0;     ///< total (inclusive of nested phases)
  double SelfWallSeconds = 0; ///< exclusive of nested phases
  double CpuSeconds = 0;
};

/// Accumulated records, sorted by descending wall time.
std::vector<PhaseTime> phaseTimes();

/// Forgets all timing records.
void resetPhaseTimes();

/// The `-time-passes`-style table.
std::string reportPhaseTimes();

} // namespace stats
} // namespace s1lisp

#endif // S1LISP_STATS_STATS_H
