//===- s1bench/Bench.h - Shared benchmark harness ---------------*- C++ -*-===//
///
/// \file
/// What the three workloads share: command-line options, seeded choices,
/// percentiles, the run report (correctness counters plus named metrics,
/// printed as a table and one final JSON line), and the tracer.
///
/// The tracer records spans from the benchmark's own code around calls
/// into each layer's public functions; nothing inside the compiler or the
/// daemon is instrumented. Each span keeps its name, start, end, parent
/// span and operation id in a per-thread buffer in memory; the buffers are
/// aggregated and written as Chrome trace-event JSON when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef S1BENCH_BENCH_H
#define S1BENCH_BENCH_H

#include "fuzz/Oracle.h"
#include "sexpr/Value.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace s1bench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string Root;     ///< repository checkout; examples/ is read from here
  std::string Daemon;   ///< the s1lispd binary the service workload starts
  std::string TraceOut; ///< Chrome trace-event file written by --trace 1
  std::string Scratch;  ///< directory for the daemon's socket
  /// Every per-layer metric as (name, unit), from BENCHMARK.json.
  std::vector<std::pair<std::string, std::string>> PerLayer;
};

/// Set-up is repeated and its median reported: at least three times, and
/// while the repeats total under a second (cheap set-ups get more samples).
inline bool moreSetups(const std::vector<double> &SetupS) {
  double Sum = 0;
  for (double S : SetupS)
    Sum += S;
  return SetupS.size() < 3 || (Sum < 1.0 && SetupS.size() < 25);
}

/// splitmix64: every seeded choice in the benchmark derives from this.
uint64_t mix(uint64_t X);
inline uint64_t mix(uint64_t A, uint64_t B) { return mix(A ^ mix(B)); }

/// Linear-interpolation percentile (Q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 0.5);
}

/// Other tenants of the host slow it down in bursts of about a second, by
/// up to 1.5x, and interference only ever adds time. So a run reports each
/// per-pass statistic (or per-window, on the service) at this low quantile
/// over its passes: the host's quiet speed, where a median would follow the
/// bursts.
constexpr double QuietQuantile = 0.05;
inline double quiet(std::vector<double> V) {
  return percentile(std::move(V), QuietQuantile);
}

/// The host also drifts, over minutes, to speeds up to 1.5x slower for
/// every kind of code at once, which no statistic within one run can
/// filter. A fixed kernel owned by the benchmark, timed between passes,
/// measures that drift: it mixes string formatting and sorting, inserts
/// and lookups in a 10,000-entry tree (the allocation and pointer chasing
/// of the compiler) and a switch-dispatch loop (the branchy integer work
/// of the VM). End-to-end times are reported at the reference
/// speed: quiet time x (ReferenceMs / quiet kernel time); the table also
/// prints each measured value as raw.NAME.
class Calibration {
public:
  /// The kernel's quiet time on the baseline host.
  static constexpr double ReferenceMs = 5.0;

  /// Times one run of the kernel.
  void sample();
  /// Multiply a time by this, divide a rate by it.
  double factor() const { return ReferenceMs / quiet(Samples); }
  double quietMs() const { return quiet(Samples); }

private:
  std::vector<double> Samples;
};

/// Peak resident set of this process, in MB.
double selfPeakRssMb();

/// Reads a whole file; false when it cannot be opened.
bool readFile(const std::string &Path, std::string &Out);

/// Appends \p Suffix to every token of \p Src that names a function the
/// source defines with defun. The renamed module compiles to the same code
/// shape under new names, so it is new to any content-addressed cache.
std::string renameFunctions(const std::string &Src, const std::string &Suffix);

/// Static instruction words (labels excluded) plus static pool words.
size_t codeWords(const s1lisp::s1::Program &P);

/// \p Entry called on \p Args by the interpreter over \p M: the reference.
s1lisp::fuzz::Outcome interpOutcome(s1lisp::ir::Module &M,
                                    const std::string &Entry,
                                    const std::vector<s1lisp::sexpr::Value> &Args);

/// \p Entry called on \p Args on a fresh threaded Machine; \p Insns, when
/// given, receives the simulated instructions retired.
s1lisp::fuzz::Outcome vmOutcome(const s1lisp::s1::Program &P,
                                s1lisp::ir::Module &M, const std::string &Entry,
                                const std::vector<s1lisp::sexpr::Value> &Args,
                                uint64_t *Insns = nullptr);

/// One reference outcome compared under the differential oracle's rules
/// (fuzz/Oracle.h): printed values must match exactly, errors by class,
/// and a row where either side overflowed the compiled 32-bit fixnum range
/// or ran out of fuel is incomparable and skipped. \p Optimizes allows an
/// optimized compile to succeed where the reference erred.
enum class Verdict { Agree, Skipped, Disagree };
Verdict compareOutcomes(const s1lisp::fuzz::Outcome &Ref,
                        const s1lisp::fuzz::Outcome &Act, bool Optimizes);

/// The run's result: operations attempted and failed, and named metrics.
/// Safe to call from several client threads.
class Report {
public:
  void attempt(uint64_t N = 1);
  /// Counts one failed operation and logs why to stderr.
  void fail(const std::string &Why);
  /// A metric of the final JSON line (and the table).
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// A time metric (or, for a rate, with \p Factor inverted) at the
  /// reference speed: \p Raw x \p Factor. Raw goes in the table.
  void scaled(const std::string &Name, double Raw, const std::string &Unit,
              double Factor);
  /// A metric printed in the table only: the workload-specific name of a
  /// JSON metric, or a supporting figure.
  void extra(const std::string &Name, double Value, const std::string &Unit);
  /// Puts the metrics in the order of \p PerLayer (name, unit), adding as 0
  /// every one the workload did not report: it does not exercise that layer.
  void completePerLayer(
      const std::vector<std::pair<std::string, std::string>> &PerLayer);
  /// A human-readable line printed above the metric table.
  void note(const std::string &Line);
  uint64_t failed() const;

  /// Prints the notes, the metric table, and the final JSON line on
  /// stdout. Returns the process exit code: nonzero on any failure.
  int finish() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  mutable std::mutex Mu;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<Metric> Extras;
  std::vector<std::string> Notes;
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// Turns span recording on or off for the calling thread. Off by default; a
/// span constructed while recording is off costs one branch.
void setTracing(bool On);
bool tracing();

/// One span around one call into a layer. Spans nest per thread: a span
/// opened while another is open on the same thread becomes its child.
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int Idx = -1;
  int PrevOpen = -1;
};

/// Tags every span the current thread records with operation \p Id until
/// destroyed, so all spans of one compile, call or request share an id.
class OpScope {
public:
  explicit OpScope(uint64_t Id);
  ~OpScope();
  OpScope(const OpScope &) = delete;
  OpScope &operator=(const OpScope &) = delete;

private:
  uint64_t Prev;
};

/// Per span name: how many spans and their total time. (Each span's self
/// time, its duration minus the time its child spans cover, is in the
/// trace file.)
struct LayerTime {
  uint64_t Count = 0;
  double TotalMs = 0;
};
std::map<std::string, LayerTime> layerTimes();

/// Writes every recorded span as Chrome trace-event JSON (load it in
/// chrome://tracing or Perfetto). False when the file cannot be written.
bool writeChromeTrace(const std::string &Path);

/// Counter values from the stats registry, by name.
using Counters = std::map<std::string, uint64_t>;
Counters snapshotCounters();
/// After[Name] - Before[Name] (0 when absent).
uint64_t counterDelta(const Counters &Before, const Counters &After,
                      const std::string &Name);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void runCompileWorkload(const Options &O, Report &R);
void runRunWorkload(const Options &O, Report &R);
void runServiceWorkload(const Options &O, Report &R);

} // namespace s1bench

#endif // S1BENCH_BENCH_H
