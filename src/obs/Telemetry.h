//===- obs/Telemetry.h - Typed metric registry ------------------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide registry of typed metrics — counters, gauges, and log2
/// histograms — designed so the hot paths they instrument stay hot:
///
///   * Each metric is registered once (function-local static handle) and
///     bumped through a per-thread shard, so an increment is one relaxed
///     load + store on a cache line no other thread writes. There are no
///     locks and no contended atomics on the update path.
///   * A snapshot merges the retired shards of exited threads with every
///     live shard under the registry mutex. Counters and histogram
///     buckets merge by int64 summation, which is commutative, so the
///     merged totals are deterministic regardless of how work was
///     scheduled across threads.
///   * The subsystem is gated at runtime: the `CVR_TELEMETRY` environment
///     variable (set to `0`, `off`, or `false`) or setTelemetryEnabled
///     downgrades every instrumented block to a single relaxed atomic
///     load.
///
/// Instrumentation idiom:
///
///   if (obs::telemetryEnabled()) {
///     static obs::Counter &Runs = obs::counter("spmv.cvr.runs");
///     Runs.inc();
///   }
///
//===----------------------------------------------------------------------===//

#ifndef CVR_OBS_TELEMETRY_H
#define CVR_OBS_TELEMETRY_H

#include <cstdint>
#include <string>
#include <vector>

namespace cvr {
namespace obs {

/// Number of log2 buckets a histogram tracks. Bucket i counts values V
/// with floor(log2(max(V,1))) == i; the last bucket absorbs everything
/// larger.
constexpr int HistogramBuckets = 24;

/// True when metrics should be recorded. One relaxed atomic load.
bool telemetryEnabled();

/// Flips the runtime gate (the environment variable sets the initial
/// value; tools and tests may override it).
void setTelemetryEnabled(bool On);

/// Monotonic counter. Handles are stable for the process lifetime;
/// obtain one via counter() and cache it in a function-local static.
class Counter {
public:
  void add(std::int64_t N);
  void inc() { add(1); }

  int Cell = -1; ///< registry-internal shard cell; do not touch
};

/// Last-write-wins scalar (stored centrally, not sharded — gauges record
/// rare summary facts such as the imbalance of the latest conversion).
class Gauge {
public:
  void set(std::int64_t V);

  int Index = -1; ///< registry-internal slot; do not touch
};

/// Log2-bucketed distribution with exact count and sum.
class Histogram {
public:
  void observe(std::int64_t V);

  /// Registry-internal: first of HistogramBuckets + 2 cells (count, sum).
  int Cell = -1;
};

/// Registers (or finds) the metric named \p Name. Names use dotted
/// lower-case paths ("convert.cvr.steal_records"). \p Name must point to
/// storage that outlives the process (string literals). A name may only
/// ever be registered as one kind; violating that aborts.
Counter &counter(const char *Name);
Gauge &gauge(const char *Name);
Histogram &histogram(const char *Name);

enum class MetricKind { Counter, Gauge, Histogram };

/// One merged metric in a snapshot.
struct MetricSnapshot {
  std::string Name;
  MetricKind Kind = MetricKind::Counter;
  std::int64_t Value = 0; ///< counter total or gauge value
  std::int64_t Count = 0; ///< histogram: number of observations
  std::int64_t Sum = 0;   ///< histogram: sum of observations
  std::vector<std::int64_t> Buckets; ///< histogram: log2 buckets
};

/// Merges every shard (retired and live) into a name-sorted snapshot.
/// Deterministic for a quiesced process: the merge is a sum of int64
/// shard cells in fixed metric order. Call it between parallel regions,
/// not concurrently with instrumented hot loops.
std::vector<MetricSnapshot> snapshotTelemetry();

/// Convenience for tests and tools: the merged value of one metric by
/// name (counter total, gauge value, or histogram count). Returns 0 for
/// names never registered.
std::int64_t telemetryValue(const std::string &Name);

/// Zeroes every shard, gauge, and retired total. Metric registrations
/// survive. Only meaningful while no instrumented code runs concurrently
/// (test setup / between bench phases).
void resetTelemetry();

} // namespace obs
} // namespace cvr

#endif // CVR_OBS_TELEMETRY_H
