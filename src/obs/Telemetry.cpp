//===- obs/Telemetry.cpp - Typed metric registry --------------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "obs/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>

namespace cvr {
namespace obs {
namespace {

/// Flat per-thread cell space. Counters take one cell; histograms take
/// HistogramBuckets + 2 (count, sum). ~30 metrics exist today; the cap
/// leaves room for an order of magnitude of growth at 32 KiB per thread.
constexpr int MaxCells = 4096;

struct Shard {
  std::atomic<std::int64_t> Cells[MaxCells] = {};
};

struct MetricInfo {
  MetricKind Kind;
  int Cell;  // first cell (counter/histogram) or gauge index
  int Width; // number of cells
};

/// Owner-thread-only update: the cell belongs to this thread's shard, so
/// a relaxed load+store (no lock prefix) is race-free; concurrent
/// snapshot readers see either the old or the new total.
inline void bump(std::atomic<std::int64_t> &Cell, std::int64_t N) {
  Cell.store(Cell.load(std::memory_order_relaxed) + N,
             std::memory_order_relaxed);
}

class Registry {
public:
  static Registry &get() {
    static Registry *R = new Registry; // leaked: outlive thread_local dtors
    return *R;
  }

  Counter &counter(const char *Name) {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Metrics.find(Name);
    if (It != Metrics.end()) {
      checkKind(Name, It->second.Kind, MetricKind::Counter);
      return *CounterHandles[It->second.Cell];
    }
    int Cell = allocCells(1);
    Metrics.emplace(Name, MetricInfo{MetricKind::Counter, Cell, 1});
    Order.push_back(Name);
    Counters.emplace_back();
    Counters.back().Cell = Cell;
    CounterHandles[Cell] = &Counters.back();
    return Counters.back();
  }

  Gauge &gauge(const char *Name) {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Metrics.find(Name);
    if (It != Metrics.end()) {
      checkKind(Name, It->second.Kind, MetricKind::Gauge);
      return *GaugeHandles[It->second.Cell];
    }
    int Index = static_cast<int>(GaugeStore.size());
    GaugeStore.emplace_back(0);
    Metrics.emplace(Name, MetricInfo{MetricKind::Gauge, Index, 0});
    Order.push_back(Name);
    Gauges.emplace_back();
    Gauges.back().Index = Index;
    GaugeHandles[Index] = &Gauges.back();
    return Gauges.back();
  }

  Histogram &histogram(const char *Name) {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Metrics.find(Name);
    if (It != Metrics.end()) {
      checkKind(Name, It->second.Kind, MetricKind::Histogram);
      return *HistogramHandles[It->second.Cell];
    }
    int Width = HistogramBuckets + 2;
    int Cell = allocCells(Width);
    Metrics.emplace(Name, MetricInfo{MetricKind::Histogram, Cell, Width});
    Order.push_back(Name);
    Histograms.emplace_back();
    Histograms.back().Cell = Cell;
    HistogramHandles[Cell] = &Histograms.back();
    return Histograms.back();
  }

  void setGauge(int Index, std::int64_t V) {
    GaugeStore[Index].store(V, std::memory_order_relaxed);
  }

  /// Registers the calling thread's shard; called once per thread.
  Shard *adoptShard() {
    Shard *S = new Shard;
    std::lock_guard<std::mutex> Lock(Mu);
    Live.push_back(S);
    return S;
  }

  /// Folds an exiting thread's cells into the retired totals.
  void retireShard(Shard *S) {
    std::lock_guard<std::mutex> Lock(Mu);
    for (int I = 0; I < MaxCells; ++I)
      Retired[I] += S->Cells[I].load(std::memory_order_relaxed);
    Live.erase(std::remove(Live.begin(), Live.end(), S), Live.end());
    delete S;
  }

  std::vector<MetricSnapshot> snapshot() {
    std::lock_guard<std::mutex> Lock(Mu);
    std::vector<MetricSnapshot> Out;
    Out.reserve(Order.size());
    for (const std::string &Name : Order) {
      const MetricInfo &MI = Metrics.at(Name);
      MetricSnapshot MS;
      MS.Name = Name;
      MS.Kind = MI.Kind;
      switch (MI.Kind) {
      case MetricKind::Counter:
        MS.Value = mergedCell(MI.Cell);
        break;
      case MetricKind::Gauge:
        MS.Value = GaugeStore[MI.Cell].load(std::memory_order_relaxed);
        break;
      case MetricKind::Histogram: {
        MS.Buckets.resize(HistogramBuckets);
        for (int B = 0; B < HistogramBuckets; ++B)
          MS.Buckets[B] = mergedCell(MI.Cell + B);
        MS.Count = mergedCell(MI.Cell + HistogramBuckets);
        MS.Sum = mergedCell(MI.Cell + HistogramBuckets + 1);
        break;
      }
      }
      Out.push_back(std::move(MS));
    }
    std::sort(Out.begin(), Out.end(),
              [](const MetricSnapshot &A, const MetricSnapshot &B) {
                return A.Name < B.Name;
              });
    return Out;
  }

  void reset() {
    std::lock_guard<std::mutex> Lock(Mu);
    std::memset(Retired, 0, sizeof(Retired));
    for (Shard *S : Live)
      for (int I = 0; I < MaxCells; ++I)
        S->Cells[I].store(0, std::memory_order_relaxed);
    for (auto &G : GaugeStore)
      G.store(0, std::memory_order_relaxed);
  }

private:
  Registry() = default;

  void checkKind(const char *Name, MetricKind Have, MetricKind Want) {
    if (Have != Want) {
      std::fprintf(stderr, "telemetry: metric '%s' re-registered as a "
                           "different kind\n",
                   Name);
      std::abort();
    }
  }

  int allocCells(int Width) {
    if (NextCell + Width > MaxCells) {
      std::fprintf(stderr, "telemetry: metric cell space exhausted\n");
      std::abort();
    }
    int Cell = NextCell;
    NextCell += Width;
    return Cell;
  }

  std::int64_t mergedCell(int Cell) {
    std::int64_t V = Retired[Cell];
    for (Shard *S : Live)
      V += S->Cells[Cell].load(std::memory_order_relaxed);
    return V;
  }

  std::mutex Mu;
  std::unordered_map<std::string, MetricInfo> Metrics;
  std::vector<std::string> Order; // registration order, for stable handles
  std::deque<Counter> Counters;   // deque: handle addresses must be stable
  std::deque<Gauge> Gauges;
  std::deque<Histogram> Histograms;
  std::unordered_map<int, Counter *> CounterHandles;
  std::unordered_map<int, Gauge *> GaugeHandles;
  std::unordered_map<int, Histogram *> HistogramHandles;
  std::deque<std::atomic<std::int64_t>> GaugeStore;
  std::int64_t Retired[MaxCells] = {};
  std::vector<Shard *> Live;
  int NextCell = 0;
};

/// Per-thread shard holder; the destructor retires the shard so its
/// counts survive the thread (OpenMP pools tear workers down at exit).
struct ShardHolder {
  Shard *S = nullptr;
  ~ShardHolder() {
    if (S)
      Registry::get().retireShard(S);
  }
};

inline Shard &localShard() {
  thread_local ShardHolder Holder;
  if (!Holder.S)
    Holder.S = Registry::get().adoptShard();
  return *Holder.S;
}

bool initialEnabled() {
  const char *Env = std::getenv("CVR_TELEMETRY");
  if (!Env)
    return true;
  return !(std::strcmp(Env, "0") == 0 || std::strcmp(Env, "off") == 0 ||
           std::strcmp(Env, "false") == 0);
}

std::atomic<bool> GEnabled{initialEnabled()};

int log2Bucket(std::int64_t V) {
  if (V < 1)
    return 0;
  int B = 0;
  while (V > 1 && B < HistogramBuckets - 1) {
    V >>= 1;
    ++B;
  }
  return B;
}

} // namespace

bool telemetryEnabled() { return GEnabled.load(std::memory_order_relaxed); }

void setTelemetryEnabled(bool On) {
  GEnabled.store(On, std::memory_order_relaxed);
}

void Counter::add(std::int64_t N) { bump(localShard().Cells[Cell], N); }

void Gauge::set(std::int64_t V) { Registry::get().setGauge(Index, V); }

void Histogram::observe(std::int64_t V) {
  Shard &S = localShard();
  bump(S.Cells[Cell + log2Bucket(V)], 1);
  bump(S.Cells[Cell + HistogramBuckets], 1);
  bump(S.Cells[Cell + HistogramBuckets + 1], V);
}

Counter &counter(const char *Name) { return Registry::get().counter(Name); }
Gauge &gauge(const char *Name) { return Registry::get().gauge(Name); }
Histogram &histogram(const char *Name) {
  return Registry::get().histogram(Name);
}

std::vector<MetricSnapshot> snapshotTelemetry() {
  return Registry::get().snapshot();
}

std::int64_t telemetryValue(const std::string &Name) {
  for (const MetricSnapshot &MS : snapshotTelemetry())
    if (MS.Name == Name)
      return MS.Kind == MetricKind::Histogram ? MS.Count : MS.Value;
  return 0;
}

void resetTelemetry() { Registry::get().reset(); }

} // namespace obs
} // namespace cvr
