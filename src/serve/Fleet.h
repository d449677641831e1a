//===- serve/Fleet.h - Served matrices, view kernels, kernel cache -*-C++-*===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's matrix inventory. A fleet entry is one named matrix plus
/// everything needed to execute against it:
///
///  * **Blob sources** (.cvrblob files) load zero-copy when possible: the
///    file is mmap'd (io/MmapFile) and decoded once, under the SIGBUS
///    guard, by `InvariantChecker::checkBlob` on the mapped bytes: its
///    `CvrMatrix::mapBlob` result, whose value/column-index/tail streams
///    alias the mapping, is adopted only if every blob and structural
///    check passes. A blob that is not the Mapped (v4) layout, or a mmap
///    that keeps failing after bounded retries (`serve.mmap` drills this),
///    falls back to the copying stream reader; the fallback is recorded as the entry's load
///    mode, visible in /stats and the List response.
///  * **Matrix Market sources** (.mtx) run the full
///    formats/Registry::prepareKernel degradation ladder at load time
///    (CVR -> CSR), so the daemon can serve matrices for
///    which no blob exists — and so the ladder itself is exercised in
///    serving, not only in the bench harness.
///
/// Blob entries execute through `CvrViewKernel`, a thin SpmvKernel over a
/// borrowed CvrMatrix: construction is free, so kernels can be rebuilt on
/// cache miss without re-reading the blob. The tuned execution state per
/// entry (best prefetch distance, found by a timed sweep) lives in
/// `KernelCache`, an LRU keyed by blob fingerprint: hot matrices keep
/// their tuned kernels resident, cold ones fall off and re-tune on next
/// use.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_SERVE_FLEET_H
#define CVR_SERVE_FLEET_H

#include "core/CvrSpmm.h"
#include "core/CvrSpmv.h"
#include "formats/Registry.h"
#include "io/MmapFile.h"
#include "support/Deadline.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cvr {
namespace serve {

/// SpmvKernel over a CvrMatrix owned elsewhere (a fleet entry's mapped or
/// stream-loaded matrix). Holds only a pointer and the execution knobs, so
/// building one is O(1) — the property the kernel cache relies on.
class CvrViewKernel : public SpmvKernel, public CvrMatrixSource {
public:
  explicit CvrViewKernel(const CvrMatrix &M, int PrefetchDistance = 0)
      : M(&M), Prefetch(snapPrefetchDistance(PrefetchDistance)) {}

  std::string name() const override {
    return Prefetch > 0 ? "CVR[view+pf" + std::to_string(Prefetch) + "]"
                        : "CVR[view]";
  }

  /// The matrix is already converted; there is nothing to prepare.
  void prepare(const CsrMatrix &) override {}
  [[nodiscard]] Status prepareStatus(const CsrMatrix &) override {
    return Status::okStatus();
  }

  void run(const double *X, double *Y) const override {
    cvrSpmv(*M, X, Y, Prefetch);
  }

  std::int64_t preparedRows() const override { return M->numRows(); }
  std::int64_t preparedCols() const override { return M->numCols(); }

  [[nodiscard]] Status runBatch(const double *X, std::size_t LdX, double *Y,
                                std::size_t LdY,
                                int NumVectors) const override {
    CvrSpmmOptions Opts;
    Opts.PrefetchDistance = Prefetch;
    return cvrSpmm(*M, X, LdX, Y, LdY, NumVectors, Opts);
  }

  std::size_t formatBytes() const override { return M->formatBytes(); }

  const CvrMatrix &cvrMatrix() const override { return *M; }
  int cvrPrefetchDistance() const override { return Prefetch; }

private:
  const CvrMatrix *M;
  int Prefetch;
};

/// How an entry's bytes got into memory.
enum class LoadMode : std::uint8_t {
  Mapped = 0,   ///< Zero-copy mmap of a v4 blob.
  Stream = 1,   ///< Copying readBlob (fallback or v3 blob).
  Prepared = 2, ///< .mtx through the prepareKernel ladder.
};

const char *loadModeName(LoadMode M);

/// One served matrix.
struct ServedMatrix {
  std::string Name;
  LoadMode Mode = LoadMode::Stream;
  std::uint64_t Fingerprint = 0; ///< Blob bytes FNV-1a (kernel-cache key).

  io::MmapFile Map; ///< Holds the mapping alive for Mode == Mapped.
  CvrMatrix M;      ///< Blob sources; streams alias Map when Mapped.

  /// Matrix Market sources: the source CSR (kernels may point into it)
  /// and the ladder-prepared kernel with its recorded downgrade trail.
  std::unique_ptr<CsrMatrix> Csr;
  PreparedKernel Prepared;

  std::int32_t rows() const;
  std::int32_t cols() const;
  std::int64_t nnz() const;

  /// The CVR matrix requests execute: M for blob sources, the prepared
  /// kernel's matrix when the ladder kept CVR, nullptr otherwise.
  const CvrMatrix *cvr() const;

  /// Bytes the entry's executing format holds per nonzero (streams,
  /// records and tables; 0 for an empty matrix).
  double bytesPerNnz() const;
};

/// Tuned execution state for one blob entry: the prefetch distance a
/// timed sweep selected. (Conversion-time parameters are fixed by the
/// blob; execution-time knobs are all a server can tune.)
struct ExecPlan {
  int PrefetchDistance = 0;
  double BestSecondsPerRun = 0.0;
};

/// LRU cache of ExecPlans keyed by blob fingerprint. A bounded map: hot
/// matrices keep their tuned plan, cold ones are evicted and re-tune on
/// next use. Thread-safe.
class KernelCache {
public:
  explicit KernelCache(std::size_t Capacity) : Cap(Capacity ? Capacity : 1) {}

  /// Returns true and touches the entry on hit.
  bool lookup(std::uint64_t Key, ExecPlan &Out);

  /// Inserts (or refreshes) a plan, evicting the least recently used
  /// entry when full.
  void insert(std::uint64_t Key, const ExecPlan &Plan);

  std::size_t size() const;
  /// Counter reads race with in-flight lookups by design (/stats is a
  /// monitoring snapshot), so they are relaxed atomics, not plain ints
  /// guarded by Mu.
  std::int64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  std::int64_t misses() const {
    return Misses.load(std::memory_order_relaxed);
  }
  std::int64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }

private:
  mutable std::mutex Mu;
  std::size_t Cap;
  /// MRU-first list of (key, plan); Index points into it.
  std::list<std::pair<std::uint64_t, ExecPlan>> Lru;
  std::map<std::uint64_t,
           std::list<std::pair<std::uint64_t, ExecPlan>>::iterator>
      Index;
  std::atomic<std::int64_t> Hits{0}, Misses{0}, Evictions{0};
};

/// Fleet loading knobs.
struct FleetOptions {
  /// Attempt the zero-copy mmap path for blobs (false forces the copying
  /// stream reader — an operational escape hatch).
  bool PreferMmap = true;
  /// Retry schedule for transient mmap failures (`serve.mmap`).
  BackoffPolicy MmapBackoff;
  /// Ladder options for .mtx sources.
  PrepareOptions Prepare;
  /// ExecPlan cache capacity (distinct blob fingerprints).
  std::size_t KernelCacheEntries = 8;
};

/// The inventory. Loading happens at startup (or on explicit reload);
/// lookups are concurrent and lock-free after that — entries are
/// immutable once loaded, shared_ptr keeps one alive across an eviction
/// or reload while requests still execute on it.
class Fleet {
public:
  explicit Fleet(FleetOptions Opts = {});
  ~Fleet();

  /// Loads a blob file (zero-copy when possible, stream fallback
  /// otherwise; see the file comment). The entry is validated end to end
  /// before it becomes visible. Replaces any same-named entry.
  [[nodiscard]] Status addBlob(const std::string &Name,
                               const std::string &Path);

  /// Loads a Matrix Market file through the prepareKernel ladder.
  [[nodiscard]] Status addMatrixMarket(const std::string &Name,
                                       const std::string &Path);

  /// nullptr when no entry has this name.
  std::shared_ptr<const ServedMatrix> find(const std::string &Name) const;

  std::vector<std::shared_ptr<const ServedMatrix>> list() const;

  KernelCache &kernelCache() { return Cache; }
  const FleetOptions &options() const { return Opts; }

  /// Times the {0, 2, 4, 8} prefetch variants of \p Entry's matrix and
  /// returns the winner. Pure execution-time tuning: one untimed warm-up
  /// run (first touch of the scratch vectors and the mapped blob), then a
  /// few back-to-back SpMV runs per variant, each variant scored by its
  /// fastest run, so one run the host slowed cannot crown a slow plan. The
  /// deadline is checked between variants; on expiry the best plan found so
  /// far is returned with DEADLINE_EXCEEDED (the caller decides whether to
  /// use or discard it).
  [[nodiscard]] Status tuneExec(const ServedMatrix &Entry, const Deadline &D,
                                ExecPlan &Out);

private:
  FleetOptions Opts;
  KernelCache Cache;

  mutable std::mutex Mu;
  std::map<std::string, std::shared_ptr<const ServedMatrix>> Entries;
};

/// FNV-1a over a byte range (the blob fingerprint for cache keys).
std::uint64_t fingerprintBytes(const void *Data, std::size_t Bytes);

} // namespace serve
} // namespace cvr

#endif // CVR_SERVE_FLEET_H
