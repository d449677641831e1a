//===- engine/Autotune.h - Per-matrix CVR execution autotuner ---*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adaptive execution engine's search layer: given a CSR matrix, pick
/// the CVR execution plan — software-prefetch distance, x-vector column
/// blocking, and chunk over-decomposition — that runs SpMV fastest on this
/// machine, within a fixed warm-up budget of at most ~50 SpMV iterations.
///
/// The search is staged to spend the budget where it pays:
///
///  1. a LocalityProbe pass (simulated caches, costs no timed iterations)
///    decides whether x-blocking is worth trying at all and which band
///    width to try;
///  2. the build configurations {chunk multiplier} x {unblocked, blocked}
///    are timed at prefetch distance 0, plus stream-compression variants
///    (u16 band indices; fp32 values when opted in) that the bandwidth
///    roofline (analysis/Roofline.h) predicts will cut enough bytes to
///    matter;
///  3. the prefetch distances {2, 4, 8} are timed only for the best
///    surviving configurations;
///  4. the finalists are re-timed to de-noise the pick.
///
/// Winning plans are cached per matrix fingerprint so repeated prepare()
/// calls on the same matrix (the benchmark harness, the checked sweeps) pay
/// the search once per process.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_ENGINE_AUTOTUNE_H
#define CVR_ENGINE_AUTOTUNE_H

#include "core/CvrFormat.h"

#include <cstdint>
#include <string>

namespace cvr {

/// One point in the execution-plan search space. Default-constructed it
/// reproduces the paper's fixed configuration (no prefetch, no blocking,
/// one chunk per thread).
struct CvrPlan {
  int PrefetchDistance = 0;       ///< {0, 2, 4, 8}; 0 disables.
  std::int64_t ColBlockBytes = 0; ///< 0 disables x-blocking.
  int ChunkMultiplier = 1;        ///< Chunks per thread.
  /// Stream-compression axes (see DESIGN.md section 17). U16Band is
  /// lossless and searched by default when the roofline pre-filter says the
  /// index stream is worth shrinking; F32x64 changes numerics and is only
  /// searched behind AutotuneOptions::AllowMixedPrecision.
  ValueKind Values = ValueKind::F64;
  ColIndexKind Indices = ColIndexKind::U32;

  /// Conversion options realizing this plan for \p NumThreads threads.
  CvrOptions toOptions(int NumThreads) const;

  /// Human-readable one-liner, e.g. "pf=4 block=512KiB mult=2"
  /// (compressed streams append " idx=u16" / " val=f32x64").
  std::string describe() const;

  bool operator==(const CvrPlan &O) const {
    return PrefetchDistance == O.PrefetchDistance &&
           ColBlockBytes == O.ColBlockBytes &&
           ChunkMultiplier == O.ChunkMultiplier && Values == O.Values &&
           Indices == O.Indices;
  }
};

/// Tuning knobs.
struct AutotuneOptions {
  int NumThreads = 0;     ///< <= 0 selects the OpenMP default.
  int MaxIterations = 50; ///< Hard cap on timed SpMV executions.
  bool UseCache = true;   ///< Consult/populate the process plan cache.
  /// Skip the cache-simulation pre-filter and try blocking untimed
  /// heuristics instead (used by tests to keep runtimes predictable).
  bool UseLocalityProbe = true;
  /// Wall-clock ceiling for the whole search, in seconds; <= 0 means
  /// unlimited. When the deadline passes mid-search the tuner returns the
  /// best plan found so far (TimedOut set); when it passes before any
  /// measurement completes, tryAutotuneCvr reports DEADLINE_EXCEEDED and
  /// the degradation ladder falls back to the default plan.
  double BudgetSeconds = 0.0;
  /// Admit ValueKind::F32x64 candidates into the search. Off by default:
  /// storing values as fp32 perturbs results by the rounding of each
  /// stored coefficient, so callers must opt in (typically solver loops
  /// that pair it with iterative refinement — see SolverOptions).
  bool AllowMixedPrecision = false;
};

/// What the tuner found.
struct AutotuneResult {
  CvrPlan Plan;
  double BestSeconds = 0.0;     ///< Per-SpMV seconds of the winning plan.
  double BaselineSeconds = 0.0; ///< Per-SpMV seconds of the default plan.
  int IterationsUsed = 0;       ///< Timed SpMV executions spent.
  bool FromCache = false;       ///< Plan came from the process cache.
  bool TimedOut = false;        ///< Search was cut short by BudgetSeconds.
};

/// FNV-1a fingerprint of the matrix structure (shape, nnz, a row-pointer
/// sample) and the thread count — the plan-cache key. Two matrices with the
/// same fingerprint get the same plan; collisions only cost a suboptimal
/// plan, never a wrong result.
std::uint64_t matrixFingerprint(const CsrMatrix &A, int NumThreads);

/// Private (per-core) L2 capacity in bytes: sysconf when the platform
/// exposes it, else a 1 MiB fallback (the KNL/Xeon ballpark the paper
/// targets).
std::int64_t detectL2Bytes();

/// Runs the staged search described in the file comment. Infallible: any
/// internal failure (allocation, deadline before the first measurement)
/// falls back to the default plan.
AutotuneResult autotuneCvr(const CsrMatrix &A,
                           const AutotuneOptions &Opts = {});

/// Recoverable search. DEADLINE_EXCEEDED when BudgetSeconds (or the
/// `tune.timeout` fail point) expires before a single configuration was
/// timed; RESOURCE_EXHAUSTED when no candidate build could be converted.
/// A deadline that passes mid-search is NOT an error: the best plan so far
/// comes back with TimedOut set.
[[nodiscard]] StatusOr<AutotuneResult> tryAutotuneCvr(const CsrMatrix &A,
                                        const AutotuneOptions &Opts = {});

/// Drops every cached plan (tests; benchmark isolation).
void clearPlanCache();

} // namespace cvr

#endif // CVR_ENGINE_AUTOTUNE_H
