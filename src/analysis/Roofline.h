//===- analysis/Roofline.h - Bandwidth-roofline traffic model ---*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SpMV is bandwidth-bound on every platform the paper targets, so the
/// bytes one iteration must move are a roofline on its throughput. This
/// module prices one SpMV iteration per format/plan from structure alone:
///
///   * the value, column-index, record (with finish-mask), and tail streams
///     are read sequentially exactly once per iteration — their DRAM
///     traffic is their byte size, which is where the compressed stream
///     kinds (ValueKind::F32x64, ColIndexKind::U16Band) show up as a
///     measurable reduction;
///   * y is written once per row (plus one read per band beyond the first
///     when column blocking accumulates);
///   * x is gathered irregularly: the baseline is one fetch of every
///     distinct 64-byte x line a band touches (the cold-cache compulsory
///     traffic), scaled by an alpha factor — above 1 for imperfect reuse
///     within an iteration, below 1 when part of x stays resident across
///     iterations. Alpha can be derived from a LocalityProbe run
///     (alphaFromLocality) or left at the compulsory 1.0.
///
/// The "measured" counterpart drives a kernel's byte-accurate trace
/// (SpmvKernel::traceRun) through the two-level cache model and reports
/// DRAM-side fill traffic (L2 fills x 64, demand misses plus prefetch
/// fills), so predicted-vs-measured accuracy is a testable invariant
/// (scripts/perf_trajectory.py gates it) without hardware counters.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_ANALYSIS_ROOFLINE_H
#define CVR_ANALYSIS_ROOFLINE_H

#include "cachesim/LocalityProbe.h"
#include "core/CvrFormat.h"
#include "formats/SpmvKernel.h"
#include "matrix/Csr.h"

namespace cvr {
namespace analysis {

/// Predicted DRAM bytes one SpMV iteration moves, itemized by stream.
struct RooflinePrediction {
  double ValueBytes = 0.0;  ///< Value stream, sized by ValueKind.
  double IndexBytes = 0.0;  ///< Column indices, sized by ColIndexKind.
  double RecordBytes = 0.0; ///< Records, plus CVR's per-step finish masks.
  double TailBytes = 0.0;   ///< Per-chunk t_result row tables.
  double XBytes = 0.0;      ///< Gather traffic: Alpha * compulsory lines.
  double YBytes = 0.0;      ///< Output stores (+ band accumulate reads).
  double TotalBytes = 0.0;
  double BytesPerNnz = 0.0; ///< TotalBytes / nnz (0 when nnz == 0).
  double Alpha = 1.0;       ///< x traffic factor the prediction used.

  /// Cold-cache compulsory x traffic (Alpha == 1): one fetch per distinct
  /// x line per band. Kept so alpha derivations can rescale without
  /// re-walking the matrix.
  double XCompulsoryBytes = 0.0;
};

/// Prices one iteration of the CVR kernels over \p M. \p Alpha scales the
/// compulsory x traffic: > 1 for re-fetching within an iteration, < 1 for
/// cross-iteration residency; negative values are clamped to 0.
RooflinePrediction predictCvr(const CvrMatrix &M, double Alpha = 1.0);

/// Prices one iteration of the CSR baseline over \p A (vals + colIdx +
/// rowPtr streams, x gathers, y stores) for side-by-side reporting.
RooflinePrediction predictCsr(const CsrMatrix &A, double Alpha = 1.0);

/// Derives the x traffic factor from a locality-probe run: the probe's
/// DRAM-side traffic (L2 fill lines) minus the deterministic stream and y
/// bytes is attributed to x gathers and divided by the compulsory
/// traffic. Clamped to [0, one-line-per-gather]; returns 1.0 when the
/// probe was unsupported or the matrix touches no x lines.
double alphaFromLocality(const LocalityResult &Probe,
                         const RooflinePrediction &Compulsory,
                         std::int64_t Nnz);

/// DRAM-side traffic of one traced kernel iteration: one warm-up fills the
/// simulated caches, the next iteration is measured.
struct MeasuredTraffic {
  bool Supported = false;  ///< False when the kernel cannot trace.
  double DramBytes = 0.0;  ///< L2 fill lines * 64 of the measured pass.
  double BytesPerNnz = 0.0;
  double L2MissRatio = 0.0;
};

/// Measures \p K (already prepared on \p A) through the cache model.
/// \p X may be null; a deterministic vector is synthesized then.
MeasuredTraffic measureDramTraffic(const SpmvKernel &K, const CsrMatrix &A,
                                   const double *X = nullptr,
                                   const LocalityConfig &Cfg = {});

} // namespace analysis
} // namespace cvr

#endif // CVR_ANALYSIS_ROOFLINE_H
