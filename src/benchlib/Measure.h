//===- benchlib/Measure.h - Kernel timing harness ---------------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times one kernel variant's two phases the way the paper does
/// (Section 6.2): the preprocessing (format conversion) time once, and the
/// average per-iteration SpMV time over repeated iterations after warm-up.
/// Each measured kernel is also cross-checked against the scalar reference
/// so a bench can never silently report numbers from a wrong kernel.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_BENCHLIB_MEASURE_H
#define CVR_BENCHLIB_MEASURE_H

#include "formats/Registry.h"
#include "matrix/Csr.h"

#include <memory>
#include <string>

namespace cvr {

/// Measurement knobs.
struct MeasureConfig {
  int WarmupIterations = 2;
  int MinIterations = 5;
  double MinSeconds = 0.02; ///< Keep timing until this much has elapsed.
  int TimingBlocks = 3;     ///< Repeat blocks; report the fastest (noise
                            ///< filter for shared/single-core hosts).
  int PrepareRepeats = 3;   ///< prepare() repeats; fastest reported.
  int NumThreads = 0;       ///< <= 0: OpenMP default.
  bool CheckCorrectness = true;
};

/// One variant's measured numbers.
struct Measurement {
  std::string VariantName;
  double PreprocessSeconds = 0.0;
  double SecondsPerIteration = 0.0;
  double Gflops = 0.0;
  double MaxRelError = 0.0; ///< vs the scalar reference.
  std::size_t FormatBytes = 0;
  /// The prepared kernel, retained so locality probes can reuse it.
  std::shared_ptr<SpmvKernel> Kernel;
};

/// Prepares and times one concrete variant on \p A.
Measurement measureVariant(const KernelVariant &V, const CsrMatrix &A,
                           const MeasureConfig &Cfg = {});

/// Measures every variant of \p F and returns the one with the fastest
/// per-iteration time (the paper's best-of-policies / best-of-panels
/// methodology).
Measurement measureBestOf(FormatId F, const CsrMatrix &A,
                          const MeasureConfig &Cfg = {});

} // namespace cvr

#endif // CVR_BENCHLIB_MEASURE_H
