//===- benchlib/UnfusedKernel.h - Kernel with fusion off --------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a solver with no fusion, for differential tests and the
/// fused-vs-unfused rows of bench/solver_pipeline. The adapter forwards the
/// plain entry points (run, runBatch, traceRun, shape, footprint, name) to
/// a borrowed, already-prepared kernel and overrides none of the fused
/// ones. So runFused, runBatchFused and traceRunFused take SpmvKernel's
/// defaults: the plain pass followed by one scalar epilogue sweep. The
/// same solver body over K and over UnfusedKernel(K) then differs only in
/// where its epilogue runs. It is a substitute for tests, not a layer in
/// front of production callers.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_BENCHLIB_UNFUSEDKERNEL_H
#define CVR_BENCHLIB_UNFUSEDKERNEL_H

#include "formats/SpmvKernel.h"

namespace cvr {

/// \p Inner's plain paths with SpmvKernel's composed fused entry points.
/// \p Inner must be prepared by its owner and must outlive the adapter.
class UnfusedKernel final : public SpmvKernel {
public:
  explicit UnfusedKernel(const SpmvKernel &Inner) : Inner(Inner) {}

  std::string name() const override { return Inner.name(); }

  /// The borrowed kernel is already prepared; nothing to convert.
  void prepare(const CsrMatrix &) override {}

  void run(const double *X, double *Y) const override { Inner.run(X, Y); }

  std::int64_t preparedRows() const override { return Inner.preparedRows(); }

  std::int64_t preparedCols() const override { return Inner.preparedCols(); }

  [[nodiscard]] Status runBatch(const double *X, std::size_t LdX, double *Y,
                                std::size_t LdY,
                                int NumVectors) const override {
    return Inner.runBatch(X, LdX, Y, LdY, NumVectors);
  }

  std::size_t formatBytes() const override { return Inner.formatBytes(); }

  bool traceRun(MemAccessSink &Sink, const double *X,
                double *Y) const override {
    return Inner.traceRun(Sink, X, Y);
  }

private:
  const SpmvKernel &Inner;
};

} // namespace cvr

#endif // CVR_BENCHLIB_UNFUSEDKERNEL_H
