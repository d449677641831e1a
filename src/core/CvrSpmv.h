//===- core/CvrSpmv.h - SpMV over the CVR format ----------------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CVR SpMV kernel (Section 5 / Algorithm 4): per chunk, a dense stream
/// of `steps x 8` elements is consumed with one aligned value load, one
/// column gather, and one FMA per step; the conversion-time records scatter
/// lane partial sums into y (feed part) or into the chunk's `t_result`
/// slots (steal part), which the tail array flushes at the end. Column
/// indices are double-pumped: one 512-bit int32 load feeds two gather steps
/// (the `i % 16` trick of Algorithm 4 l.22-26).
///
/// One chunk loop (core/CvrChunkLoop.h) serves every matrix, on AVX-512
/// or on the emulated vector of simd/Simd.h, and one pass driver runs it
/// for SpMV, SpMM (core/CvrSpmm.h) and traces. SpMV
/// instantiates it per write-back policy (store, accumulate for blocked
/// bands) and prefetch distance. A fused epilogue runs after it as one
/// sweep, as on every format: SpmvKernel's runFused and traceRunFused.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_CORE_CVRSPMV_H
#define CVR_CORE_CVRSPMV_H

#include "core/CvrFormat.h"
#include "formats/SpmvKernel.h"

namespace cvr {

/// Computes y = A * x from the converted matrix. \p Y is overwritten.
/// \p PrefetchDistance selects the software-prefetch kernel variant
/// (steps ahead at which x gather targets are touched); it is snapped to
/// the supported set {0, 2, 4, 8} and 0 disables prefetching.
void cvrSpmv(const CvrMatrix &M, const double *X, double *Y,
             int PrefetchDistance = 0);

/// Snaps a requested prefetch distance up to the supported set {0, 2, 4, 8}
/// (the distances the kernel templates are instantiated for).
int snapPrefetchDistance(int D);

/// Implemented by every SpmvKernel that executes a CvrMatrix (CvrKernel
/// here, serve::CvrViewKernel over a fleet entry's matrix), so the
/// checked-execution and invariant machinery can reach the underlying
/// format through one dynamic_cast regardless of the wrapper.
class CvrMatrixSource {
public:
  virtual ~CvrMatrixSource() = default;

  /// The converted matrix the kernel runs (valid after prepare()).
  virtual const CvrMatrix &cvrMatrix() const = 0;
};

/// SpmvKernel adapter so CVR plugs into the common benchmark harness.
class CvrKernel : public SpmvKernel, public CvrMatrixSource {
public:
  explicit CvrKernel(CvrOptions Opts = {});

  std::string name() const override { return "CVR"; }

  void prepare(const CsrMatrix &A) override;

  /// Recoverable preparation through CvrMatrix::tryFromCsr — no abort, no
  /// exception; the degradation ladder's first-choice entry point.
  [[nodiscard]] Status prepareStatus(const CsrMatrix &A) override;

  void run(const double *X, double *Y) const override;

  std::int64_t preparedRows() const override { return M.numRows(); }

  std::int64_t preparedCols() const override { return M.numCols(); }

  /// Native SpMM path (core/CvrSpmm.h): the CVR stream is read once per
  /// register block of up to eight panel columns. The SpMV prefetch
  /// distance does not apply to it.
  [[nodiscard]] Status runBatch(const double *X, std::size_t LdX, double *Y,
                                std::size_t LdY,
                                int NumVectors) const override;

  bool traceRun(MemAccessSink &Sink, const double *X,
                double *Y) const override;

  std::size_t formatBytes() const override;

  /// The converted matrix (valid after prepare()); exposed for tests and
  /// the locality tracer.
  const CvrMatrix &matrix() const { return M; }

  const CvrMatrix &cvrMatrix() const override { return M; }

private:
  CvrOptions Opts;
  CvrMatrix M;
};

} // namespace cvr

#endif // CVR_CORE_CVRSPMV_H
