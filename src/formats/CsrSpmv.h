//===- formats/CsrSpmv.h - MKL-style CSR SpMV baseline ----------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The zero-preprocessing CSR SpMV baseline standing in for Intel MKL's
/// `mkl_dcsrmv` (the paper's "CSR (Intel MKL)"). Row-parallel with an
/// nnz-balanced static schedule and an 8-wide gather/FMA inner loop. This
/// kernel is the denominator of the paper's Equations 1 and 2.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_FORMATS_CSRSPMV_H
#define CVR_FORMATS_CSRSPMV_H

#include "formats/SpmvKernel.h"

#include <vector>

namespace cvr {

/// Row-parallel CSR SpMV (the MKL stand-in).
class CsrSpmv : public SpmvKernel {
public:
  /// \p NumThreads worker threads (<= 0 selects the OpenMP default).
  explicit CsrSpmv(int NumThreads = 0);

  std::string name() const override { return "MKL"; }

  void prepare(const CsrMatrix &A) override;

  void run(const double *X, double *Y) const override;

  std::int64_t preparedRows() const override {
    return A ? A->numRows() : -1;
  }

  std::int64_t preparedCols() const override {
    return A ? A->numCols() : -1;
  }

  /// Native SpMM path: row-parallel over the nnz-balanced schedule, each
  /// row's dot products computed for 8 panel columns at a time from a
  /// stack accumulator, so the matrix streams once per 8 columns instead
  /// of once per column.
  [[nodiscard]] Status runBatch(const double *X, std::size_t LdX, double *Y,
                                std::size_t LdY,
                                int NumVectors) const override;

  bool traceRun(MemAccessSink &Sink, const double *X,
                double *Y) const override;

  std::size_t formatBytes() const override { return 0; } // uses A in place

private:
  const CsrMatrix *A = nullptr;
  int NumThreads;
  /// Row range [RowSplit[t], RowSplit[t+1]) per thread, balanced by nnz.
  std::vector<std::int32_t> RowSplit;
};

} // namespace cvr

#endif // CVR_FORMATS_CSRSPMV_H
