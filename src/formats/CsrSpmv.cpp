//===- formats/CsrSpmv.cpp - MKL-style CSR SpMV baseline ------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "formats/CsrSpmv.h"

#include "formats/CsrKernels.h"
#include "parallel/Partition.h"
#include "support/ParallelFor.h"

#include <algorithm>
#include <cassert>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace cvr {

CsrSpmv::CsrSpmv(int NumThreads)
    : NumThreads(NumThreads > 0 ? NumThreads : defaultThreadCount()) {}

void CsrSpmv::prepare(const CsrMatrix &M) {
  A = &M;
  // MKL-style: no format conversion; just a whole-row nnz-balanced static
  // split so no row is shared between threads.
  RowSplit.assign(NumThreads + 1, M.numRows());
  RowSplit[0] = 0;
  const std::int64_t *RowPtr = M.rowPtr();
  std::int64_t Nnz = M.numNonZeros();
  for (int T = 1; T < NumThreads; ++T) {
    std::int64_t Target = Nnz * T / NumThreads;
    const std::int64_t *It =
        std::lower_bound(RowPtr, RowPtr + M.numRows() + 1, Target);
    RowSplit[T] = static_cast<std::int32_t>(It - RowPtr);
  }
  // Splits must be monotone even for degenerate matrices.
  for (int T = 1; T <= NumThreads; ++T)
    RowSplit[T] = std::max(RowSplit[T], RowSplit[T - 1]);
}

void CsrSpmv::run(const double *X, double *Y) const {
  assert(A && "prepare() must run first");
  const std::int64_t *RowPtr = A->rowPtr();
  const std::int32_t *ColIdx = A->colIdx();
  const double *Vals = A->vals();

  ompParallelFor(NumThreads, NumThreads, [&](int T) {
    for (std::int32_t R = RowSplit[T], E = RowSplit[T + 1]; R < E; ++R)
      Y[R] = csrRowDot(Vals, ColIdx, RowPtr[R], RowPtr[R + 1], X);
  });
}

Status CsrSpmv::runBatch(const double *X, std::size_t LdX, double *Y,
                         std::size_t LdY, int NumVectors) const {
  if (!A)
    return Status::failedPrecondition("MKL: runBatch before prepare()");
  Status S = validatePanelArgs(X, LdX, Y, LdY, NumVectors);
  if (!S.ok())
    return S;
  const std::int64_t *RowPtr = A->rowPtr();
  const std::int32_t *ColIdx = A->colIdx();
  const double *Vals = A->vals();

  // Row-parallel like run(), but each row finishes up to 8 panel columns
  // per matrix element: the row streams once per 8 columns instead of once
  // per column, with the partial sums in a stack register block.
  ompParallelFor(NumThreads, NumThreads, [&](int T) {
    for (std::int32_t R = RowSplit[T], End = RowSplit[T + 1]; R < End; ++R) {
      const std::int64_t I0 = RowPtr[R], I1 = RowPtr[R + 1];
      double *YRow = Y + static_cast<std::size_t>(R) * LdY;
      for (int J0 = 0; J0 < NumVectors; J0 += 8) {
        const int Bw = std::min(8, NumVectors - J0);
        double Acc[8] = {};
        for (std::int64_t I = I0; I < I1; ++I) {
          const double V = Vals[I];
          const double *Xr =
              X + static_cast<std::size_t>(ColIdx[I]) * LdX + J0;
          for (int J = 0; J < Bw; ++J)
            Acc[J] += V * Xr[J];
        }
        for (int J = 0; J < Bw; ++J)
          YRow[J0 + J] = Acc[J];
      }
    }
  });
  return Status::okStatus();
}

bool CsrSpmv::traceRun(MemAccessSink &Sink, const double *X,
                       double *Y) const {
  assert(A && "prepare() must run first");
  const std::int64_t *RowPtr = A->rowPtr();
  const std::int32_t *ColIdx = A->colIdx();
  const double *Vals = A->vals();

  for (std::int32_t R = 0, E = A->numRows(); R < E; ++R) {
    Sink.read(RowPtr + R, 2 * sizeof(std::int64_t));
    double Sum = 0.0;
    std::int64_t I = RowPtr[R], I1 = RowPtr[R + 1];
    // Mirror the 8-wide vector body: one 32 B index load, one 64 B value
    // load, and eight gathered x elements per iteration.
    for (; I + 8 <= I1; I += 8) {
      Sink.read(ColIdx + I, 8 * sizeof(std::int32_t));
      Sink.read(Vals + I, 8 * sizeof(double));
      for (int K = 0; K < 8; ++K) {
        Sink.read(X + ColIdx[I + K], sizeof(double));
        Sum += Vals[I + K] * X[ColIdx[I + K]];
      }
    }
    for (; I < I1; ++I) {
      Sink.read(ColIdx + I, sizeof(std::int32_t));
      Sink.read(Vals + I, sizeof(double));
      Sink.read(X + ColIdx[I], sizeof(double));
      Sum += Vals[I] * X[ColIdx[I]];
    }
    Sink.write(Y + R, sizeof(double));
    Y[R] = Sum;
  }
  return true;
}

} // namespace cvr
