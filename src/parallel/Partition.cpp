//===- parallel/Partition.cpp - nnz-balanced work partitioning ------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "parallel/Partition.h"

#include "support/ParallelFor.h"

#include <algorithm>
#include <cassert>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace cvr {

namespace {

/// Row containing nonzero index \p Nnz (skips empty rows correctly).
std::int32_t rowOfNnz(const std::int64_t *RowPtr, std::int32_t NumRows,
                      std::int64_t Nnz) {
  const std::int64_t *It = std::upper_bound(RowPtr, RowPtr + NumRows + 1, Nnz);
  return static_cast<std::int32_t>(It - RowPtr) - 1;
}

std::int32_t rowOfNnz(const CsrMatrix &A, std::int64_t Nnz) {
  return rowOfNnz(A.rowPtr(), A.numRows(), Nnz);
}

} // namespace

std::vector<NnzChunk> partitionByNnz(const CsrMatrix &A, int NumThreads) {
  return partitionByNnz(A.rowPtr(), A.numRows(), NumThreads);
}

std::vector<NnzChunk> partitionByNnz(const std::int64_t *RowPtr,
                                     std::int32_t NumRows, int NumThreads) {
  assert(NumThreads > 0 && "need at least one thread");
  std::int64_t Nnz = NumRows == 0 ? 0 : RowPtr[NumRows];
  std::vector<NnzChunk> Chunks(NumThreads);
  for (int T = 0; T < NumThreads; ++T) {
    NnzChunk &C = Chunks[T];
    C.NnzStart = Nnz * T / NumThreads;
    C.NnzEnd = Nnz * (T + 1) / NumThreads;
    if (C.empty())
      continue;
    C.FirstRow = rowOfNnz(RowPtr, NumRows, C.NnzStart);
    C.LastRow = rowOfNnz(RowPtr, NumRows, C.NnzEnd - 1);
    assert(C.FirstRow >= 0 && C.FirstRow <= C.LastRow &&
           C.LastRow < NumRows && "chunk rows out of range");
  }
  return Chunks;
}

std::vector<std::uint8_t>
findSharedRows(const CsrMatrix &A, const std::vector<NnzChunk> &Chunks) {
  std::vector<std::uint8_t> Shared(A.numRows(), 0);
  const std::int64_t *RowPtr = A.rowPtr();
  for (std::size_t T = 1; T < Chunks.size(); ++T) {
    std::int64_t Boundary = Chunks[T].NnzStart;
    if (Boundary <= 0 || Boundary >= A.numNonZeros())
      continue;
    std::int32_t Row = rowOfNnz(A, Boundary);
    // The boundary splits Row only if it falls strictly inside the row's
    // nnz range (a boundary exactly at a row start splits nothing).
    if (RowPtr[Row] < Boundary && Boundary < RowPtr[Row + 1])
      Shared[Row] = 1;
  }
  return Shared;
}

void spmvPartitioned(const CsrMatrix &A, const std::vector<NnzChunk> &Chunks,
                     const std::vector<std::uint8_t> &Shared, const double *X,
                     double *Y) {
  assert(Shared.size() == static_cast<std::size_t>(A.numRows()) &&
         "one shared flag per row");
  const std::int64_t *RowPtr = A.rowPtr();
  const std::int32_t *Ci = A.colIdx();
  const double *Va = A.vals();

  // Rows no single chunk fully owns start at zero: shared rows accumulate
  // partials from several chunks, empty rows are never stored to.
  for (std::int32_t Row = 0; Row < A.numRows(); ++Row)
    if (Shared[Row] || RowPtr[Row] == RowPtr[Row + 1])
      Y[Row] = 0.0;

  const int NumChunks = static_cast<int>(Chunks.size());
  ompParallelFor(NumChunks, NumChunks, [&](int T) {
    const NnzChunk &C = Chunks[T];
    if (C.empty())
      return;
    for (std::int32_t Row = C.FirstRow; Row <= C.LastRow; ++Row) {
      std::int64_t Lo = std::max(RowPtr[Row], C.NnzStart);
      std::int64_t Hi = std::min(RowPtr[Row + 1], C.NnzEnd);
      if (Hi <= Lo)
        continue;
      double Sum = 0.0;
      for (std::int64_t I = Lo; I < Hi; ++I)
        Sum += Va[I] * X[Ci[I]];
      if (Shared[Row]) {
#pragma omp atomic
        Y[Row] += Sum;
      } else {
        Y[Row] = Sum;
      }
    }
  });
}

int defaultThreadCount() {
#ifdef _OPENMP
  return std::max(1, omp_get_max_threads());
#else
  return 1;
#endif
}

} // namespace cvr
