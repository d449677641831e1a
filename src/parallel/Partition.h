//===- parallel/Partition.h - nnz-balanced work partitioning ----*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The nonzero-even partitioning the paper uses for CVR ("we divide the
/// nonzero elements evenly to T parts", Section 4.2): each thread owns a
/// half-open nnz range plus the first/last row indices that range touches.
/// A row crossing a chunk boundary is computed partially by two (or more)
/// threads; those *shared rows* are detected here so kernels can combine
/// their partials with atomics while keeping every other row atomic-free.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_PARALLEL_PARTITION_H
#define CVR_PARALLEL_PARTITION_H

#include "matrix/Csr.h"

#include <cstdint>
#include <vector>

namespace cvr {

/// One thread's share of the nonzeros.
struct NnzChunk {
  std::int64_t NnzStart = 0; ///< First owned nonzero (inclusive).
  std::int64_t NnzEnd = 0;   ///< One past the last owned nonzero.
  std::int32_t FirstRow = -1; ///< Row containing NnzStart (-1 if empty).
  std::int32_t LastRow = -1;  ///< Row containing NnzEnd - 1 (-1 if empty).

  std::int64_t size() const { return NnzEnd - NnzStart; }
  bool empty() const { return NnzEnd == NnzStart; }
};

/// Splits the nonzeros of \p A into \p NumThreads near-equal chunks.
/// Chunks are contiguous and ordered; empty chunks (more threads than
/// nonzeros) have FirstRow == LastRow == -1.
///
/// A row denser than nnz/NumThreads is split across several consecutive
/// chunks, each with FirstRow == LastRow == that row: the row's partials
/// are combined through the shared-row atomic path (findSharedRows marks
/// it), so the split is capped only by the chunk count: a single dense row
/// can legitimately occupy every chunk. Callers must not assume
/// FirstRow < LastRow or that a row appears in at most two chunks.
std::vector<NnzChunk> partitionByNnz(const CsrMatrix &A, int NumThreads);

/// The same split over a bare row-pointer array of \p NumRows rows
/// (RowPtr[0] == 0): the CVR converter splits each column band's rows so.
std::vector<NnzChunk> partitionByNnz(const std::int64_t *RowPtr,
                                     std::int32_t NumRows, int NumThreads);

/// Marks rows that more than one chunk contributes to (their nnz range
/// straddles a chunk boundary). Returned vector has one flag per row.
std::vector<std::uint8_t> findSharedRows(const CsrMatrix &A,
                                         const std::vector<NnzChunk> &Chunks);

/// Number of threads to use by default (OMP_NUM_THREADS / hardware).
int defaultThreadCount();

/// Parallel CSR SpMV over an nnz partition: one OpenMP thread per chunk,
/// rows clipped to each chunk's nnz range. Interior rows have a single
/// writer and take a plain store; rows straddling a chunk boundary (per
/// \p Shared, from findSharedRows) are combined with atomic adds — the
/// exact contract CVR's write-back records follow, exercised directly here
/// so the race-detection build has a minimal target. \p Y is overwritten.
void spmvPartitioned(const CsrMatrix &A, const std::vector<NnzChunk> &Chunks,
                     const std::vector<std::uint8_t> &Shared, const double *X,
                     double *Y);

} // namespace cvr

#endif // CVR_PARALLEL_PARTITION_H
