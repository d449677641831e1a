//===- core/CvrSpmm.h - Batched multi-RHS SpMM over CVR ---------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register-blocked SpMM on the CVR stream: Y = A * X for a panel of
/// NumVectors right-hand sides. Panels are row-major — element (i, j) of X
/// lives at X[i * LdX + j] with LdX >= NumVectors — so each CVR column
/// index fetches NumVectors *contiguous* x values. That single layout
/// decision deletes the paper's gather bottleneck for the batched case:
/// where SpMV issues one 8-way gather per step, SpMM issues eight plain
/// (unaligned) vector loads, and the matrix's value/index/chunk streams —
/// the dominant term of a bandwidth-bound kernel's bytes/nnz — are read
/// once per register block of columns instead of once per vector.
///
/// The kernel streams the matrix ceil(K / 8) times, each pass covering
/// min(8, K - J0) columns in register accumulators: 8-wide (VecD8), 4-wide
/// (VecD4) for a width-4 remainder, or a masked tail of any other width
/// 1..7. Each pass is the SpMV chunk loop (core/CvrChunkLoop.h) under a
/// panel lane policy, with every scalar write-back widened to a panel row.
/// The panel loads take no software prefetch.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_CORE_CVRSPMM_H
#define CVR_CORE_CVRSPMM_H

#include "core/CvrFormat.h"
#include "support/Status.h"

namespace cvr {

/// Computes Y = A * X for \p NumVectors right-hand sides stored row-major
/// (element (i, j) at X[i * LdX + j]; LdX, LdY >= NumVectors; X has
/// numCols rows, Y numRows rows and is overwritten). Rejects invalid panel
/// arguments — null pointers, NumVectors < 1, leading dimensions narrower
/// than the panel — with INVALID_ARGUMENT instead of reading out of
/// bounds. Works for every stream kind and for column-blocked matrices (the
/// accumulate-mode path keeps the exact SpMV semantics).
[[nodiscard]] Status cvrSpmm(const CvrMatrix &M, const double *X,
                             std::size_t LdX, double *Y, std::size_t LdY,
                             int NumVectors);

} // namespace cvr

#endif // CVR_CORE_CVRSPMM_H
