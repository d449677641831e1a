//===- core/BatchEpilogue.cpp - Scalar batch epilogue sweep ---------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "formats/BatchEpilogue.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cvr {

namespace {

/// Per-column accumulator of one register block of columns (at most 8).
struct BatchEpilogueAccum {
  double A1[8] = {};
  double A2[8] = {};
};

/// Applies \p E to one finished row's register block. \p YRow points at
/// the Bw finished values of row \p Row for panel columns [J0, J0 + Bw);
/// they are transformed in place when the op rewrites y. Operand panels
/// are read at (Row, J0 + j); accumulators land in slots [0, Bw) of \p A.
void batchRowApply(const FusedBatchEpilogue &E, std::int32_t Row, int J0,
                   int Bw, double *YRow, BatchEpilogueAccum &A) {
  const std::size_t R = static_cast<std::size_t>(Row);
  switch (E.Op) {
  case EpilogueOp::None:
    return;
  case EpilogueOp::Dot: {
    if (E.WantYDotY)
      for (int J = 0; J < Bw; ++J)
        A.A1[J] += YRow[J] * YRow[J];
    if (E.Z) {
      const double *ZRow = E.Z + R * E.LdZ + J0;
      for (int J = 0; J < Bw; ++J)
        A.A2[J] += ZRow[J] * YRow[J];
    }
    return;
  }
  case EpilogueOp::Axpby: {
    const double *ZRow = E.Z + R * E.LdZ + J0;
    for (int J = 0; J < Bw; ++J) {
      double V = E.Alpha * YRow[J] + E.Beta * ZRow[J];
      YRow[J] = V;
      if (E.WantYDotY)
        A.A1[J] += V * V;
    }
    return;
  }
  case EpilogueOp::ResidualNorm: {
    const double *BRow = E.B + R * E.LdB + J0;
    double *RRow = E.ROut ? E.ROut + R * E.LdROut + J0 : nullptr;
    for (int J = 0; J < Bw; ++J) {
      double Res = BRow[J] - YRow[J];
      A.A1[J] += Res * Res;
      if (RRow)
        RRow[J] = Res;
    }
    return;
  }
  case EpilogueOp::JacobiStep: {
    assert(E.D[R] != 0.0 && "JacobiStep requires a nonzero diagonal");
    const double InvD = 1.0 / E.D[R];
    const double *BRow = E.B + R * E.LdB + J0;
    const double *XoRow = E.Xold + R * E.LdXold + J0;
    double *XnRow = E.XNew + R * E.LdXNew + J0;
    for (int J = 0; J < Bw; ++J) {
      double Xn = XoRow[J] + (BRow[J] - YRow[J]) * InvD;
      XnRow[J] = Xn;
      A.A1[J] = std::max(A.A1[J], std::fabs(Xn - XoRow[J]));
    }
    return;
  }
  case EpilogueOp::DampScale: {
    const double *ZRow = E.Z ? E.Z + R * E.LdZ + J0 : nullptr;
    const double *PRow = E.Prev ? E.Prev + R * E.LdPrev + J0 : nullptr;
    for (int J = 0; J < Bw; ++J) {
      double V = E.Damp * YRow[J] + (ZRow ? E.Beta * ZRow[J] : 0.0);
      YRow[J] = V;
      A.A1[J] += V;
      if (PRow)
        A.A2[J] += std::fabs(V - PRow[J]);
    }
    return;
  }
  }
}

/// Writes the finished totals of the register block [J0, J0 + Bw) into the
/// request's per-column output arrays.
void storeBatchAccum(const FusedBatchEpilogue &E,
                     const BatchEpilogueAccum &Total, int J0, int Bw) {
  for (int J = 0; J < Bw; ++J) {
    if (E.Acc1)
      E.Acc1[J0 + J] = Total.A1[J];
    if (E.Acc2)
      E.Acc2[J0 + J] = Total.A2[J];
  }
}

} // namespace

void applyBatchEpilogueScalar(FusedBatchEpilogue &E, double *Y,
                              std::size_t LdY, std::int64_t NumRows) {
  const int K = E.NumVectors;
  for (int J = 0; J < K; ++J) {
    if (E.Acc1)
      E.Acc1[J] = 0.0;
    if (E.Acc2)
      E.Acc2[J] = 0.0;
  }
  if (E.Op == EpilogueOp::None)
    return;
  // One register block of columns at a time, all rows per block, the
  // blocks the SpMM kernel's passes cover.
  for (int J0 = 0; J0 < K; J0 += 8) {
    int Bw = std::min(8, K - J0);
    BatchEpilogueAccum A;
    for (std::int64_t R = 0; R < NumRows; ++R)
      batchRowApply(E, static_cast<std::int32_t>(R), J0, Bw,
                    Y + static_cast<std::size_t>(R) * LdY + J0, A);
    storeBatchAccum(E, A, J0, Bw);
  }
}

} // namespace cvr
