//===- formats/BatchEpilogue.h - Fused SpMM epilogue ops --------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-right-hand-side counterpart of FusedEpilogue: the per-column
/// vector operations a batched solver iteration performs on the SpMM output
/// panel, applied by one sweep after the SpMM. Operands are row-major
/// panels (element (Row, j) lives at Ptr[Row * Ld + j]) matching the SpMM
/// panel layout, so the epilogue's operand reads are as contiguous as the
/// kernel's own panel loads.
///
/// Determinism: the sweep sums each column over the rows in index order,
/// so a given panel always produces bit-identical accumulator values,
/// whatever the panel width.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_FORMATS_BATCHEPILOGUE_H
#define CVR_FORMATS_BATCHEPILOGUE_H

#include "formats/FusedEpilogue.h"

#include <cstddef>
#include <cstdint>

namespace cvr {

/// One fused SpMM epilogue request over a panel of NumVectors columns.
/// Operand panels are row-major with the stated leading dimensions (>=
/// NumVectors); shared operands (the Jacobi diagonal D) are plain vectors
/// indexed by row. Accumulator outputs Acc1/Acc2 are caller-owned arrays of
/// NumVectors doubles, zeroed by runBatchFused on entry, with op-specific
/// per-column meanings:
///
///   Dot:          Acc1[j] = y_j . y_j (WantYDotY), Acc2[j] = Z_j . y_j
///                 (Z non-null)
///   Axpby:        Acc1[j] = y_j . y_j after the transform (WantYDotY)
///   ResidualNorm: Acc1[j] = ||B_j - y_j||^2
///   JacobiStep:   Acc1[j] = max_i |XNew(i,j) - Xold(i,j)| (infinity norm)
///   DampScale:    Acc1[j] = sum(y_j) after the transform, Acc2[j] =
///                 sum_i |y(i,j) - Prev(i,j)| (Prev non-null)
///
/// DampScale's additive term is the per-column panel Z scaled by Beta
/// (y <- Damp * y + Beta * Z), which is exactly the personalized-PageRank
/// iteration: Z carries each column's personalization vector and
/// Beta = 1 - damping.
struct FusedBatchEpilogue {
  EpilogueOp Op = EpilogueOp::None;
  int NumVectors = 0; ///< Panel width K; must match the runBatchFused call.

  bool WantYDotY = false;    ///< Dot / Axpby: accumulate y_j . y_j.
  const double *Z = nullptr; ///< Dot: dot operand. Axpby / DampScale: added
                             ///< panel.
  std::size_t LdZ = 0;

  double Alpha = 1.0; ///< Axpby: scale on y.
  double Beta = 0.0;  ///< Axpby / DampScale: scale on Z.
  double Damp = 1.0;  ///< DampScale: scale on y.

  const double *B = nullptr; ///< ResidualNorm / JacobiStep: rhs panel.
  std::size_t LdB = 0;
  const double *D = nullptr;    ///< JacobiStep: shared diagonal (by row).
  const double *Xold = nullptr; ///< JacobiStep: current iterate panel.
  std::size_t LdXold = 0;
  double *XNew = nullptr; ///< JacobiStep: next iterate panel (written; must
                          ///< not alias the kernel's X input).
  std::size_t LdXNew = 0;
  double *ROut = nullptr; ///< ResidualNorm: optional residual panel.
  std::size_t LdROut = 0;
  const double *Prev = nullptr; ///< DampScale: optional L1-delta reference.
  std::size_t LdPrev = 0;

  double *Acc1 = nullptr; ///< Per-column outputs, NumVectors each; see the
  double *Acc2 = nullptr; ///< op table above.

  /// Convenience factories covering the batched-solver call sites.
  static FusedBatchEpilogue dot(int K, bool YDotY, double *Acc1,
                                const double *Z = nullptr,
                                std::size_t LdZ = 0,
                                double *Acc2 = nullptr) {
    FusedBatchEpilogue E;
    E.Op = EpilogueOp::Dot;
    E.NumVectors = K;
    E.WantYDotY = YDotY;
    E.Z = Z;
    E.LdZ = LdZ;
    E.Acc1 = Acc1;
    E.Acc2 = Acc2;
    return E;
  }
  static FusedBatchEpilogue axpby(int K, double Alpha, double Beta,
                                  const double *Z, std::size_t LdZ,
                                  double *Acc1 = nullptr) {
    FusedBatchEpilogue E;
    E.Op = EpilogueOp::Axpby;
    E.NumVectors = K;
    E.Alpha = Alpha;
    E.Beta = Beta;
    E.Z = Z;
    E.LdZ = LdZ;
    E.WantYDotY = Acc1 != nullptr;
    E.Acc1 = Acc1;
    return E;
  }
  static FusedBatchEpilogue residualNorm(int K, const double *B,
                                         std::size_t LdB, double *Acc1,
                                         double *ROut = nullptr,
                                         std::size_t LdROut = 0) {
    FusedBatchEpilogue E;
    E.Op = EpilogueOp::ResidualNorm;
    E.NumVectors = K;
    E.B = B;
    E.LdB = LdB;
    E.ROut = ROut;
    E.LdROut = LdROut;
    E.Acc1 = Acc1;
    return E;
  }
  static FusedBatchEpilogue jacobiStep(int K, const double *B,
                                       std::size_t LdB, const double *D,
                                       const double *Xold, std::size_t LdXold,
                                       double *XNew, std::size_t LdXNew,
                                       double *Acc1) {
    FusedBatchEpilogue E;
    E.Op = EpilogueOp::JacobiStep;
    E.NumVectors = K;
    E.B = B;
    E.LdB = LdB;
    E.D = D;
    E.Xold = Xold;
    E.LdXold = LdXold;
    E.XNew = XNew;
    E.LdXNew = LdXNew;
    E.Acc1 = Acc1;
    return E;
  }
  static FusedBatchEpilogue dampScale(int K, double Damp, double Beta,
                                      const double *Z, std::size_t LdZ,
                                      double *Acc1, const double *Prev = nullptr,
                                      std::size_t LdPrev = 0,
                                      double *Acc2 = nullptr) {
    FusedBatchEpilogue E;
    E.Op = EpilogueOp::DampScale;
    E.NumVectors = K;
    E.Damp = Damp;
    E.Beta = Beta;
    E.Z = Z;
    E.LdZ = LdZ;
    E.Acc1 = Acc1;
    E.Prev = Prev;
    E.LdPrev = LdPrev;
    E.Acc2 = Acc2;
    return E;
  }
};

/// The batch epilogue: one sweep over the finished panel
/// Y[0..NumRows) x [0..E.NumVectors) applying \p E, one block of up to
/// eight columns at a time: one loop per op over the rows in index order,
/// with a vectorized loop over the block's columns inside. Zeroes
/// Acc1/Acc2 first. SpmvKernel::runBatchFused composes it with
/// runBatch() for every format.
void applyBatchEpilogueScalar(FusedBatchEpilogue &E, double *Y,
                              std::size_t LdY, std::int64_t NumRows);

} // namespace cvr

#endif // CVR_FORMATS_BATCHEPILOGUE_H
