//===- core/FusedEpilogue.cpp - Scalar epilogue sweeps --------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The SpMV epilogue sweep (formats/FusedEpilogue.h) and its SpMM panel
// counterpart (formats/BatchEpilogue.h). Both run one loop per op, with
// the op's optional terms as template flags, so no row branches on the
// request.
//
//===----------------------------------------------------------------------===//

#include "formats/BatchEpilogue.h"
#include "formats/FusedEpilogue.h"

#include "support/MemSink.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <type_traits>

namespace cvr {

namespace {

// SpMV sweeps. Each loop reduces through `#pragma omp simd reduction`:
// per-lane partial sums, combined in the order the compiled loop fixes.
// The sweep runs on one thread and the order does not depend on the data,
// so a build's accumulators are bit-identical run to run.

template <bool XDotY, bool YDotY, bool ZDotY>
void dotSweep(FusedEpilogue &E, const double *X, const double *Y,
              std::int64_t N) {
  const double *Z = E.Z;
  double A1 = 0.0, A2 = 0.0, A3 = 0.0;
#pragma omp simd reduction(+ : A1, A2, A3)
  for (std::int64_t R = 0; R < N; ++R) {
    const double V = Y[R];
    if constexpr (XDotY)
      A1 += X[R] * V;
    if constexpr (YDotY)
      A2 += V * V;
    if constexpr (ZDotY)
      A3 += Z[R] * V;
  }
  E.Acc1 = A1;
  E.Acc2 = A2;
  E.Acc3 = A3;
}

template <bool YDotY>
void axpbySweep(FusedEpilogue &E, double *Y, std::int64_t N) {
  const double Alpha = E.Alpha, Beta = E.Beta;
  const double *Z = E.Z;
  double A1 = 0.0;
#pragma omp simd reduction(+ : A1)
  for (std::int64_t R = 0; R < N; ++R) {
    const double V = Alpha * Y[R] + Beta * Z[R];
    Y[R] = V;
    if constexpr (YDotY)
      A1 += V * V;
  }
  E.Acc1 = A1;
}

template <bool WriteR>
void residualSweep(FusedEpilogue &E, const double *Y, std::int64_t N) {
  const double *B = E.B;
  double *ROut = E.ROut;
  double A1 = 0.0;
#pragma omp simd reduction(+ : A1)
  for (std::int64_t R = 0; R < N; ++R) {
    const double Res = B[R] - Y[R];
    A1 += Res * Res;
    if constexpr (WriteR)
      ROut[R] = Res;
  }
  E.Acc1 = A1;
}

void jacobiSweep(FusedEpilogue &E, const double *Y, std::int64_t N) {
  const double *B = E.B, *D = E.D, *Xold = E.Xold;
  double *XNew = E.XNew;
  double A1 = 0.0;
#pragma omp simd reduction(max : A1)
  for (std::int64_t R = 0; R < N; ++R) {
    assert(D[R] != 0.0 && "JacobiStep requires a nonzero diagonal");
    const double Xn = Xold[R] + (B[R] - Y[R]) / D[R];
    XNew[R] = Xn;
    A1 = std::max(A1, std::fabs(Xn - Xold[R]));
  }
  E.Acc1 = A1;
}

template <bool Delta>
void dampSweep(FusedEpilogue &E, double *Y, std::int64_t N) {
  const double Damp = E.Damp, Add = E.Add;
  const double *Prev = E.Prev;
  double A1 = 0.0, A2 = 0.0;
#pragma omp simd reduction(+ : A1, A2)
  for (std::int64_t R = 0; R < N; ++R) {
    const double V = Damp * Y[R] + Add;
    Y[R] = V;
    A1 += V;
    if constexpr (Delta)
      A2 += std::fabs(V - Prev[R]);
  }
  E.Acc1 = A1;
  E.Acc2 = A2;
}

// Batch sweeps: one loop per op over the panel's rows in index order, with
// an inner `omp simd` loop over a block of its columns. Column J's
// accumulator is a lane of its block, so each column sums in row order
// whatever the panel width.

/// Calls \p Row(R, J0, Bw, A1, A2) for every row R in index order, one
/// block of Bw <= 8 columns starting at J0 at a time. The block's
/// accumulators are locals, so they stay in registers across the rows;
/// then they land in E.Acc1/E.Acc2 where those are non-null.
template <class RowFn>
void sweepColumnBlocks(const FusedBatchEpilogue &E, std::size_t Rows,
                       RowFn Row) {
  for (int J0 = 0; J0 < E.NumVectors; J0 += 8) {
    const int Bw = std::min(8, E.NumVectors - J0);
    double A1[8] = {}, A2[8] = {};
    for (std::size_t R = 0; R < Rows; ++R)
      Row(R, J0, Bw, A1, A2);
    for (int J = 0; J < Bw; ++J) {
      if (E.Acc1)
        E.Acc1[J0 + J] = A1[J];
      if (E.Acc2)
        E.Acc2[J0 + J] = A2[J];
    }
  }
}

template <bool YDotY, bool ZDotY>
void batchDotSweep(const FusedBatchEpilogue &E, const double *Y,
                   std::size_t LdY, std::size_t Rows) {
  sweepColumnBlocks(E, Rows, [&](std::size_t R, int J0, int Bw, double *A1,
                                 double *A2) {
    const double *YR = Y + R * LdY + J0;
    const double *ZR = ZDotY ? E.Z + R * E.LdZ + J0 : nullptr;
#pragma omp simd
    for (int J = 0; J < Bw; ++J) {
      if constexpr (YDotY)
        A1[J] += YR[J] * YR[J];
      if constexpr (ZDotY)
        A2[J] += ZR[J] * YR[J];
    }
  });
}

template <bool YDotY>
void batchAxpbySweep(const FusedBatchEpilogue &E, double *Y, std::size_t LdY,
                     std::size_t Rows) {
  const double Alpha = E.Alpha, Beta = E.Beta;
  sweepColumnBlocks(E, Rows, [&](std::size_t R, int J0, int Bw, double *A1,
                                 double *) {
    double *YR = Y + R * LdY + J0;
    const double *ZR = E.Z + R * E.LdZ + J0;
#pragma omp simd
    for (int J = 0; J < Bw; ++J) {
      const double V = Alpha * YR[J] + Beta * ZR[J];
      YR[J] = V;
      if constexpr (YDotY)
        A1[J] += V * V;
    }
  });
}

template <bool WriteR>
void batchResidualSweep(const FusedBatchEpilogue &E, const double *Y,
                        std::size_t LdY, std::size_t Rows) {
  sweepColumnBlocks(E, Rows, [&](std::size_t R, int J0, int Bw, double *A1,
                                 double *) {
    const double *YR = Y + R * LdY + J0;
    const double *BR = E.B + R * E.LdB + J0;
    double *RR = WriteR ? E.ROut + R * E.LdROut + J0 : nullptr;
#pragma omp simd
    for (int J = 0; J < Bw; ++J) {
      const double Res = BR[J] - YR[J];
      A1[J] += Res * Res;
      if constexpr (WriteR)
        RR[J] = Res;
    }
  });
}

void batchJacobiSweep(const FusedBatchEpilogue &E, const double *Y,
                      std::size_t LdY, std::size_t Rows) {
  sweepColumnBlocks(E, Rows, [&](std::size_t R, int J0, int Bw, double *A1,
                                 double *) {
    assert(E.D[R] != 0.0 && "JacobiStep requires a nonzero diagonal");
    const double InvD = 1.0 / E.D[R];
    const double *YR = Y + R * LdY + J0;
    const double *BR = E.B + R * E.LdB + J0;
    const double *XoR = E.Xold + R * E.LdXold + J0;
    double *XnR = E.XNew + R * E.LdXNew + J0;
#pragma omp simd
    for (int J = 0; J < Bw; ++J) {
      const double Xn = XoR[J] + (BR[J] - YR[J]) * InvD;
      const double Step = std::fabs(Xn - XoR[J]);
      XnR[J] = Xn;
      // std::max's selection, on values so the loop vectorizes.
      A1[J] = A1[J] < Step ? Step : A1[J];
    }
  });
}

template <bool HasZ, bool Delta>
void batchDampSweep(const FusedBatchEpilogue &E, double *Y, std::size_t LdY,
                    std::size_t Rows) {
  const double Damp = E.Damp, Beta = E.Beta;
  sweepColumnBlocks(E, Rows, [&](std::size_t R, int J0, int Bw, double *A1,
                                 double *A2) {
    double *YR = Y + R * LdY + J0;
    const double *ZR = HasZ ? E.Z + R * E.LdZ + J0 : nullptr;
    const double *PR = Delta ? E.Prev + R * E.LdPrev + J0 : nullptr;
#pragma omp simd
    for (int J = 0; J < Bw; ++J) {
      const double V = Damp * YR[J] + (HasZ ? Beta * ZR[J] : 0.0);
      YR[J] = V;
      A1[J] += V;
      if constexpr (Delta)
        A2[J] += std::fabs(V - PR[J]);
    }
  });
}

/// Calls \p F with std::true_type or std::false_type, turning a request
/// flag into a template argument.
template <class Fn> void withFlag(bool Flag, Fn F) {
  if (Flag)
    F(std::true_type{});
  else
    F(std::false_type{});
}

/// Reports the operand traffic \p E causes at \p Row: the op's extra reads
/// (X/Z/B/D/Xold/Prev) and side writes (XNew/ROut), everything but y.
void traceRowOperands(MemAccessSink &Sink, const FusedEpilogue &E,
                      const double *X, std::int32_t Row) {
  switch (E.Op) {
  case EpilogueOp::None:
    break;
  case EpilogueOp::Dot:
    if (E.WantXDotY)
      Sink.read(X + Row, sizeof(double));
    if (E.Z)
      Sink.read(E.Z + Row, sizeof(double));
    break;
  case EpilogueOp::Axpby:
    Sink.read(E.Z + Row, sizeof(double));
    break;
  case EpilogueOp::ResidualNorm:
    Sink.read(E.B + Row, sizeof(double));
    if (E.ROut)
      Sink.write(E.ROut + Row, sizeof(double));
    break;
  case EpilogueOp::JacobiStep:
    Sink.read(E.B + Row, sizeof(double));
    Sink.read(E.D + Row, sizeof(double));
    Sink.read(E.Xold + Row, sizeof(double));
    Sink.write(E.XNew + Row, sizeof(double));
    break;
  case EpilogueOp::DampScale:
    if (E.Prev)
      Sink.read(E.Prev + Row, sizeof(double));
    break;
  }
}

} // namespace

void applyEpilogueScalar(FusedEpilogue &E, const double *X, double *Y,
                         std::int64_t N) {
  E.Acc1 = E.Acc2 = E.Acc3 = 0.0;
  switch (E.Op) {
  case EpilogueOp::None:
    return;
  case EpilogueOp::Dot:
    withFlag(E.WantXDotY, [&](auto XY) {
      withFlag(E.WantYDotY, [&](auto YY) {
        withFlag(E.Z != nullptr, [&](auto ZY) {
          dotSweep<XY(), YY(), ZY()>(E, X, Y, N);
        });
      });
    });
    return;
  case EpilogueOp::Axpby:
    withFlag(E.WantYDotY,
             [&](auto YY) { axpbySweep<YY()>(E, Y, N); });
    return;
  case EpilogueOp::ResidualNorm:
    withFlag(E.ROut != nullptr,
             [&](auto WriteR) { residualSweep<WriteR()>(E, Y, N); });
    return;
  case EpilogueOp::JacobiStep:
    jacobiSweep(E, Y, N);
    return;
  case EpilogueOp::DampScale:
    withFlag(E.Prev != nullptr,
             [&](auto Delta) { dampSweep<Delta()>(E, Y, N); });
    return;
  }
}

void traceEpilogueScalar(MemAccessSink &Sink, FusedEpilogue &E,
                         const double *X, double *Y, std::int64_t N) {
  if (E.Op != EpilogueOp::None) {
    for (std::int64_t R = 0; R < N; ++R) {
      std::int32_t Row = static_cast<std::int32_t>(R);
      // The sweep re-reads the y element run() just wrote.
      Sink.read(Y + R, sizeof(double));
      traceRowOperands(Sink, E, X, Row);
      if (E.transformsY())
        Sink.write(Y + R, sizeof(double));
    }
  }
  // The sweep itself, so the replay's values are the execution's bit for
  // bit.
  applyEpilogueScalar(E, X, Y, N);
}

void applyBatchEpilogueScalar(FusedBatchEpilogue &E, double *Y,
                              std::size_t LdY, std::int64_t NumRows) {
  for (int J = 0; J < E.NumVectors; ++J) {
    if (E.Acc1)
      E.Acc1[J] = 0.0;
    if (E.Acc2)
      E.Acc2[J] = 0.0;
  }
  const auto Rows = static_cast<std::size_t>(NumRows);
  switch (E.Op) {
  case EpilogueOp::None:
    return;
  case EpilogueOp::Dot:
    withFlag(E.WantYDotY, [&](auto YY) {
      withFlag(E.Z != nullptr, [&](auto ZY) {
        batchDotSweep<YY(), ZY()>(E, Y, LdY, Rows);
      });
    });
    return;
  case EpilogueOp::Axpby:
    withFlag(E.WantYDotY,
             [&](auto YY) { batchAxpbySweep<YY()>(E, Y, LdY, Rows); });
    return;
  case EpilogueOp::ResidualNorm:
    withFlag(E.ROut != nullptr, [&](auto WriteR) {
      batchResidualSweep<WriteR()>(E, Y, LdY, Rows);
    });
    return;
  case EpilogueOp::JacobiStep:
    batchJacobiSweep(E, Y, LdY, Rows);
    return;
  case EpilogueOp::DampScale:
    withFlag(E.Z != nullptr, [&](auto HasZ) {
      withFlag(E.Prev != nullptr, [&](auto Delta) {
        batchDampSweep<HasZ(), Delta()>(E, Y, LdY, Rows);
      });
    });
    return;
  }
}

} // namespace cvr
