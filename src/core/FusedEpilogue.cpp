//===- core/FusedEpilogue.cpp - Scalar epilogue sweeps --------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "formats/FusedEpilogue.h"

#include "support/MemSink.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <type_traits>

namespace cvr {

namespace {

// One loop per op, with the op's optional terms as template parameters, so
// no row branches on the request. Each loop reduces through `#pragma omp
// simd reduction`: per-lane partial sums, combined in the order the
// compiled loop fixes. The sweep runs on one thread and the order does not
// depend on the data, so a build's accumulators are bit-identical run to
// run.

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

/// Calls \p F with std::true_type or std::false_type, turning a request
/// flag into a template argument.
template <class Fn> void withFlag(bool Flag, Fn F) {
  if (Flag)
    F(std::true_type{});
  else
    F(std::false_type{});
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
      // The separate sweep re-reads the y element a fused kernel still
      // holds in a register; that read is exactly the traffic fusion
      // deletes.
      Sink.read(Y + R, sizeof(double));
      traceFusedRowOperands(Sink, E, X, Row);
      if (E.transformsY())
        Sink.write(Y + R, sizeof(double));
    }
  }
  // The sweep itself, so the replay's values are the execution's bit for
  // bit.
  applyEpilogueScalar(E, X, Y, N);
}

void traceFusedRowOperands(MemAccessSink &Sink, const FusedEpilogue &E,
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

} // namespace cvr
