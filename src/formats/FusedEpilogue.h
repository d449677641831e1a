//===- formats/FusedEpilogue.h - Fused SpMV epilogue ops --------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The epilogue operations the iterative solvers perform on the SpMV output
/// vector, expressed as one request so the solver's dots, axpys, norms and
/// scalings ride with the SpMV. An unfused solver iteration follows every
/// `y = A x` with separate full-vector sweeps; on a memory-bound kernel
/// each sweep is another trip through DRAM. Most kernels run the request
/// as one sweep after the SpMV (applyEpilogueScalar); CSR folds it into
/// its write-back (fusedRowApply), where the y re-read disappears and only
/// the epilogue's extra operand reads remain.
///
/// Determinism: every accumulator is reduced in a fixed order — rows in
/// index order in the sweep, per-row within a thread range and partials
/// merged in thread index order on CSR's path — so a given kernel
/// configuration always produces bit-identical accumulator values. Fused
/// and unfused results differ only by floating-point reassociation,
/// bounded by the tolerance documented in DESIGN.md section 12.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_FORMATS_FUSEDEPILOGUE_H
#define CVR_FORMATS_FUSEDEPILOGUE_H

#include "support/Annotations.h"

#include <cassert>
#include <cmath>
#include <cstdint>

namespace cvr {

class MemAccessSink;

/// Which operation runs on each finished y element.
enum class EpilogueOp : std::uint8_t {
  None,         ///< Plain y = A x (runFused degenerates to run).
  Dot,          ///< Accumulate x.y / y.y / z.y as requested; y unchanged.
  Axpby,        ///< y <- Alpha * y + Beta * Z; optionally accumulate y.y.
  ResidualNorm, ///< Accumulate ||B - y||^2; optionally write ROut = B - y.
  JacobiStep,   ///< XNew <- Xold + (B - y) / D; accumulate max |XNew - Xold|.
  DampScale,    ///< y <- Damp * y + Add; accumulate sum(y) and, with Prev,
                ///< the L1 delta sum |y - Prev|.
};

/// One fused epilogue request. The operand pointers must all have
/// numRows elements (they are indexed by output row); Dot's x.y term
/// additionally requires a square matrix because it gathers the run input
/// x at each output row. Accumulator outputs (Acc1..Acc3) are zeroed by
/// runFused on entry and carry op-specific meanings:
///
///   Dot:          Acc1 = x.y (WantXDotY), Acc2 = y.y (WantYDotY),
///                 Acc3 = Z.y (Z non-null)
///   Axpby:        Acc1 = y.y after the transform (WantYDotY)
///   ResidualNorm: Acc1 = ||B - y||^2
///   JacobiStep:   Acc1 = max_i |XNew_i - Xold_i| (infinity norm)
///   DampScale:    Acc1 = sum(y) after the transform,
///                 Acc2 = sum |y - Prev| (Prev non-null)
struct FusedEpilogue {
  EpilogueOp Op = EpilogueOp::None;

  bool WantXDotY = false;      ///< Dot: accumulate x.y (square matrices).
  bool WantYDotY = false;      ///< Dot / Axpby: accumulate y.y.
  const double *Z = nullptr;   ///< Dot: z.y operand. Axpby: added vector.

  double Alpha = 1.0;          ///< Axpby: scale on y.
  double Beta = 0.0;           ///< Axpby: scale on Z.
  double Damp = 1.0;           ///< DampScale: scale on y.
  double Add = 0.0;            ///< DampScale: added constant.

  const double *B = nullptr;    ///< ResidualNorm / JacobiStep: rhs.
  const double *D = nullptr;    ///< JacobiStep: diagonal (nonzero entries).
  const double *Xold = nullptr; ///< JacobiStep: current iterate.
  double *XNew = nullptr;       ///< JacobiStep: next iterate (written; must
                                ///< not alias the kernel's x input).
  double *ROut = nullptr;       ///< ResidualNorm: optional residual vector.
  const double *Prev = nullptr; ///< DampScale: optional L1-delta reference.

  double Acc1 = 0.0; ///< See the op table above.
  double Acc2 = 0.0;
  double Acc3 = 0.0;

  /// Convenience factories covering the solver call sites.
  static FusedEpilogue dot(bool XDotY, bool YDotY,
                           const double *Z = nullptr) {
    FusedEpilogue E;
    E.Op = EpilogueOp::Dot;
    E.WantXDotY = XDotY;
    E.WantYDotY = YDotY;
    E.Z = Z;
    return E;
  }
  static FusedEpilogue axpby(double Alpha, double Beta, const double *Z,
                             bool YDotY = false) {
    FusedEpilogue E;
    E.Op = EpilogueOp::Axpby;
    E.Alpha = Alpha;
    E.Beta = Beta;
    E.Z = Z;
    E.WantYDotY = YDotY;
    return E;
  }
  static FusedEpilogue residualNorm(const double *B,
                                    double *ROut = nullptr) {
    FusedEpilogue E;
    E.Op = EpilogueOp::ResidualNorm;
    E.B = B;
    E.ROut = ROut;
    return E;
  }
  static FusedEpilogue jacobiStep(const double *B, const double *D,
                                  const double *Xold, double *XNew) {
    FusedEpilogue E;
    E.Op = EpilogueOp::JacobiStep;
    E.B = B;
    E.D = D;
    E.Xold = Xold;
    E.XNew = XNew;
    return E;
  }
  static FusedEpilogue dampScale(double Damp, double Add,
                                 const double *Prev = nullptr) {
    FusedEpilogue E;
    E.Op = EpilogueOp::DampScale;
    E.Damp = Damp;
    E.Add = Add;
    E.Prev = Prev;
    return E;
  }

  /// True when the op rewrites y in place (the kernel must store the
  /// transformed value instead of the raw dot product).
  bool transformsY() const {
    return Op == EpilogueOp::Axpby || Op == EpilogueOp::DampScale;
  }
};

/// Partial accumulator a kernel carries per chunk / per thread. Merged in a
/// fixed structural order by mergeAccum so reductions are deterministic for
/// a given kernel configuration.
struct EpilogueAccum {
  double A1 = 0.0;
  double A2 = 0.0;
  double A3 = 0.0;
};

/// Applies \p E to one finished row while its value \p YVal is hot.
/// Reads the operand vectors at \p Row, accumulates into \p A, performs the
/// op's side writes (XNew, ROut), and returns the value the kernel must
/// store to Y[Row]. \p X is the kernel's run input (only dereferenced for
/// WantXDotY).
CVR_HOT inline double fusedRowApply(const FusedEpilogue &E, const double *X,
                            std::int32_t Row, double YVal,
                            EpilogueAccum &A) {
  switch (E.Op) {
  case EpilogueOp::None:
    return YVal;
  case EpilogueOp::Dot:
    if (E.WantXDotY)
      A.A1 += X[Row] * YVal;
    if (E.WantYDotY)
      A.A2 += YVal * YVal;
    if (E.Z)
      A.A3 += E.Z[Row] * YVal;
    return YVal;
  case EpilogueOp::Axpby: {
    double V = E.Alpha * YVal + E.Beta * E.Z[Row];
    if (E.WantYDotY)
      A.A1 += V * V;
    return V;
  }
  case EpilogueOp::ResidualNorm: {
    double R = E.B[Row] - YVal;
    A.A1 += R * R;
    if (E.ROut)
      E.ROut[Row] = R;
    return YVal;
  }
  case EpilogueOp::JacobiStep: {
    assert(E.D[Row] != 0.0 && "JacobiStep requires a nonzero diagonal");
    double Xn = E.Xold[Row] + (E.B[Row] - YVal) / E.D[Row];
    E.XNew[Row] = Xn;
    A.A1 = std::max(A.A1, std::fabs(Xn - E.Xold[Row]));
    return YVal;
  }
  case EpilogueOp::DampScale: {
    double V = E.Damp * YVal + E.Add;
    A.A1 += V;
    if (E.Prev)
      A.A2 += std::fabs(V - E.Prev[Row]);
    return V;
  }
  }
  return YVal;
}

/// Merges \p Part into \p Total. Sums everywhere except JacobiStep's
/// infinity norm, which maxes. Call in fixed structural order (chunk index,
/// thread index) to keep the reduction deterministic.
CVR_HOT inline void mergeAccum(const FusedEpilogue &E, EpilogueAccum &Total,
                       const EpilogueAccum &Part) {
  if (E.Op == EpilogueOp::JacobiStep) {
    Total.A1 = std::max(Total.A1, Part.A1);
    return;
  }
  Total.A1 += Part.A1;
  Total.A2 += Part.A2;
  Total.A3 += Part.A3;
}

/// Writes the finished totals into the request's output fields.
CVR_HOT inline void storeAccum(FusedEpilogue &E, const EpilogueAccum &Total) {
  E.Acc1 = Total.A1;
  E.Acc2 = Total.A2;
  E.Acc3 = Total.A3;
}

/// The unfused composition: one scalar sweep over Y[0..N) applying \p E
/// row by row in index order. This is what SpmvKernel::runFused composes
/// with run() for every format but CSR, and the reference the checked mode
/// compares every runFused against.
void applyEpilogueScalar(FusedEpilogue &E, const double *X, double *Y,
                         std::int64_t N);

/// Trace-accurate twin of applyEpilogueScalar: reports into \p Sink every
/// memory reference the scalar sweep performs (the y re-read a fused kernel
/// eliminates, plus the op's operand traffic) while computing the same
/// result.
void traceEpilogueScalar(MemAccessSink &Sink, FusedEpilogue &E,
                         const double *X, double *Y, std::int64_t N);

/// Reports into \p Sink the operand traffic of one fused-row application:
/// the op's extra reads (X/Z/B/D/Xold/Prev at \p Row) and side writes
/// (XNew/ROut) — everything fusedRowApply touches except the y element
/// itself, which stays in registers on a fused path. CSR's traceRunFused
/// calls this at each finalize site.
void traceFusedRowOperands(MemAccessSink &Sink, const FusedEpilogue &E,
                           const double *X, std::int32_t Row);

} // namespace cvr

#endif // CVR_FORMATS_FUSEDEPILOGUE_H
