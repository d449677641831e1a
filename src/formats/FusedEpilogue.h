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
/// each sweep is another trip through DRAM. Every kernel runs the request
/// the same way: run() followed by one sweep over y (applyEpilogueScalar)
/// that applies every op and reduction the solver would otherwise spread
/// over several sweeps.
///
/// Determinism: the sweep runs one loop per op on one thread and reduces
/// through `#pragma omp simd reduction`: per-lane partial sums combined in
/// the order the compiled loop fixes, independent of the data. So a given
/// build always produces bit-identical accumulator values for the same y.
/// Results differ from a plain per-row evaluation only by floating-point
/// reassociation, bounded by the tolerance documented in DESIGN.md
/// section 12.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_FORMATS_FUSEDEPILOGUE_H
#define CVR_FORMATS_FUSEDEPILOGUE_H

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

  /// True when the op rewrites y in place.
  bool transformsY() const {
    return Op == EpilogueOp::Axpby || Op == EpilogueOp::DampScale;
  }
};

/// The epilogue sweep: one pass over Y[0..N) applying \p E, one vectorized
/// loop per op and optional term (no per-row branch on the request). Zeroes
/// the accumulators first. SpmvKernel::runFused composes it with run() for
/// every format.
void applyEpilogueScalar(FusedEpilogue &E, const double *X, double *Y,
                         std::int64_t N);

/// Trace-accurate twin of applyEpilogueScalar: reports into \p Sink every
/// memory reference the sweep performs (the y re-read plus the op's
/// operand traffic), then runs
/// applyEpilogueScalar itself, so its results are the sweep's bit for bit.
void traceEpilogueScalar(MemAccessSink &Sink, FusedEpilogue &E,
                         const double *X, double *Y, std::int64_t N);

} // namespace cvr

#endif // CVR_FORMATS_FUSEDEPILOGUE_H
