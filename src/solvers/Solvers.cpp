//===- solvers/Solvers.cpp - Iterative solvers over SpMV kernels ----------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Every solver has one formulation. The single-vector solvers push the
// post-SpMV vector work into SpmvKernel::runFused and merge the sweeps that
// remain; the batched solvers follow each runBatch with their own sweep
// over the panel. The one textbook formulation kept is
// referenceConjugateGradient, the unfused CG the fused trajectories are
// tested and benchmarked against. No solver allocates inside its iteration
// loop — every vector is sized before the loop and the fused epilogue
// descriptors live on the stack.
//
//===----------------------------------------------------------------------===//

#include "solvers/Solvers.h"

#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "support/Annotations.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace cvr {

namespace {

// The vector helpers and CG's combined sweep reduce through `#pragma omp
// simd reduction`, in the order the compiled loop fixes (see
// applyEpilogueScalar): bit-identical run to run for a given build.

CVR_HOT double dot(const std::vector<double> &A,
                   const std::vector<double> &B) {
  const double *Pa = A.data(), *Pb = B.data();
  const std::size_t N = A.size();
  double S = 0.0;
#pragma omp simd reduction(+ : S)
  for (std::size_t I = 0; I < N; ++I)
    S += Pa[I] * Pb[I];
  return S;
}

CVR_HOT double norm2(const std::vector<double> &A) {
  return std::sqrt(dot(A, A));
}

CVR_HOT void axpy(double Alpha, const std::vector<double> &X,
          std::vector<double> &Y) {
  const double *Px = X.data();
  double *Py = Y.data();
  const std::size_t N = Y.size();
#pragma omp simd
  for (std::size_t I = 0; I < N; ++I)
    Py[I] += Alpha * Px[I];
}

//===----------------------------------------------------------------------===//
// Conjugate gradient
//===----------------------------------------------------------------------===//

/// Fused CG. One fused SpMV (q = A p carrying p.q and q.q) and one combined
/// sweep per iteration. Two reformulations cut the sweep traffic:
///
/// 1. Beta comes from a residual-norm recurrence instead of an explicit
///    r.r sweep:
///
///      ||r - alpha q||^2 = ||r||^2 - 2 alpha (r.q) + alpha^2 ||q||^2
///
///    where r.q = p.q - beta (p_prev.q): p = r + beta p_prev, and
///    p_prev.q = p.q_prev by the symmetry CG already requires — the latter
///    is accumulated for free at the end of the previous combined sweep.
///    The recurrence is never used for the stopping test: on indefinite
///    input its cancellation can collapse to zero while the true residual
///    is enormous. Convergence is decided only by the exact ||r||^2 the
///    combined sweep produces (point 2).
///
/// 2. The residual vector is never materialized. Since p_k = r_k +
///    beta_k p_{k-1}, the current residual is reconstructible in registers
///    from the two direction buffers:
///
///      r_{k+1} = p_k - beta_k p_{k-1} - alpha_k q
///
///    so the combined sweep ping-pongs p / p_prev and carries r only
///    through registers: four vector reads (x, p, p_prev, q) and two
///    writes (x, p_next) replace the reference's five separate sweeps. The
///    exact ||r_{k+1}||^2 also falls out of the same registers, and
///    re-anchors the recurrence every iteration — drift is bounded to a
///    single step, and near the solution (where the recurrence's
///    cancellation error dominates) the exact value decides convergence.
///
/// The recurrence and the reconstruction reassociate the arithmetic
/// differently from referenceConjugateGradient, which is the dominant term
/// in the fused-vs-reference trajectory tolerance (DESIGN.md section 12).
SolveResult cgFused(const SpmvKernel &Kernel, const std::vector<double> &B,
                    std::vector<double> &X, const SolverOptions &Opts) {
  std::size_t N = B.size();
  SolveResult Res;

  // POld starts at zero: with Beta = 0 the first reconstruction reduces to
  // r = p0 - alpha q without touching POld's (zero) contents.
  std::vector<double> P(N), POld(N, 0.0), Q(N);
  // Setup: q = A x0 fused with p0 = r0 = b - q and rho = ||r0||^2.
  FusedEpilogue Setup = FusedEpilogue::residualNorm(B.data(), P.data());
  Kernel.runFused(X.data(), Q.data(), Setup);
  double Rho = Setup.Acc1;

  double BNorm = norm2(B);
  if (BNorm == 0.0)
    BNorm = 1.0;
  // Initial-residual convergence check, mirroring the reference CG.
  Res.Residual = std::sqrt(Rho) / BNorm;
  if (Res.Residual < Opts.Tolerance) {
    Res.Converged = true;
    return Res;
  }

  double Beta = 0.0; // beta_k in p_k = r_k + beta_k p_{k-1}.
  double C = 0.0;    // p.q of the previous iteration (free in the sweep).
  for (int Iter = 0; Iter < Opts.MaxIterations; ++Iter) {
    Res.Iterations = Iter + 1;
    // q = A p, with p.q (the alpha denominator) and q.q (the residual
    // recurrence term) folded into the kernel's write-back.
    FusedEpilogue E = FusedEpilogue::dot(/*XDotY=*/true, /*YDotY=*/true);
    Kernel.runFused(P.data(), Q.data(), E);
    double PQ = E.Acc1, QQ = E.Acc2;
    if (PQ == 0.0)
      break; // Breakdown (non-SPD input).
    double Alpha = Rho / PQ;
    double RQ = PQ - Beta * C;
    // The recurrence value only steers beta; convergence is decided by the
    // exact ||r||^2 from the sweep below. On indefinite input the
    // cancellation here can collapse to (clamped) zero while the true
    // residual is enormous — trusting it would declare false convergence.
    double RhoNext = Rho - 2.0 * Alpha * RQ + Alpha * Alpha * QQ;
    RhoNext = std::max(RhoNext, 0.0); // Recurrence can drift below zero.
    if (Rho == 0.0)
      break;
    double BetaNext = RhoNext / Rho;
    // Combined sweep: solution update, in-register residual
    // reconstruction with its exact ||r||^2, direction update into the
    // ping-pong buffer, and next iteration's p.q_prev — one pass.
    double CNext = 0.0, RR = 0.0;
    const double *Pp = P.data(), *Pq = Q.data();
    double *Px = X.data(), *Po = POld.data();
#pragma omp simd reduction(+ : CNext, RR)
    for (std::size_t I = 0; I < N; ++I) {
      const double Pi = Pp[I];
      Px[I] += Alpha * Pi;
      const double RNew = Pi - Beta * Po[I] - Alpha * Pq[I];
      RR += RNew * RNew;
      const double PNext = RNew + BetaNext * Pi;
      Po[I] = PNext;
      CNext += PNext * Pq[I];
    }
    P.swap(POld); // POld now holds p_k, P holds p_{k+1}. No allocation.
    C = CNext;
    Beta = BetaNext;
    if (!std::isfinite(RR))
      break; // Diverged (non-SPD input); keep the last finite residual.
    // Re-anchor the recurrence on the exact ||r||^2; x is already
    // updated, so converging on it here is sound.
    Rho = RR;
    Res.Residual = std::sqrt(RR) / BNorm;
    if (Res.Residual < Opts.Tolerance) {
      Res.Converged = true;
      return Res;
    }
  }
  return Res;
}

//===----------------------------------------------------------------------===//
// BiCGSTAB
//===----------------------------------------------------------------------===//

/// Fused BiCGSTAB: rhat.v rides the first SpMV, s.t and t.t ride the
/// second, and the remaining sweeps are merged so each iteration touches
/// three combined sweeps instead of eight separate ones.
SolveResult biCgStabFused(const SpmvKernel &Kernel,
                          const std::vector<double> &B,
                          std::vector<double> &X, const SolverOptions &Opts) {
  std::size_t N = B.size();
  SolveResult Res;

  std::vector<double> R(N), RHat(N), P(N), V(N, 0.0), S(N), T(N);
  // Setup: t = A x0 fused with r = b - t and ||r||^2 (= rhat.r: rhat = r).
  FusedEpilogue Setup = FusedEpilogue::residualNorm(B.data(), R.data());
  Kernel.runFused(X.data(), T.data(), Setup);
  double Rho = Setup.Acc1;
  RHat = R;
  P = R;

  double BNorm = norm2(B);
  if (BNorm == 0.0)
    BNorm = 1.0;
  // Initial-residual convergence check (rhat = r, so rho = ||r||^2).
  Res.Residual = std::sqrt(Rho) / BNorm;
  if (Res.Residual < Opts.Tolerance) {
    Res.Converged = true;
    return Res;
  }

  for (int Iter = 0; Iter < Opts.MaxIterations; ++Iter) {
    Res.Iterations = Iter + 1;
    // v = A p with rhat.v folded in.
    FusedEpilogue Ev = FusedEpilogue::dot(false, false, RHat.data());
    Kernel.runFused(P.data(), V.data(), Ev);
    double RHatV = Ev.Acc3;
    if (RHatV == 0.0)
      break;
    double Alpha = Rho / RHatV;
    // s = r - alpha v, accumulating ||s||^2 in the same pass.
    double SS = 0.0;
    for (std::size_t I = 0; I < N; ++I) {
      S[I] = R[I] - Alpha * V[I];
      SS += S[I] * S[I];
    }
    if (std::sqrt(SS) / BNorm < Opts.Tolerance) {
      axpy(Alpha, P, X);
      Res.Residual = std::sqrt(SS) / BNorm;
      Res.Converged = true;
      return Res;
    }
    // t = A s with s.t (x.y of this product) and t.t folded in.
    FusedEpilogue Et = FusedEpilogue::dot(/*XDotY=*/true, /*YDotY=*/true);
    Kernel.runFused(S.data(), T.data(), Et);
    double TS = Et.Acc1, TT = Et.Acc2;
    if (TT == 0.0)
      break;
    double Omega = TS / TT;
    // Solution + residual update, accumulating ||r||^2 and rhat.r.
    double RR = 0.0, RHatR = 0.0;
    for (std::size_t I = 0; I < N; ++I) {
      X[I] += Alpha * P[I] + Omega * S[I];
      R[I] = S[I] - Omega * T[I];
      RR += R[I] * R[I];
      RHatR += RHat[I] * R[I];
    }
    Res.Residual = std::sqrt(RR) / BNorm;
    if (Res.Residual < Opts.Tolerance) {
      Res.Converged = true;
      return Res;
    }
    if (Omega == 0.0 || Rho == 0.0)
      break;
    double Beta = (RHatR / Rho) * (Alpha / Omega);
    for (std::size_t I = 0; I < N; ++I)
      P[I] = R[I] + Beta * (P[I] - Omega * V[I]);
    Rho = RHatR;
  }
  return Res;
}

//===----------------------------------------------------------------------===//
// Jacobi
//===----------------------------------------------------------------------===//

/// Fused Jacobi: the entire update — next iterate, infinity-norm step size
/// — happens inside the SpMV write-back; no post-sweep remains.
SolveResult jacobiFused(const SpmvKernel &Kernel,
                        const std::vector<double> &Diag,
                        const std::vector<double> &B, std::vector<double> &X,
                        const SolverOptions &Opts) {
  std::size_t N = B.size();
  SolveResult Res;
  std::vector<double> Ax(N), Next(N);

  for (int Iter = 0; Iter < Opts.MaxIterations; ++Iter) {
    Res.Iterations = Iter + 1;
    // The descriptor is rebuilt each iteration: X and Next swap roles.
    FusedEpilogue E = FusedEpilogue::jacobiStep(B.data(), Diag.data(),
                                                X.data(), Next.data());
    Kernel.runFused(X.data(), Ax.data(), E);
    X.swap(Next);
    Res.Residual = E.Acc1;
    if (E.Acc1 < Opts.Tolerance) {
      Res.Converged = true;
      return Res;
    }
  }
  return Res;
}

//===----------------------------------------------------------------------===//
// Power iteration
//===----------------------------------------------------------------------===//

/// Fused power iteration: the Rayleigh numerator v.(Av) and ||Av||^2 both
/// ride the SpMV; only the normalization sweep remains.
SolveResult powerFused(const SpmvKernel &Kernel, double &Eigenvalue,
                       std::vector<double> &Eigenvector,
                       const SolverOptions &Opts) {
  std::size_t N = Eigenvector.size();
  SolveResult Res;

  std::vector<double> Next(N);
  Eigenvalue = 0.0;
  for (int Iter = 0; Iter < Opts.MaxIterations; ++Iter) {
    Res.Iterations = Iter + 1;
    FusedEpilogue E = FusedEpilogue::dot(/*XDotY=*/true, /*YDotY=*/true);
    Kernel.runFused(Eigenvector.data(), Next.data(), E);
    double Lambda = E.Acc1;
    double NextNorm = std::sqrt(E.Acc2);
    if (NextNorm == 0.0)
      break; // A annihilated the iterate.
    for (std::size_t I = 0; I < N; ++I)
      Eigenvector[I] = Next[I] / NextNorm;
    Res.Residual = std::fabs(Lambda - Eigenvalue);
    Eigenvalue = Lambda;
    if (Iter > 0 &&
        Res.Residual < Opts.Tolerance * std::max(1.0, std::fabs(Lambda))) {
      Res.Converged = true;
      return Res;
    }
  }
  return Res;
}

//===----------------------------------------------------------------------===//
// PageRank
//===----------------------------------------------------------------------===//

/// Fused PageRank: the damp-and-teleport scaling and the rank-mass sum ride
/// the SpMV. The leak redistribution cannot fuse — the leak depends on the
/// complete damped sum — so one combined post-sweep (leak add + L1 delta)
/// remains of the textbook formulation's two.
SolveResult pageRankFused(const SpmvKernel &Kernel,
                          std::vector<double> &Ranks, double Damping,
                          const SolverOptions &Opts) {
  std::size_t N = Ranks.size();
  SolveResult Res;
  std::vector<double> Next(N);

  for (int Iter = 0; Iter < Opts.MaxIterations; ++Iter) {
    Res.Iterations = Iter + 1;
    FusedEpilogue E = FusedEpilogue::dampScale(
        Damping, (1.0 - Damping) / static_cast<double>(N));
    Kernel.runFused(Ranks.data(), Next.data(), E);
    double Leak = (1.0 - E.Acc1) / static_cast<double>(N);
    double Delta = 0.0;
    for (std::size_t I = 0; I < N; ++I) {
      Next[I] += Leak;
      Delta += std::fabs(Next[I] - Ranks[I]);
    }
    Ranks.swap(Next);
    Res.Residual = Delta;
    if (Delta < Opts.Tolerance) {
      Res.Converged = true;
      return Res;
    }
  }
  return Res;
}

/// Converged-or-capped exit bookkeeping shared by every public solver.
SolveResult finishSolve(SolveResult R) {
  if (obs::telemetryEnabled()) {
    static obs::Counter &Solves = obs::counter("solver.solves");
    static obs::Counter &Iters = obs::counter("solver.iterations");
    Solves.inc();
    Iters.add(R.Iterations);
  }
  return R;
}

} // namespace

SolveResult conjugateGradient(const SpmvKernel &Kernel,
                              const std::vector<double> &B,
                              std::vector<double> &X,
                              const SolverOptions &Opts) {
  assert(X.size() == B.size() && "square system required");
  obs::TraceSpan Span("solve/cg", "solve");
  return finishSolve(cgFused(Kernel, B, X, Opts));
}

SolveResult referenceConjugateGradient(const SpmvKernel &Kernel,
                                       const std::vector<double> &B,
                                       std::vector<double> &X,
                                       const SolverOptions &Opts) {
  assert(X.size() == B.size() && "square system required");
  std::size_t N = B.size();
  SolveResult Res;

  std::vector<double> R(N), P(N), Ap(N);
  Kernel.run(X.data(), Ap.data()); // Ap = A x0
  for (std::size_t I = 0; I < N; ++I)
    R[I] = B[I] - Ap[I];
  P = R;

  double BNorm = norm2(B);
  if (BNorm == 0.0)
    BNorm = 1.0;
  double RsOld = dot(R, R);
  // Already at the target (exact warm start, or a zero right-hand side
  // with a zero guess): report convergence without spending an iteration.
  Res.Residual = std::sqrt(RsOld) / BNorm;
  if (Res.Residual < Opts.Tolerance) {
    Res.Converged = true;
    return Res;
  }

  for (int Iter = 0; Iter < Opts.MaxIterations; ++Iter) {
    Res.Iterations = Iter + 1;
    Kernel.run(P.data(), Ap.data());
    double PAp = dot(P, Ap);
    if (PAp == 0.0)
      break; // Breakdown (non-SPD input).
    double Alpha = RsOld / PAp;
    axpy(Alpha, P, X);
    axpy(-Alpha, Ap, R);
    double RsNew = dot(R, R);
    Res.Residual = std::sqrt(RsNew) / BNorm;
    if (Res.Residual < Opts.Tolerance) {
      Res.Converged = true;
      return Res;
    }
    double Beta = RsNew / RsOld;
    for (std::size_t I = 0; I < N; ++I)
      P[I] = R[I] + Beta * P[I];
    RsOld = RsNew;
  }
  return Res;
}

SolveResult biCgStab(const SpmvKernel &Kernel, const std::vector<double> &B,
                     std::vector<double> &X, const SolverOptions &Opts) {
  assert(X.size() == B.size() && "square system required");
  obs::TraceSpan Span("solve/bicgstab", "solve");
  return finishSolve(biCgStabFused(Kernel, B, X, Opts));
}

SolveResult jacobi(const SpmvKernel &Kernel, const std::vector<double> &Diag,
                   const std::vector<double> &B, std::vector<double> &X,
                   const SolverOptions &Opts) {
  assert(X.size() == B.size() && Diag.size() == B.size() &&
         "square system required");
  obs::TraceSpan Span("solve/jacobi", "solve");
  return finishSolve(jacobiFused(Kernel, Diag, B, X, Opts));
}

SolveResult powerIteration(const SpmvKernel &Kernel, double &Eigenvalue,
                           std::vector<double> &Eigenvector,
                           const SolverOptions &Opts) {
  assert(!Eigenvector.empty() && "seed the eigenvector with the dimension");
  // Deterministic non-degenerate seed if the caller passed zeros.
  std::size_t N = Eigenvector.size();
  double Norm = norm2(Eigenvector);
  if (Norm == 0.0) {
    for (std::size_t I = 0; I < N; ++I)
      Eigenvector[I] = 1.0 + 0.001 * static_cast<double>(I % 97);
    Norm = norm2(Eigenvector);
  }
  for (double &V : Eigenvector)
    V /= Norm;
  obs::TraceSpan Span("solve/power", "solve");
  return finishSolve(powerFused(Kernel, Eigenvalue, Eigenvector, Opts));
}

SolveResult pageRank(const SpmvKernel &Kernel, std::vector<double> &Ranks,
                     double Damping, const SolverOptions &Opts) {
  assert(!Ranks.empty() && "size the rank vector with the vertex count");
  for (double &R : Ranks)
    R = 1.0 / static_cast<double>(Ranks.size());
  obs::TraceSpan Span("solve/pagerank", "solve");
  return finishSolve(pageRankFused(Kernel, Ranks, Damping, Opts));
}

//===----------------------------------------------------------------------===//
// Batched multi-right-hand-side solves
//===----------------------------------------------------------------------===//

namespace {

/// Shared shape validation for the batched solvers: a prepared square
/// kernel of dimension \p N and at least one column.
[[nodiscard]] Status validateBatchSolve(const SpmvKernel &Kernel,
                                        std::int64_t N, int NumVectors) {
  if (NumVectors < 1)
    return Status::invalidArgument("batched solve needs NumVectors >= 1, got " +
                                   std::to_string(NumVectors));
  if (N <= 0)
    return Status::invalidArgument("batched solve needs a non-empty system");
  if (Kernel.preparedRows() != N || Kernel.preparedCols() != N)
    return Status::failedPrecondition(
        Kernel.name() +
        ": batched solve needs a prepared square kernel of dimension " +
        std::to_string(N));
  return Status::okStatus();
}

/// Per-column convergence bookkeeping after one lockstep sweep: \p Deltas
/// holds each column's residual measure for this sweep. Returns true when
/// every column has converged.
bool updateBatchColumns(BatchSolveResult &Res, const double *Deltas,
                        std::vector<char> &Done, int Iter, double Tol) {
  bool All = true;
  for (std::size_t J = 0; J < Res.Columns.size(); ++J) {
    if (!Done[J]) {
      SolveResult &C = Res.Columns[J];
      C.Iterations = Iter + 1;
      C.Residual = Deltas[J];
      if (Deltas[J] < Tol) {
        C.Converged = true;
        Done[J] = 1;
      }
    }
    All = All && Done[J] != 0;
  }
  return All;
}

/// Exit bookkeeping shared by the batched solvers.
BatchSolveResult finishBatchSolve(BatchSolveResult R) {
  R.AllConverged = true;
  for (const SolveResult &C : R.Columns)
    R.AllConverged = R.AllConverged && C.Converged;
  if (obs::telemetryEnabled()) {
    static obs::Counter &Solves = obs::counter("solver.batch_solves");
    static obs::Counter &Cols = obs::counter("solver.batch_columns");
    static obs::Counter &Iters = obs::counter("solver.batch_iterations");
    Solves.inc();
    Cols.add(static_cast<std::int64_t>(R.Columns.size()));
    Iters.add(R.Iterations);
  }
  return R;
}

} // namespace

StatusOr<BatchSolveResult> jacobiBatch(const SpmvKernel &Kernel,
                                       const std::vector<double> &Diag,
                                       const double *B, std::size_t LdB,
                                       double *X, std::size_t LdX,
                                       int NumVectors,
                                       const SolverOptions &Opts) {
  Status S = validateBatchSolve(
      Kernel, static_cast<std::int64_t>(Diag.size()), NumVectors);
  if (!S.ok())
    return S;
  if (!B || !X)
    return Status::invalidArgument("jacobiBatch panels must be non-null");
  const std::size_t K = static_cast<std::size_t>(NumVectors);
  if (LdB < K || LdX < K)
    return Status::invalidArgument(
        "jacobiBatch panel strides (LdB=" + std::to_string(LdB) +
        ", LdX=" + std::to_string(LdX) + ") must cover NumVectors=" +
        std::to_string(NumVectors));
  if (std::find(Diag.begin(), Diag.end(), 0.0) != Diag.end())
    return Status::invalidArgument("jacobiBatch needs a nonzero diagonal");
  const std::size_t N = Diag.size();

  obs::TraceSpan Span("solve/jacobi-batch", "solve");
  Span.arg("cols", NumVectors);

  BatchSolveResult Res;
  Res.Columns.assign(K, SolveResult{});
  std::vector<char> Done(K, 0);

  // Internal dense panels (leading dimension K) make the iterate ping-pong
  // a pointer swap regardless of the caller's strides; nothing below this
  // line allocates.
  std::vector<double> Cur(N * K), Next(N * K), Ax(N * K);
  std::vector<double> Deltas(K, 0.0);
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = 0; J < K; ++J)
      Cur[I * K + J] = X[I * LdX + J];

  for (int Iter = 0; Iter < Opts.MaxIterations; ++Iter) {
    Status RS = Kernel.runBatch(Cur.data(), K, Ax.data(), K, NumVectors);
    if (!RS.ok())
      return RS;
    // Next iterate and each column's infinity-norm step, one sweep over
    // the panel: every column's max runs over the rows in index order.
    std::fill(Deltas.begin(), Deltas.end(), 0.0);
    for (std::size_t I = 0; I < N; ++I) {
      const double InvD = 1.0 / Diag[I];
      const double *BR = B + I * LdB, *YR = &Ax[I * K], *XoR = &Cur[I * K];
      double *XnR = &Next[I * K];
#pragma omp simd
      for (std::size_t J = 0; J < K; ++J) {
        const double Xn = XoR[J] + (BR[J] - YR[J]) * InvD;
        const double Step = std::fabs(Xn - XoR[J]);
        XnR[J] = Xn;
        // std::max's selection, on values so the loop vectorizes.
        Deltas[J] = Deltas[J] < Step ? Step : Deltas[J];
      }
    }
    Res.Iterations = Iter + 1;
    Cur.swap(Next);
    if (updateBatchColumns(Res, Deltas.data(), Done, Iter, Opts.Tolerance))
      break;
  }

  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = 0; J < K; ++J)
      X[I * LdX + J] = Cur[I * K + J];
  return finishBatchSolve(std::move(Res));
}

StatusOr<BatchSolveResult> pageRankBatch(const SpmvKernel &Kernel,
                                         double *Ranks, std::size_t LdR,
                                         const double *Personalization,
                                         std::size_t LdP, int NumVectors,
                                         double Damping,
                                         const SolverOptions &Opts) {
  const std::int64_t N64 = Kernel.preparedRows();
  Status S = validateBatchSolve(Kernel, N64, NumVectors);
  if (!S.ok())
    return S;
  if (!Ranks)
    return Status::invalidArgument("pageRankBatch rank panel must be non-null");
  const std::size_t K = static_cast<std::size_t>(NumVectors);
  if (LdR < K || (Personalization && LdP < K))
    return Status::invalidArgument(
        "pageRankBatch panel strides must cover NumVectors=" +
        std::to_string(NumVectors));
  const std::size_t N = static_cast<std::size_t>(N64);

  obs::TraceSpan Span("solve/pagerank-batch", "solve");
  Span.arg("cols", NumVectors);

  // Normalized personalization panel (leading dimension K): each column is
  // a probability distribution; uniform columns reproduce classic PageRank.
  std::vector<double> P(N * K);
  if (Personalization) {
    for (std::size_t J = 0; J < K; ++J) {
      double Sum = 0.0;
      for (std::size_t I = 0; I < N; ++I) {
        double V = Personalization[I * LdP + J];
        if (V < 0.0)
          return Status::invalidArgument(
              "personalization column " + std::to_string(J) +
              " has a negative entry");
        Sum += V;
      }
      if (Sum <= 0.0)
        return Status::invalidArgument("personalization column " +
                                       std::to_string(J) + " has no mass");
      for (std::size_t I = 0; I < N; ++I)
        P[I * K + J] = Personalization[I * LdP + J] / Sum;
    }
  } else {
    const double U = 1.0 / static_cast<double>(N);
    for (double &V : P)
      V = U;
  }

  BatchSolveResult Res;
  Res.Columns.assign(K, SolveResult{});
  std::vector<char> Done(K, 0);

  // r0 = p per column; internal panels as in jacobiBatch.
  std::vector<double> Cur(P), Next(N * K);
  std::vector<double> Sums(K, 0.0), Deltas(K, 0.0);
  const double Beta = 1.0 - Damping;

  for (int Iter = 0; Iter < Opts.MaxIterations; ++Iter) {
    Status RS = Kernel.runBatch(Cur.data(), K, Next.data(), K, NumVectors);
    if (!RS.ok())
      return RS;
    // Damp and teleport, summing each column's rank mass over the rows in
    // index order.
    std::fill(Sums.begin(), Sums.end(), 0.0);
    for (std::size_t I = 0; I < N; ++I) {
      double *YR = &Next[I * K];
      const double *PR = &P[I * K];
#pragma omp simd
      for (std::size_t J = 0; J < K; ++J) {
        const double V = Damping * YR[J] + Beta * PR[J];
        YR[J] = V;
        Sums[J] += V;
      }
    }
    // Dangling vertices leak rank mass; per column, redistribute it along
    // that column's personalization and measure the L1 step in the same
    // sweep.
    for (std::size_t J = 0; J < K; ++J) {
      Sums[J] = 1.0 - Sums[J]; // Now the leak.
      Deltas[J] = 0.0;
    }
    for (std::size_t I = 0; I < N; ++I)
      for (std::size_t J = 0; J < K; ++J) {
        double V = Next[I * K + J] + Sums[J] * P[I * K + J];
        Next[I * K + J] = V;
        Deltas[J] += std::fabs(V - Cur[I * K + J]);
      }
    Res.Iterations = Iter + 1;
    Cur.swap(Next);
    if (updateBatchColumns(Res, Deltas.data(), Done, Iter, Opts.Tolerance))
      break;
  }

  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = 0; J < K; ++J)
      Ranks[I * LdR + J] = Cur[I * K + J];
  return finishBatchSolve(std::move(Res));
}

} // namespace cvr
