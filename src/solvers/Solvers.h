//===- solvers/Solvers.h - Iterative solvers over SpMV kernels --*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The downstream workloads the paper motivates ("large-size linear systems
/// and eigenvalue problems ... heavily rely on SpMV", Section 1), built on
/// the common SpmvKernel interface so any format — CVR included — can drive
/// them: conjugate gradient and BiCGSTAB linear solvers, Jacobi iteration,
/// power iteration for the dominant eigenpair, and PageRank.
///
/// Every solver drives SpmvKernel::runFused, so the dots, norms, and
/// scalings that follow each y = A x ride in one epilogue sweep after the
/// SpMV, and restructures the remaining vector work into combined sweeps —
/// CG needs one full-vector sweep per iteration plus the epilogue where the
/// textbook loop needs six, Jacobi and PageRank at most one. The tests
/// check each solver against an independent answer: CG against its
/// textbook formulation, referenceConjugateGradient (also the unfused side
/// of bench/solver_pipeline), the others against manufactured solutions
/// and residuals. DESIGN.md section 12 tabulates the sweep counts and the
/// agreement tolerance.
///
/// All solvers are deterministic given their inputs and report convergence
/// explicitly; none of them allocates per iteration (the allocation audit
/// in tests/SolversTest.cpp enforces this with a counting allocator).
///
//===----------------------------------------------------------------------===//

#ifndef CVR_SOLVERS_SOLVERS_H
#define CVR_SOLVERS_SOLVERS_H

#include "formats/SpmvKernel.h"

#include <cstdint>
#include <vector>

namespace cvr {

/// Outcome of an iterative solve.
struct SolveResult {
  bool Converged = false;
  int Iterations = 0;
  double Residual = 0.0; ///< Solver-specific final residual measure.
};

/// Common iteration controls.
struct SolverOptions {
  int MaxIterations = 1000;
  double Tolerance = 1e-10; ///< Relative residual target.
};

/// Conjugate gradient for symmetric positive-definite A: solves A x = b.
/// \p Kernel must be prepared on a square SPD matrix. \p X holds the
/// initial guess on entry and the solution on exit. The residual reported
/// is ||r|| / ||b||.
SolveResult conjugateGradient(const SpmvKernel &Kernel,
                              const std::vector<double> &B,
                              std::vector<double> &X,
                              const SolverOptions &Opts = {});

/// Textbook conjugate gradient, named after referenceSpmv: a plain run()
/// per iteration followed by five separate vector sweeps (p.Ap, two axpys,
/// r.r, the direction update), with r kept explicitly. It is the reference
/// conjugateGradient's fused, implicit-residual recurrence is tested and
/// benchmarked against, so it records no solver telemetry; production callers use conjugateGradient. Same
/// contract and residual measure as conjugateGradient.
SolveResult referenceConjugateGradient(const SpmvKernel &Kernel,
                                       const std::vector<double> &B,
                                       std::vector<double> &X,
                                       const SolverOptions &Opts = {});

/// BiCGSTAB for general square A: solves A x = b without requiring
/// symmetry. Residual reported is ||r|| / ||b||.
SolveResult biCgStab(const SpmvKernel &Kernel, const std::vector<double> &B,
                     std::vector<double> &X, const SolverOptions &Opts = {});

/// Jacobi iteration x <- D^-1 (b - (A - D) x) for diagonally dominant A.
/// \p Diag must hold the matrix diagonal (all entries nonzero). Residual
/// reported is ||x_new - x_old||_inf.
SolveResult jacobi(const SpmvKernel &Kernel, const std::vector<double> &Diag,
                   const std::vector<double> &B, std::vector<double> &X,
                   const SolverOptions &Opts = {});

/// Power iteration: dominant eigenvalue (by magnitude) and eigenvector of a
/// square A. \p Eigenvector must be sized to the dimension; an all-zero
/// vector is replaced by a deterministic non-degenerate seed. Residual is
/// the eigenvalue change between the last two iterations.
SolveResult powerIteration(const SpmvKernel &Kernel, double &Eigenvalue,
                           std::vector<double> &Eigenvector,
                           const SolverOptions &Opts = {});

/// PageRank over a column-stochastic transition kernel (see
/// examples/pagerank.cpp for building one): r <- d*M*r + (1-d)/n with
/// uniform redistribution of dangling mass. Residual is the L1 rank change.
SolveResult pageRank(const SpmvKernel &Kernel, std::vector<double> &Ranks,
                     double Damping = 0.85, const SolverOptions &Opts = {});

//===----------------------------------------------------------------------===//
// Batched multi-right-hand-side solves
//===----------------------------------------------------------------------===//

/// Outcome of a batched solve: NumVectors independent systems sharing one
/// matrix, advanced in lockstep so every sweep is one SpMM that streams
/// the matrix once for the whole batch.
struct BatchSolveResult {
  bool AllConverged = false; ///< Every column hit its tolerance.
  int Iterations = 0;        ///< Lockstep sweeps run (max over columns).
  /// Per-column outcome. Iterations is the sweep at which that column
  /// first met the tolerance (columns keep riding the batch afterwards —
  /// extra sweeps are Jacobi/power-method fixed-point applications and
  /// leave a converged column in place up to roundoff).
  std::vector<SolveResult> Columns;
};

/// Batched Jacobi: NumVectors right-hand sides over one prepared kernel.
/// Panels are row-major like SpmvKernel::runBatch — element (i, j) of B at
/// B[i * LdB + j] — with \p X holding the initial guesses on entry and the
/// solutions on exit. Each sweep is one fused SpMM carrying the whole
/// update (next iterate + per-column infinity-norm step sizes), so the
/// matrix streams once per register block of columns instead of once per
/// system. INVALID_ARGUMENT for bad panels; any kernel batch failure
/// propagates.
[[nodiscard]] StatusOr<BatchSolveResult>
jacobiBatch(const SpmvKernel &Kernel, const std::vector<double> &Diag,
            const double *B, std::size_t LdB, double *X, std::size_t LdX,
            int NumVectors, const SolverOptions &Opts = {});

/// Batched personalized PageRank: NumVectors rank vectors over one shared
/// transition kernel, each biased by its own personalization column
/// (\p Personalization row-major with LdP, columns normalized internally;
/// nullptr means every column teleports uniformly, i.e. classic PageRank).
/// \p Ranks (row-major, LdR) is overwritten with the converged ranks. Each
/// sweep fuses the damp-and-teleport scaling and the per-column rank-mass
/// sums into one SpMM; the per-column leak redistribution (proportional to
/// the personalization) remains as the single post-sweep. Residual per
/// column is its L1 rank change.
[[nodiscard]] StatusOr<BatchSolveResult>
pageRankBatch(const SpmvKernel &Kernel, double *Ranks, std::size_t LdR,
              const double *Personalization, std::size_t LdP, int NumVectors,
              double Damping = 0.85, const SolverOptions &Opts = {});

} // namespace cvr

#endif // CVR_SOLVERS_SOLVERS_H
