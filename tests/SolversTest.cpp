//===- tests/SolversTest.cpp - Iterative solver tests ---------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "solvers/Solvers.h"

#include "TestUtil.h"
#include "core/Cvr.h"
#include "formats/Registry.h"
#include "gen/Generators.h"
#include "matrix/Coo.h"
#include "matrix/Reference.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace cvr {
namespace {

using test::randomVector;

/// SPD test system: 5-point Laplacian with a manufactured solution.
struct SpdSystem {
  CsrMatrix A;
  std::vector<double> XStar;
  std::vector<double> B;

  explicit SpdSystem(std::int32_t Side) : A(genStencil5(Side, Side)) {
    XStar = randomVector(static_cast<std::size_t>(A.numRows()), 404);
    B = referenceSpmv(A, XStar);
  }
};

double maxErr(const std::vector<double> &X, const std::vector<double> &Ref) {
  double M = 0.0;
  for (std::size_t I = 0; I < X.size(); ++I)
    M = std::max(M, std::fabs(X[I] - Ref[I]));
  return M;
}

TEST(ConjugateGradient, SolvesLaplacianWithEveryFormat) {
  SpdSystem Sys(24);
  for (FormatId F : allFormats()) {
    std::unique_ptr<SpmvKernel> K = makeKernel(F, 1);
    K->prepare(Sys.A);
    std::vector<double> X(Sys.B.size(), 0.0);
    SolveResult R = conjugateGradient(*K, Sys.B, X);
    EXPECT_TRUE(R.Converged) << formatName(F);
    EXPECT_LT(maxErr(X, Sys.XStar), 1e-6) << formatName(F);
  }
}

TEST(ConjugateGradient, WarmStartConvergesInstantly) {
  SpdSystem Sys(16);
  CvrKernel K;
  K.prepare(Sys.A);
  std::vector<double> X = Sys.XStar; // exact initial guess
  SolveResult R = conjugateGradient(K, Sys.B, X);
  EXPECT_TRUE(R.Converged);
  EXPECT_LE(R.Iterations, 2);
}

TEST(ConjugateGradient, RespectsIterationBudget) {
  SpdSystem Sys(32);
  CvrKernel K;
  K.prepare(Sys.A);
  std::vector<double> X(Sys.B.size(), 0.0);
  SolverOptions Opts;
  Opts.MaxIterations = 3;
  SolveResult R = conjugateGradient(K, Sys.B, X, Opts);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Iterations, 3);
  EXPECT_GT(R.Residual, 0.0);
}

TEST(BiCgStab, SolvesNonSymmetricSystem) {
  // Diagonally dominant but asymmetric: banded random + strong diagonal.
  CsrMatrix Base = genBanded(600, 10, 4, 77);
  CooMatrix Coo = Base.toCoo();
  for (CooEntry &E : Coo.entries())
    if (E.Row == E.Col)
      E.Val += 12.0;
  CsrMatrix A = CsrMatrix::fromCoo(Coo);

  std::vector<double> XStar =
      randomVector(static_cast<std::size_t>(A.numRows()), 5);
  std::vector<double> B = referenceSpmv(A, XStar);

  CvrKernel K;
  K.prepare(A);
  std::vector<double> X(B.size(), 0.0);
  SolveResult R = biCgStab(K, B, X);
  EXPECT_TRUE(R.Converged);
  EXPECT_LT(maxErr(X, XStar), 1e-5);
}

TEST(Jacobi, ConvergesOnDiagonallyDominantSystem) {
  CsrMatrix Base = genBanded(400, 6, 3, 9);
  CooMatrix Coo = Base.toCoo();
  for (CooEntry &E : Coo.entries())
    if (E.Row == E.Col)
      E.Val = 20.0;
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  std::vector<double> Diag(A.numRows(), 20.0);

  std::vector<double> XStar =
      randomVector(static_cast<std::size_t>(A.numRows()), 6);
  std::vector<double> B = referenceSpmv(A, XStar);

  CvrKernel K;
  K.prepare(A);
  std::vector<double> X(B.size(), 0.0);
  SolverOptions Opts;
  Opts.Tolerance = 1e-12;
  Opts.MaxIterations = 500;
  SolveResult R = jacobi(K, Diag, B, X, Opts);
  EXPECT_TRUE(R.Converged);
  EXPECT_LT(maxErr(X, XStar), 1e-8);
}

TEST(PowerIteration, FindsDominantEigenvalueOfDiagonal) {
  // Diagonal matrix: the dominant eigenpair is known exactly.
  CooMatrix Coo(50, 50);
  for (std::int32_t I = 0; I < 50; ++I)
    Coo.add(I, I, I == 17 ? 9.0 : 1.0 + 0.01 * I);
  CsrMatrix A = CsrMatrix::fromCoo(Coo);

  CvrKernel K;
  K.prepare(A);
  double Lambda = 0.0;
  std::vector<double> V(50, 0.0);
  SolveResult R = powerIteration(K, Lambda, V, {1000, 1e-12});
  EXPECT_TRUE(R.Converged);
  EXPECT_NEAR(Lambda, 9.0, 1e-6);
  EXPECT_GT(std::fabs(V[17]), 0.999); // eigenvector concentrates on 17
}

TEST(PageRank, UniformOnSymmetricRing) {
  // A directed ring: every vertex has in/out degree 1, so PageRank is
  // exactly uniform.
  std::int32_t N = 64;
  CooMatrix Coo(N, N);
  for (std::int32_t V = 0; V < N; ++V)
    Coo.add((V + 1) % N, V, 1.0); // column-stochastic transition
  CsrMatrix M = CsrMatrix::fromCoo(Coo);

  CvrKernel K;
  K.prepare(M);
  std::vector<double> Ranks(N, 0.0);
  SolveResult R = pageRank(K, Ranks, 0.85, {500, 1e-12});
  EXPECT_TRUE(R.Converged);
  for (double Rank : Ranks)
    EXPECT_NEAR(Rank, 1.0 / N, 1e-9);
}

TEST(PageRank, RanksSumToOneOnScaleFreeGraph) {
  CsrMatrix G = genRmat(10, 8, 55);
  // Column-stochastic transition from the adjacency structure.
  CooMatrix Coo(G.numCols(), G.numRows());
  for (std::int32_t U = 0; U < G.numRows(); ++U)
    for (std::int64_t I = G.rowPtr()[U]; I < G.rowPtr()[U + 1]; ++I)
      Coo.add(G.colIdx()[I], U, 1.0 / G.rowLength(U));
  CsrMatrix M = CsrMatrix::fromCoo(Coo);

  CvrKernel K;
  K.prepare(M);
  std::vector<double> Ranks(M.numRows(), 0.0);
  SolveResult R = pageRank(K, Ranks, 0.85, {500, 1e-10});
  EXPECT_TRUE(R.Converged);
  double Sum = 0.0;
  for (double Rank : Ranks) {
    EXPECT_GT(Rank, 0.0);
    Sum += Rank;
  }
  EXPECT_NEAR(Sum, 1.0, 1e-6);
}

//===----------------------------------------------------------------------===//
// Batched multi-RHS solves: lockstep SpMM sweeps must land on the same
// answers as the single-vector solvers, column by column, and bit for bit
// on the answers a plain per-column batch solve gives.
//===----------------------------------------------------------------------===//

/// A * B + C * D rounded as the batch solver rounds it. GCC at -O2 and up
/// (every CMake build type but Debug) contracts multiply-adds by default
/// on a target with a hardware FMA and fuses the first product of such a
/// sum; -O0 rounds both products. The reference states that choice instead
/// of leaving it to how the compiler shapes this loop.
double sumOfProducts(double A, double B, double C, double D) {
#if defined(__OPTIMIZE__) && defined(__FP_FAST_FMA)
  return std::fma(A, B, C * D);
#else
  return A * B + C * D;
#endif
}

/// One column's bookkeeping after a reference sweep, as the batch solvers
/// keep it: a column counts sweeps and takes its residual until it first
/// meets the tolerance.
void recordColumn(SolveResult &C, int Iter, double Delta, double Tol) {
  if (C.Converged)
    return;
  C.Iterations = Iter + 1;
  C.Residual = Delta;
  C.Converged = Delta < Tol;
}

/// jacobiBatch written plainly: \p Kernel's runBatch on a dense panel,
/// then the update one column and one row at a time, each column's step a
/// running max in row order. It multiplies by the reciprocal of the
/// diagonal, as jacobiBatch does.
BatchSolveResult referenceJacobiBatch(const SpmvKernel &Kernel,
                                      const std::vector<double> &Diag,
                                      const double *B, std::size_t LdB,
                                      double *X, std::size_t LdX, int K,
                                      const SolverOptions &Opts) {
  const std::size_t N = Diag.size(), Kc = static_cast<std::size_t>(K);
  std::vector<double> Cur(N * Kc), Next(N * Kc), Ax(N * Kc);
  for (std::size_t R = 0; R < N; ++R)
    for (std::size_t J = 0; J < Kc; ++J)
      Cur[R * Kc + J] = X[R * LdX + J];
  BatchSolveResult Res;
  Res.Columns.assign(Kc, SolveResult{});
  for (int Iter = 0; Iter < Opts.MaxIterations; ++Iter) {
    EXPECT_TRUE(Kernel.runBatch(Cur.data(), Kc, Ax.data(), Kc, K).ok());
    bool All = true;
    for (std::size_t J = 0; J < Kc; ++J) {
      double Delta = 0.0;
      for (std::size_t R = 0; R < N; ++R) {
        const double Xo = Cur[R * Kc + J];
        const double Xn =
            Xo + (B[R * LdB + J] - Ax[R * Kc + J]) * (1.0 / Diag[R]);
        Next[R * Kc + J] = Xn;
        Delta = std::max(Delta, std::fabs(Xn - Xo));
      }
      recordColumn(Res.Columns[J], Iter, Delta, Opts.Tolerance);
      All = All && Res.Columns[J].Converged;
    }
    Res.Iterations = Iter + 1;
    Cur.swap(Next);
    if (All)
      break;
  }
  for (std::size_t R = 0; R < N; ++R)
    for (std::size_t J = 0; J < Kc; ++J)
      X[R * LdX + J] = Cur[R * Kc + J];
  return Res;
}

/// pageRankBatch written plainly: \p Kernel's runBatch on a dense panel,
/// then one column at a time the damp-and-teleport scaling with its rank
/// mass summed in row order, the leak redistributed along the column's
/// personalization, and the L1 step.
BatchSolveResult referencePageRankBatch(const SpmvKernel &Kernel,
                                        double *Ranks, std::size_t LdR,
                                        const double *Personalization,
                                        std::size_t LdP, int K,
                                        double Damping,
                                        const SolverOptions &Opts) {
  const auto N = static_cast<std::size_t>(Kernel.preparedRows());
  const auto Kc = static_cast<std::size_t>(K);
  std::vector<double> P(N * Kc, 1.0 / static_cast<double>(N));
  for (std::size_t J = 0; Personalization && J < Kc; ++J) {
    double Sum = 0.0;
    for (std::size_t R = 0; R < N; ++R)
      Sum += Personalization[R * LdP + J];
    for (std::size_t R = 0; R < N; ++R)
      P[R * Kc + J] = Personalization[R * LdP + J] / Sum;
  }
  std::vector<double> Cur(P), Next(N * Kc);
  const double Beta = 1.0 - Damping;
  BatchSolveResult Res;
  Res.Columns.assign(Kc, SolveResult{});
  for (int Iter = 0; Iter < Opts.MaxIterations; ++Iter) {
    EXPECT_TRUE(Kernel.runBatch(Cur.data(), Kc, Next.data(), Kc, K).ok());
    bool All = true;
    for (std::size_t J = 0; J < Kc; ++J) {
      double Mass = 0.0;
      for (std::size_t R = 0; R < N; ++R) {
        double &V = Next[R * Kc + J];
        V = sumOfProducts(Damping, V, Beta, P[R * Kc + J]);
        Mass += V;
      }
      const double Leak = 1.0 - Mass;
      double Delta = 0.0;
      for (std::size_t R = 0; R < N; ++R) {
        double &V = Next[R * Kc + J];
        V = V + Leak * P[R * Kc + J];
        Delta += std::fabs(V - Cur[R * Kc + J]);
      }
      recordColumn(Res.Columns[J], Iter, Delta, Opts.Tolerance);
      All = All && Res.Columns[J].Converged;
    }
    Res.Iterations = Iter + 1;
    Cur.swap(Next);
    if (All)
      break;
  }
  for (std::size_t R = 0; R < N; ++R)
    for (std::size_t J = 0; J < Kc; ++J)
      Ranks[R * LdR + J] = Cur[R * Kc + J];
  return Res;
}

/// A batch solve and its reference took the same steps: sweep counts,
/// and every column's count, residual and verdict, compared with ==.
void expectSameSolve(const BatchSolveResult &Got,
                     const BatchSolveResult &Want) {
  EXPECT_EQ(Got.Iterations, Want.Iterations);
  ASSERT_EQ(Got.Columns.size(), Want.Columns.size());
  for (std::size_t J = 0; J < Got.Columns.size(); ++J) {
    EXPECT_EQ(Got.Columns[J].Iterations, Want.Columns[J].Iterations)
        << "column " << J;
    EXPECT_EQ(Got.Columns[J].Residual, Want.Columns[J].Residual)
        << "column " << J;
    EXPECT_EQ(Got.Columns[J].Converged, Want.Columns[J].Converged)
        << "column " << J;
  }
}

/// A CVR kernel on two chunks: a row gets at most two contributions, and
/// two adds onto zero give the same sum in either order, so its batch runs
/// are bit-reproducible and two solves over it compare with ==.
CvrKernel twoChunkCvrKernel() {
  CvrOptions Opts;
  Opts.NumThreads = 2;
  return CvrKernel(Opts);
}

/// A column-blocked CVR kernel: 512-byte bands of one chunk each, so every
/// row sums its bands in band order and its batch runs are
/// bit-reproducible too.
CvrKernel blockedCvrKernel() {
  CvrOptions Opts;
  Opts.NumThreads = 1;
  Opts.ColBlockBytes = 512;
  return CvrKernel(Opts);
}

TEST(JacobiBatch, MatchesPerColumnJacobiOnBothPaths) {
  CsrMatrix Base = genBanded(300, 6, 3, 13);
  CooMatrix Coo = Base.toCoo();
  for (CooEntry &E : Coo.entries())
    if (E.Row == E.Col)
      E.Val = 20.0;
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  const std::size_t N = static_cast<std::size_t>(A.numRows());
  std::vector<double> Diag(N, 20.0);

  const int NumVec = 3;
  const std::size_t Ld = NumVec + 1; // Padding column exercises strides.
  std::vector<std::vector<double>> XStar;
  std::vector<double> B(N * Ld, 0.0);
  for (int J = 0; J < NumVec; ++J) {
    XStar.push_back(randomVector(N, 100 + static_cast<std::uint64_t>(J)));
    std::vector<double> BCol = referenceSpmv(A, XStar.back());
    for (std::size_t I = 0; I < N; ++I)
      B[I * Ld + static_cast<std::size_t>(J)] = BCol[I];
  }

  SolverOptions Opts;
  Opts.Tolerance = 1e-12;
  Opts.MaxIterations = 500;
  CvrKernel Kernels[] = {twoChunkCvrKernel(), blockedCvrKernel()};
  for (CvrKernel &Kern : Kernels) {
    Kern.prepare(A);
    SCOPED_TRACE(Kern.matrix().isBlocked() ? "blocked" : "two chunks");
    std::vector<double> X(N * Ld, 0.0);
    StatusOr<BatchSolveResult> R =
        jacobiBatch(Kern, Diag, B.data(), Ld, X.data(), Ld, NumVec, Opts);
    ASSERT_TRUE(R.ok()) << R.status().toString();
    EXPECT_TRUE(R->AllConverged);
    ASSERT_EQ(R->Columns.size(), static_cast<std::size_t>(NumVec));
    for (int J = 0; J < NumVec; ++J) {
      EXPECT_TRUE(R->Columns[static_cast<std::size_t>(J)].Converged);
      double Err = 0.0;
      for (std::size_t I = 0; I < N; ++I)
        Err = std::max(
            Err, std::fabs(X[I * Ld + static_cast<std::size_t>(J)] -
                           XStar[static_cast<std::size_t>(J)][I]));
      EXPECT_LT(Err, 1e-8) << "column " << J;
    }

    std::vector<double> XRef(N * Ld, 0.0);
    BatchSolveResult RRef = referenceJacobiBatch(
        Kern, Diag, B.data(), Ld, XRef.data(), Ld, NumVec, Opts);
    expectSameSolve(*R, RRef);
    EXPECT_EQ(X, XRef);
  }
  EXPECT_TRUE(Kernels[1].matrix().isBlocked());
}

TEST(JacobiBatch, RejectsBadPanelsAndUnpreparedKernels) {
  CsrMatrix A = genBanded(32, 4, 2, 3);
  std::vector<double> Diag(32, 20.0);
  std::vector<double> B(32 * 3, 1.0), X(32 * 3, 0.0);

  CvrKernel Unprepared;
  EXPECT_EQ(jacobiBatch(Unprepared, Diag, B.data(), 3, X.data(), 3, 3)
                .status()
                .code(),
            StatusCode::FailedPrecondition);

  CvrKernel K;
  K.prepare(A);
  EXPECT_EQ(jacobiBatch(K, Diag, B.data(), 2, X.data(), 3, 3).status().code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(jacobiBatch(K, Diag, B.data(), 3, X.data(), 2, 3).status().code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(jacobiBatch(K, Diag, B.data(), 3, nullptr, 3, 3).status().code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(jacobiBatch(K, Diag, B.data(), 3, X.data(), 3, 0).status().code(),
            StatusCode::InvalidArgument);
  std::vector<double> ZeroDiag = Diag;
  ZeroDiag[5] = 0.0;
  EXPECT_EQ(
      jacobiBatch(K, ZeroDiag, B.data(), 3, X.data(), 3, 3).status().code(),
      StatusCode::InvalidArgument);
}

TEST(PageRankBatch, UniformTeleportMatchesSinglePageRank) {
  // Scale-free transition graph: each batch column with no personalization
  // is classic PageRank, so every column must match the single solver.
  CsrMatrix G = genRmat(7, 6, 99);
  CooMatrix Coo(G.numRows(), G.numRows());
  CooMatrix Edges = G.toCoo();
  std::vector<double> OutDeg(static_cast<std::size_t>(G.numRows()), 0.0);
  for (const CooEntry &E : Edges.entries())
    OutDeg[static_cast<std::size_t>(E.Row)] += 1.0;
  for (const CooEntry &E : Edges.entries())
    Coo.add(E.Col, E.Row, 1.0 / OutDeg[static_cast<std::size_t>(E.Row)]);
  CsrMatrix M = CsrMatrix::fromCoo(Coo);
  const std::size_t N = static_cast<std::size_t>(M.numRows());

  CvrKernel Kern = twoChunkCvrKernel();
  Kern.prepare(M);
  std::vector<double> Single(N, 0.0);
  SolveResult RS = pageRank(Kern, Single, 0.85, {500, 1e-12});
  ASSERT_TRUE(RS.Converged);

  const int NumVec = 2;
  std::vector<double> Ranks(N * NumVec, 0.0);
  StatusOr<BatchSolveResult> R = pageRankBatch(
      Kern, Ranks.data(), NumVec, nullptr, 0, NumVec, 0.85, {500, 1e-12});
  ASSERT_TRUE(R.ok()) << R.status().toString();
  EXPECT_TRUE(R->AllConverged);
  for (int J = 0; J < NumVec; ++J)
    for (std::size_t I = 0; I < N; ++I)
      EXPECT_NEAR(Ranks[I * NumVec + static_cast<std::size_t>(J)],
                  Single[I], 1e-8)
          << "column " << J;

  std::vector<double> RanksRef(N * NumVec, 0.0);
  BatchSolveResult RRef =
      referencePageRankBatch(Kern, RanksRef.data(), NumVec, nullptr, 0,
                             NumVec, 0.85, {500, 1e-12});
  expectSameSolve(*R, RRef);
  EXPECT_EQ(Ranks, RanksRef);
}

TEST(PageRankBatch, PersonalizedColumnsBiasTowardTheirSeeds) {
  // Directed ring: uniform PageRank is exactly 1/N, so any deviation in a
  // personalized column is attributable to its teleport vector.
  std::int32_t N = 48;
  CooMatrix Coo(N, N);
  for (std::int32_t V = 0; V < N; ++V)
    Coo.add((V + 1) % N, V, 1.0);
  CsrMatrix M = CsrMatrix::fromCoo(Coo);

  CvrKernel K = twoChunkCvrKernel();
  K.prepare(M);
  const int NumVec = 2;
  // Column 0 teleports uniformly; column 1 teleports onto vertex 7 only.
  std::vector<double> P(static_cast<std::size_t>(N) * NumVec, 0.0);
  for (std::int32_t I = 0; I < N; ++I)
    P[static_cast<std::size_t>(I) * NumVec] = 1.0;
  P[7 * NumVec + 1] = 1.0;

  std::vector<double> Ranks(static_cast<std::size_t>(N) * NumVec, 0.0);
  StatusOr<BatchSolveResult> R = pageRankBatch(
      K, Ranks.data(), NumVec, P.data(), NumVec, NumVec, 0.85, {500, 1e-12});
  ASSERT_TRUE(R.ok()) << R.status().toString();
  EXPECT_TRUE(R->AllConverged);

  double Sum0 = 0.0, Sum1 = 0.0;
  for (std::int32_t I = 0; I < N; ++I) {
    Sum0 += Ranks[static_cast<std::size_t>(I) * NumVec];
    Sum1 += Ranks[static_cast<std::size_t>(I) * NumVec + 1];
  }
  EXPECT_NEAR(Sum0, 1.0, 1e-8);
  EXPECT_NEAR(Sum1, 1.0, 1e-8);
  for (std::int32_t I = 0; I < N; ++I)
    EXPECT_NEAR(Ranks[static_cast<std::size_t>(I) * NumVec], 1.0 / N, 1e-9);
  // The personalized column concentrates mass at its seed.
  EXPECT_GT(Ranks[7 * NumVec + 1], 2.0 / N);

  std::vector<double> RanksRef(static_cast<std::size_t>(N) * NumVec, 0.0);
  BatchSolveResult RRef =
      referencePageRankBatch(K, RanksRef.data(), NumVec, P.data(), NumVec,
                             NumVec, 0.85, {500, 1e-12});
  expectSameSolve(*R, RRef);
  EXPECT_EQ(Ranks, RanksRef);
}

TEST(SolverEdgeCases, ZeroIterationBudgetLeavesGuessUntouched) {
  SpdSystem Sys(12);
  CvrKernel Kern;
  Kern.prepare(Sys.A);
  SolverOptions Opts;
  Opts.MaxIterations = 0;
  std::vector<double> X(Sys.B.size(), 0.25);
  std::vector<double> Guess = X;
  SolveResult R = conjugateGradient(Kern, Sys.B, X, Opts);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Iterations, 0);
  EXPECT_EQ(X, Guess);

  std::vector<double> Ranks(Sys.B.size(), 0.0);
  SolveResult PR = pageRank(Kern, Ranks, 0.85, Opts);
  EXPECT_FALSE(PR.Converged);
  EXPECT_EQ(PR.Iterations, 0);
}

TEST(SolverEdgeCases, ZeroRhsConvergesToZeroImmediately) {
  SpdSystem Sys(12);
  CvrKernel Kern;
  Kern.prepare(Sys.A);
  std::vector<double> B(Sys.B.size(), 0.0);
  std::vector<double> X(B.size(), 0.0);
  SolveResult R = conjugateGradient(Kern, B, X);
  EXPECT_TRUE(R.Converged);
  EXPECT_EQ(R.Iterations, 0);
  for (double V : X)
    EXPECT_EQ(V, 0.0);

  std::vector<double> Xb(B.size(), 0.0);
  SolveResult Rb = biCgStab(Kern, B, Xb);
  EXPECT_TRUE(Rb.Converged);
  EXPECT_EQ(Rb.Iterations, 0);
}

TEST(SolverEdgeCases, OneByOneSystem) {
  // A 1x1 matrix exercises the kernels' tail handling under every fused
  // finalize site at once (the single row is also a chunk boundary).
  CooMatrix Coo(1, 1);
  Coo.add(0, 0, 3.0);
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  std::vector<double> B{6.0};
  for (FormatId F : {FormatId::Mkl, FormatId::Cvr}) {
    std::unique_ptr<SpmvKernel> Kern = makeKernel(F, 1);
    Kern->prepare(A);
    std::vector<double> X{0.0};
    SolveResult R = conjugateGradient(*Kern, B, X);
    EXPECT_TRUE(R.Converged) << formatName(F);
    EXPECT_NEAR(X[0], 2.0, 1e-10) << formatName(F);

    std::vector<double> Diag{3.0};
    std::vector<double> Xj{0.0};
    SolveResult Rj = jacobi(*Kern, Diag, B, Xj);
    EXPECT_TRUE(Rj.Converged) << formatName(F);
    EXPECT_NEAR(Xj[0], 2.0, 1e-10) << formatName(F);
  }
}

TEST(SolverEdgeCases, UnattainableToleranceRunsFullBudgetWithoutNan) {
  SpdSystem Sys(24);
  CvrKernel Kern;
  Kern.prepare(Sys.A);
  SolverOptions Opts;
  Opts.Tolerance = 0.0; // Residual can never go strictly below zero.
  Opts.MaxIterations = 30;
  std::vector<double> X(Sys.B.size(), 0.0);
  SolveResult R = conjugateGradient(Kern, Sys.B, X, Opts);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Iterations, 30);
  EXPECT_TRUE(std::isfinite(R.Residual));
  for (double V : X)
    ASSERT_TRUE(std::isfinite(V));
}

TEST(SolverEdgeCases, IndefiniteMatrixNeverReportsFalseConvergence) {
  // Symmetric 0/1 adjacency with a zero diagonal — indefinite, so CG is
  // outside its contract and may diverge, but it must never *claim*
  // convergence while the true residual is large. The fused path's
  // residual recurrence cancels catastrophically on such input (it can
  // collapse to exactly zero); the stopping test must not trust it.
  std::mt19937 Rng(7121);
  const std::int32_t N = 60;
  CooMatrix Coo(N, N);
  std::uniform_int_distribution<std::int32_t> Col(0, N - 1);
  for (std::int32_t R = 0; R < N; ++R)
    for (int E = 0; E < 4; ++E) {
      std::int32_t C = Col(Rng);
      if (C != R) {
        Coo.add(R, C, 1.0);
        Coo.add(C, R, 1.0);
      }
    }
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  std::vector<double> B = referenceSpmv(A, std::vector<double>(N, 1.0));
  double BNorm = 0.0;
  for (double V : B)
    BNorm += V * V;
  BNorm = std::sqrt(BNorm);
  CvrKernel Kern;
  Kern.prepare(A);
  SolverOptions Opts;
  Opts.MaxIterations = 200;
  std::vector<double> X(static_cast<std::size_t>(N), 0.0);
  SolveResult R = conjugateGradient(Kern, B, X, Opts);
  if (R.Converged) {
    std::vector<double> Ax = referenceSpmv(A, X);
    double TrueRes = 0.0;
    for (std::size_t I = 0; I < Ax.size(); ++I)
      TrueRes += (B[I] - Ax[I]) * (B[I] - Ax[I]);
    TrueRes = std::sqrt(TrueRes) / BNorm;
    EXPECT_LE(TrueRes, 100 * Opts.Tolerance)
        << "claimed convergence with a large true residual";
  }
}

//===----------------------------------------------------------------------===//
// Allocation audit: no solver allocates inside its iteration loop.
//===----------------------------------------------------------------------===//

/// Trivial allocation-free diagonal kernel (y = 2x), so the audit measures
/// the solvers themselves and not a format's internals.
class DiagKernel final : public SpmvKernel {
public:
  std::string name() const override { return "diag2"; }
  void prepare(const CsrMatrix &A) override { N = A.numRows(); }
  std::int64_t preparedRows() const override { return N; }
  // Square: CG's x.y epilogue asserts it.
  std::int64_t preparedCols() const override { return N; }
  void run(const double *X, double *Y) const override {
    for (std::int64_t I = 0; I < N; ++I)
      Y[I] = 2.0 * X[I];
  }

private:
  std::int64_t N = 0;
};

/// Runs every solver, and the reference CG, for \p Iterations and returns
/// the number of heap allocations the solves performed (counted by the
/// global operator new replacement at the bottom of this file). The
/// solvers' epilogues run SpmvKernel's composed sweep, as on every kernel.
std::size_t allocationsForBudget(int Iterations);

TEST(SolverAllocationAudit, IterationCountDoesNotChangeAllocationCount) {
  // Discarded warm-up: the very first solve in the process registers the
  // solver telemetry metrics and this thread's counter shard — one-time
  // setup allocations the per-iteration audit below must not see.
  allocationsForBudget(1);
  // Identical totals for a short and a long run mean every allocation
  // happened in setup, none per iteration.
  EXPECT_EQ(allocationsForBudget(4), allocationsForBudget(64));
}

} // namespace
} // namespace cvr

//===----------------------------------------------------------------------===//
// Global allocation counting for the audit above. Replacing the global
// operator new/delete pair is binary-wide, so the counter only ticks while
// a solve is running (the audit reads it before and after). Every
// unaligned new and delete form is replaced, the nothrow ones included
// (std::stable_sort's temporary buffer uses nothrow new and a sized
// delete), so no allocation is freed by an allocator that did not make it.
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> GAllocCount{0};
std::atomic<std::size_t> GAllocBytes{0};
}

namespace cvr {
namespace test {
// Declared in TestUtil.h; other audits (MmapBlobTest's zero-copy check)
// read the same binary-wide counters.
std::size_t globalAllocCount() {
  return GAllocCount.load(std::memory_order_relaxed);
}
std::size_t globalAllocBytes() {
  return GAllocBytes.load(std::memory_order_relaxed);
}
} // namespace test
} // namespace cvr

void *operator new(std::size_t Sz, const std::nothrow_t &) noexcept {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  GAllocBytes.fetch_add(Sz, std::memory_order_relaxed);
  return std::malloc(Sz ? Sz : 1);
}
void *operator new[](std::size_t Sz, const std::nothrow_t &T) noexcept {
  return ::operator new(Sz, T);
}
void *operator new(std::size_t Sz) {
  if (void *P = ::operator new(Sz, std::nothrow))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Sz) { return ::operator new(Sz); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

namespace cvr {
namespace {

std::size_t allocationsForBudget(int Iterations) {
  const std::int32_t N = 64;
  CooMatrix Coo(N, N);
  for (std::int32_t I = 0; I < N; ++I)
    Coo.add(I, I, 2.0);
  CsrMatrix A = CsrMatrix::fromCoo(Coo);

  DiagKernel K;
  K.prepare(A);
  std::vector<double> B(N, 1.0), Diag(N, 2.0);
  SolverOptions Opts;
  Opts.MaxIterations = Iterations;
  Opts.Tolerance = 0.0; // Never converge: every iteration runs.

  // All iteration-state vectors are set up by the callers / solvers; only
  // the solve calls themselves are measured.
  std::vector<double> Xcg(N, 0.0), Xref(N, 0.0), Xbi(N, 0.0), Xja(N, 0.0);
  std::vector<double> Eig(N, 0.0), Ranks(N, 0.0);
  double Lambda = 0.0;

  std::size_t Before = GAllocCount.load(std::memory_order_relaxed);
  conjugateGradient(K, B, Xcg, Opts);
  referenceConjugateGradient(K, B, Xref, Opts);
  biCgStab(K, B, Xbi, Opts);
  jacobi(K, Diag, B, Xja, Opts);
  powerIteration(K, Lambda, Eig, Opts);
  pageRank(K, Ranks, 0.85, Opts);
  return GAllocCount.load(std::memory_order_relaxed) - Before;
}

} // namespace
} // namespace cvr
