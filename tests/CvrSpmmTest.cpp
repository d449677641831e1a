//===- tests/CvrSpmmTest.cpp - Register-blocked SpMM tests ----------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The batched kernel stores panels row-major: element (i, j) of X lives at
// X[i * LdX + j], so each matrix nonzero loads a contiguous block of
// right-hand sides. Every test checks the panel column-by-column against
// the single-vector kernel (or the scalar reference).
//
//===----------------------------------------------------------------------===//

#include "core/Cvr.h"

#include "TestUtil.h"
#include "gen/Generators.h"
#include "matrix/Reference.h"
#include "obs/Telemetry.h"

#include <gtest/gtest.h>

#include <cmath>

namespace cvr {
namespace {

using test::randomVector;
using test::SpmvTolerance;

/// Fills a row-major NumRows x K panel (leading dimension Ld) with
/// deterministic per-column random vectors and returns it.
std::vector<double> randomPanel(std::size_t NumRows, int K, std::size_t Ld,
                                std::uint64_t Seed) {
  std::vector<double> P(NumRows * Ld, -4.0);
  for (int J = 0; J < K; ++J) {
    std::vector<double> Col = randomVector(NumRows, Seed + J);
    for (std::size_t I = 0; I < NumRows; ++I)
      P[I * Ld + J] = Col[I];
  }
  return P;
}

/// Extracts column J of a row-major panel into a contiguous vector.
std::vector<double> panelColumn(const std::vector<double> &P, std::size_t Ld,
                                int J, std::size_t NumRows) {
  std::vector<double> Col(NumRows);
  for (std::size_t I = 0; I < NumRows; ++I)
    Col[I] = P[I * Ld + J];
  return Col;
}

/// Runs cvrSpmm and checks every column against single-vector cvrSpmv.
void expectSpmmMatchesSpmv(const CsrMatrix &A, int NumVectors, int Threads,
                           std::size_t ExtraLd, CvrOptions Opts = {}) {
  Opts.NumThreads = Threads;
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);

  std::size_t Rows = static_cast<std::size_t>(A.numRows());
  std::size_t Cols = static_cast<std::size_t>(A.numCols());
  std::size_t LdX = static_cast<std::size_t>(NumVectors) + ExtraLd;
  std::size_t LdY = LdX + 3;
  std::vector<double> X = randomPanel(Cols, NumVectors, LdX, 100);
  std::vector<double> Y(Rows * LdY, -4.0);

  ASSERT_TRUE(cvrSpmm(M, X.data(), LdX, Y.data(), LdY, NumVectors).ok());

  for (int J = 0; J < NumVectors; ++J) {
    std::vector<double> Xc = panelColumn(X, LdX, J, Cols);
    std::vector<double> Expected(Rows);
    cvrSpmv(M, Xc.data(), Expected.data());
    std::vector<double> Got = panelColumn(Y, LdY, J, Rows);
    EXPECT_LE(maxRelDiff(Expected, Got), SpmvTolerance)
        << "column " << J << " of " << NumVectors;
  }
}

TEST(CvrSpmm, SingleColumnDegeneratesToSpmv) {
  expectSpmmMatchesSpmv(genRmat(9, 8, 81), 1, 1, 0);
}

TEST(CvrSpmm, FullBlockOfFour) {
  expectSpmmMatchesSpmv(genRmat(9, 8, 82), 4, 1, 0);
}

TEST(CvrSpmm, FullBlockOfEight) {
  expectSpmmMatchesSpmv(genRmat(9, 8, 82), 8, 1, 0);
}

TEST(CvrSpmm, MaskedTailsOfEveryWidth) {
  // Widths 1..7 each take one pass: width 4 the half-width panel, every
  // other width the masked tail.
  CsrMatrix A = genPowerLaw(300, 300, 5.0, 1.1, 83);
  for (int K = 1; K <= 7; ++K)
    expectSpmmMatchesSpmv(A, K, 1, 0);
}

TEST(CvrSpmm, WideBatchMixesBlockAndTail) {
  // 13 = one block of 8 plus a masked tail of 5; the matrix streams twice.
  expectSpmmMatchesSpmv(genPowerLaw(400, 400, 5.0, 1.1, 83), 13, 1, 0);
}

TEST(CvrSpmm, PaddedLeadingDimensions) {
  expectSpmmMatchesSpmv(genStencil9(18, 18), 5, 1, 13);
}

TEST(CvrSpmm, MultiThreadSharedRows) {
  expectSpmmMatchesSpmv(genShortFat(5, 900, 300, 84), 6, 4, 0);
}

TEST(CvrSpmm, PrefetchDistanceVariants) {
  // A kernel's SpMV prefetch distance does not reach its panel kernel:
  // runBatch matches per-column SpMV at every distance and gives the
  // distance-0 panel bit for bit (one thread, so no atomic order varies).
  CsrMatrix A = genPowerLaw(300, 300, 6.0, 1.2, 88);
  const int K = 6;
  const auto Rows = static_cast<std::size_t>(A.numRows());
  const auto Cols = static_cast<std::size_t>(A.numCols());
  const std::vector<double> X = randomPanel(Cols, K, K, 100);
  auto RunBatch = [&](int Pf) {
    CvrOptions Opts;
    Opts.NumThreads = 1;
    Opts.PrefetchDistance = Pf;
    CvrKernel Kern(Opts);
    Kern.prepare(A);
    std::vector<double> Y(Rows * K, -4.0);
    EXPECT_TRUE(Kern.runBatch(X.data(), K, Y.data(), K, K).ok());
    for (int J = 0; J < K; ++J) {
      std::vector<double> Xc = panelColumn(X, K, J, Cols);
      std::vector<double> Expected(Rows);
      Kern.run(Xc.data(), Expected.data());
      EXPECT_LE(maxRelDiff(Expected, panelColumn(Y, K, J, Rows)),
                SpmvTolerance)
          << "pf " << Pf << " column " << J;
    }
    return Y;
  };
  const std::vector<double> Plain = RunBatch(0);
  for (int Pf : {2, 4, 8})
    EXPECT_EQ(RunBatch(Pf), Plain) << "pf " << Pf;
}

TEST(CvrSpmm, BlockedMatrixAccumulatesBands) {
  CvrOptions Opts;
  Opts.ColBlockBytes = 512; // 64-column bands force the accumulate path.
  expectSpmmMatchesSpmv(genPowerLaw(500, 500, 6.0, 1.2, 89), 6, 2, 0, Opts);
}

/// Value of telemetry counter \p Name (0 when it has not been bumped).
std::int64_t counterValue(const std::string &Name) {
  for (const obs::MetricSnapshot &MS : obs::snapshotTelemetry())
    if (MS.Name == Name)
      return MS.Value;
  return 0;
}

TEST(CvrSpmm, EveryStreamKindRunsThePanelKernel) {
  // Half-integer values are exact in fp32, so every kind must match the
  // fp64 reference to round-off; the column bands of the blocked build
  // give the narrow indices nonzero bases.
  CsrMatrix A = genPowerLaw(600, 600, 6.0, 1.2, 85);
  for (std::int64_t I = 0; I < A.numNonZeros(); ++I)
    A.vals()[I] = static_cast<double>(I % 9) - 4.5;
  const auto Rows = static_cast<std::size_t>(A.numRows());
  const auto Cols = static_cast<std::size_t>(A.numCols());
  for (std::int64_t Block : {0, 1024})
    for (ValueKind VK : {ValueKind::F64, ValueKind::F32x64})
      for (ColIndexKind IK : {ColIndexKind::U32, ColIndexKind::U16Band}) {
        CvrOptions Opts;
        Opts.NumThreads = 2;
        Opts.ColBlockBytes = Block;
        Opts.Values = VK;
        Opts.Indices = IK;
        CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
        ASSERT_EQ(M.valueKind(), VK);
        ASSERT_EQ(M.colIndexKind(), IK);
        for (int K : {8, 5, 12}) {
          SCOPED_TRACE(std::string(valueKindName(VK)) + "/" +
                       colIndexKindName(IK) + " block " +
                       std::to_string(Block) + " K " + std::to_string(K));
          std::vector<double> X = randomPanel(Cols, K, K, 700);
          std::vector<double> Y(Rows * K, -4.0);
          const std::int64_t Passes0 = counterValue("spmv.cvr.spmm_passes");
          ASSERT_TRUE(cvrSpmm(M, X.data(), K, Y.data(), K, K).ok());
          // One pass per <= 8 columns: the matrix streams once per pass,
          // not once per column.
          if (obs::telemetryEnabled()) {
            EXPECT_EQ(counterValue("spmv.cvr.spmm_passes") - Passes0,
                      (K + 7) / 8);
          }
          for (int J = 0; J < K; ++J)
            EXPECT_LE(maxRelDiff(referenceSpmv(A, panelColumn(X, K, J, Cols)),
                                 panelColumn(Y, K, J, Rows)),
                      SpmvTolerance)
                << "column " << J;
        }
      }
}

TEST(CvrSpmm, MatchesScalarReferencePerColumn) {
  CsrMatrix A = genCircuit(300, 4.0, 5, 86);
  CvrMatrix M = CvrMatrix::fromCsr(A);
  std::size_t Cols = static_cast<std::size_t>(A.numCols());
  std::size_t Rows = static_cast<std::size_t>(A.numRows());
  const int K = 4;
  std::vector<double> X = randomPanel(Cols, K, K, 300);
  std::vector<double> Y(Rows * K);
  ASSERT_TRUE(cvrSpmm(M, X.data(), K, Y.data(), K, K).ok());
  for (int J = 0; J < K; ++J) {
    std::vector<double> Xc = panelColumn(X, K, J, Cols);
    std::vector<double> Expected = referenceSpmv(A, Xc);
    std::vector<double> Got = panelColumn(Y, K, J, Rows);
    EXPECT_LE(maxRelDiff(Expected, Got), SpmvTolerance);
  }
}

TEST(CvrSpmm, RejectsBadPanelArguments) {
  CsrMatrix A = genRmat(7, 6, 90);
  CvrMatrix M = CvrMatrix::fromCsr(A);
  std::vector<double> X(static_cast<std::size_t>(A.numCols()) * 4);
  std::vector<double> Y(static_cast<std::size_t>(A.numRows()) * 4);

  // Checked in every build mode: a stride smaller than the panel width
  // would silently interleave columns.
  EXPECT_EQ(cvrSpmm(M, X.data(), 3, Y.data(), 4, 4).code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(cvrSpmm(M, X.data(), 4, Y.data(), 3, 4).code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(cvrSpmm(M, X.data(), 4, Y.data(), 4, 0).code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(cvrSpmm(M, nullptr, 4, Y.data(), 4, 4).code(),
            StatusCode::InvalidArgument);
  EXPECT_EQ(cvrSpmm(M, X.data(), 4, nullptr, 4, 4).code(),
            StatusCode::InvalidArgument);
}

//===----------------------------------------------------------------------===//
// Kernel-interface batch surface
//===----------------------------------------------------------------------===//

TEST(CvrSpmm, KernelRunBatchMatchesFreeFunction) {
  CsrMatrix A = genPowerLaw(300, 300, 5.0, 1.2, 98);
  CvrKernel K;
  K.prepare(A);
  EXPECT_EQ(K.preparedCols(), A.numCols());
  const int NumVec = 6;
  std::size_t Cols = static_cast<std::size_t>(A.numCols());
  std::size_t Rows = static_cast<std::size_t>(A.numRows());
  std::vector<double> X = randomPanel(Cols, NumVec, NumVec, 1300);
  std::vector<double> Y(Rows * NumVec);
  ASSERT_TRUE(K.runBatch(X.data(), NumVec, Y.data(), NumVec, NumVec).ok());
  for (int J = 0; J < NumVec; ++J) {
    std::vector<double> Xc = panelColumn(X, NumVec, J, Cols);
    std::vector<double> Expected(Rows);
    K.run(Xc.data(), Expected.data());
    std::vector<double> Got = panelColumn(Y, NumVec, J, Rows);
    EXPECT_LE(maxRelDiff(Expected, Got), SpmvTolerance);
  }
}

} // namespace
} // namespace cvr
