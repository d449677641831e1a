//===- tests/CvrKernelEquivalenceTest.cpp - CVR kernel vs references -----===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Property tests pinning the CVR kernel to the scalar references across
// randomized sparsity structures: the product must match scalar CSR up to
// floating-point reassociation.
//
//===----------------------------------------------------------------------===//

#include "core/Cvr.h"

#include "TestUtil.h"
#include "matrix/Coo.h"
#include "matrix/Reference.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>

namespace cvr {
namespace {

using test::randomVector;
using test::SpmvTolerance;

/// Random matrix whose shape/density are themselves randomized (more
/// structural variety than a fixed-density grid).
CsrMatrix fuzzMatrix(std::uint64_t Seed) {
  Xoshiro256 Rng(Seed);
  auto Rows = static_cast<std::int32_t>(1 + Rng.nextBounded(400));
  auto Cols = static_cast<std::int32_t>(1 + Rng.nextBounded(400));
  double Density = Rng.nextDouble() * 0.2;
  CooMatrix Coo(Rows, Cols);
  for (std::int32_t R = 0; R < Rows; ++R) {
    // Mix in occasional hub rows and empty rows.
    double RowDensity = Density;
    std::uint64_t Kind = Rng.nextBounded(10);
    if (Kind == 0)
      RowDensity = 0.0;
    else if (Kind == 1)
      RowDensity = 0.8;
    for (std::int32_t C = 0; C < Cols; ++C)
      if (Rng.nextDouble() < RowDensity)
        Coo.add(R, C, Rng.nextDouble(-2.0, 2.0));
  }
  return CsrMatrix::fromCoo(Coo);
}

class CvrFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CvrFuzz, AvxGenericAndReferenceAgree) {
  std::uint64_t Seed = 9000 + GetParam();
  CsrMatrix A = fuzzMatrix(Seed);
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), Seed ^ 0xF00D);
  std::vector<double> Expected = referenceSpmv(A, X);

  Xoshiro256 Rng(Seed ^ 0xBEEF);
  int Threads = static_cast<int>(1 + Rng.nextBounded(6));

  CvrOptions Opts;
  Opts.NumThreads = Threads;
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);

  std::vector<double> YV(static_cast<std::size_t>(A.numRows()), 1.0);
  cvrSpmv(M, X.data(), YV.data());
  EXPECT_LE(maxRelDiff(Expected, YV), SpmvTolerance) << "kernel";
}

TEST_P(CvrFuzz, RepeatedRunsAreIdempotent) {
  std::uint64_t Seed = 9100 + GetParam();
  CsrMatrix A = fuzzMatrix(Seed);
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), Seed);
  CvrOptions Opts;
  Opts.NumThreads = 1; // Atomic-add ordering is the only nondeterminism.
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  std::vector<double> Y1(static_cast<std::size_t>(A.numRows()), -1.0);
  std::vector<double> Y2(static_cast<std::size_t>(A.numRows()), 7.0);
  cvrSpmv(M, X.data(), Y1.data());
  cvrSpmv(M, X.data(), Y2.data());
  EXPECT_EQ(maxAbsDiff(Y1, Y2), 0.0)
      << "run() must not depend on the previous contents of y";
}

TEST_P(CvrFuzz, ExecutionEngineVariantsAgree) {
  // Sweep the execution-engine variant matrix — prefetch distances x
  // blocked/unblocked x chunk multipliers — against the scalar reference.
  // Every variant consumes a different stream layout (blocking) or issue
  // schedule (prefetch, over-decomposition) but must compute the same y.
  std::uint64_t Seed = 9200 + GetParam();
  CsrMatrix A = fuzzMatrix(Seed);
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), Seed ^ 0xABCD);
  std::vector<double> Expected = referenceSpmv(A, X);

  Xoshiro256 Rng(Seed ^ 0x5EED);
  int Threads = static_cast<int>(1 + Rng.nextBounded(4));

  test::ScopedOmpThreads Team(Threads);

  for (std::int64_t BlockBytes : {std::int64_t(0), std::int64_t(512)}) {
    for (int Mult : {1, 2, 4}) {
      CvrOptions Opts;
      Opts.NumThreads = Threads * Mult; // Mult chunks per thread.
      Opts.ColBlockBytes = BlockBytes;  // 512 B = 64 columns per band.
      CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
      ASSERT_TRUE(test::structureClean(M));
      if (BlockBytes > 0 && A.numCols() > 64) {
        EXPECT_TRUE(M.isBlocked());
        EXPECT_TRUE(M.zeroRows().empty());
      }

      for (int PfDist : {0, 2, 4, 8}) {
        std::vector<double> Y(static_cast<std::size_t>(A.numRows()), -3.5);
        cvrSpmv(M, X.data(), Y.data(), PfDist);
        EXPECT_LE(maxRelDiff(Expected, Y), SpmvTolerance)
            << "block=" << BlockBytes << " mult=" << Mult
            << " pf=" << PfDist;
      }
    }
  }
}

TEST_P(CvrFuzz, MaskedWriteBackEdgeShapesMatchGeneric) {
  // Each seed takes one of the write-back edge shapes in TestUtil.h and a
  // chunk count (at least two for the shared-row shape). The kernel must
  // match the references under every write-back policy and prefetch
  // distance.
  std::uint64_t Seed = 9300 + GetParam();
  Xoshiro256 Rng(Seed);
  const int Shape = GetParam() % 4;
  int Threads = static_cast<int>(1 + Rng.nextBounded(4));
  if (Shape == 3)
    Threads = std::max(Threads, 2);
  CvrOptions Opts;
  Opts.NumThreads = Threads;
  test::expectWriteBackMatchesReference(
      test::writeBackEdgeMatrix(Shape, Threads, Seed), Opts, SpmvTolerance,
      "shape " + std::to_string(Shape) + " seed " + std::to_string(Seed) +
          " threads " + std::to_string(Threads));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CvrFuzz, ::testing::Range(0, 24));

TEST(CvrThreads, CallerSetsTheThreadCount) {
  // The kernel runs min(omp_get_max_threads(), chunks) threads, whatever
  // the conversion's chunk count: a 16-chunk matrix runs on one thread,
  // or on three with the chunks dynamically scheduled, and matches the
  // reference either way, unblocked and blocked.
  CsrMatrix A = test::randomCsr(300, 300, 0.03, 16);
  std::vector<double> X = randomVector(300, 5);
  std::vector<double> Ref = referenceSpmv(A, X);
  for (std::int64_t Block : {std::int64_t(0), std::int64_t(512)}) {
    CvrOptions Opts;
    Opts.NumThreads = 16;
    Opts.ColBlockBytes = Block;
    CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
    ASSERT_EQ(M.numChunks(), 16 * std::max<int>(1, M.bands().size()));
    for (int Threads : {1, 3}) {
      test::ScopedOmpThreads Team(Threads);
      std::vector<double> Y(300, -1.0);
      cvrSpmv(M, X.data(), Y.data());
      EXPECT_LE(maxRelDiff(Ref, Y), SpmvTolerance)
          << "block " << Block << " threads " << Threads;
    }
  }
}

TEST(CvrLinearity, SpmvIsLinearInX) {
  // A * (a*x1 + x2) == a*(A*x1) + (A*x2) up to rounding — catches dropped
  // or double-counted elements that a single comparison might miss.
  CsrMatrix A = fuzzMatrix(424242);
  std::size_t N = static_cast<std::size_t>(A.numCols());
  std::vector<double> X1 = randomVector(N, 1);
  std::vector<double> X2 = randomVector(N, 2);
  std::vector<double> Combined(N);
  constexpr double Alpha = 1.75;
  for (std::size_t I = 0; I < N; ++I)
    Combined[I] = Alpha * X1[I] + X2[I];

  CvrMatrix M = CvrMatrix::fromCsr(A);
  std::size_t Rows = static_cast<std::size_t>(A.numRows());
  std::vector<double> Y1(Rows), Y2(Rows), YC(Rows);
  cvrSpmv(M, X1.data(), Y1.data());
  cvrSpmv(M, X2.data(), Y2.data());
  cvrSpmv(M, Combined.data(), YC.data());
  double Max = 0.0;
  for (std::size_t I = 0; I < Rows; ++I)
    Max = std::max(Max, std::fabs(YC[I] - (Alpha * Y1[I] + Y2[I])));
  EXPECT_LE(Max, 1e-9);
}

} // namespace
} // namespace cvr
