//===- tests/CvrFormatTest.cpp - CVR conversion & SpMV tests --------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Cvr.h"

#include "TestUtil.h"
#include "gen/Generators.h"
#include "matrix/Coo.h"
#include "matrix/Reference.h"

#include <gtest/gtest.h>

namespace cvr {
namespace {

using test::randomCsr;
using test::randomVector;
using test::SpmvTolerance;

/// Converts, runs, and compares against the scalar reference.
void expectCvrMatchesReference(const CsrMatrix &A, const CvrOptions &Opts,
                               const char *What) {
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  EXPECT_TRUE(M.isValid()) << What;
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), 42);
  std::vector<double> Expected = referenceSpmv(A, X);
  std::vector<double> Y(static_cast<std::size_t>(A.numRows()), -7.5);
  cvrSpmv(M, X.data(), Y.data());
  EXPECT_LE(maxRelDiff(Expected, Y), SpmvTolerance) << What;
}

TEST(CvrFormat, EmptyMatrix) {
  CsrMatrix A = CsrMatrix::emptyOfShape(0, 0);
  CvrMatrix M = CvrMatrix::fromCsr(A);
  EXPECT_EQ(M.numNonZeros(), 0);
  EXPECT_TRUE(M.isValid());
}

TEST(CvrFormat, AllRowsEmpty) {
  CsrMatrix A = CsrMatrix::emptyOfShape(17, 9);
  CvrMatrix M = CvrMatrix::fromCsr(A);
  std::vector<double> X(9, 1.0), Y(17, 99.0);
  cvrSpmv(M, X.data(), Y.data());
  for (double V : Y)
    EXPECT_EQ(V, 0.0); // Empty rows must be zeroed, not left stale.
}

TEST(CvrFormat, SingleElement) {
  CooMatrix Coo(1, 1);
  Coo.add(0, 0, 3.0);
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  expectCvrMatchesReference(A, {}, "1x1");
}

TEST(CvrFormat, SingleDenseRow) {
  // One row much longer than the lane count: exercises stealing when the
  // conversion has fewer rows than lanes.
  CooMatrix Coo(1, 100);
  for (std::int32_t C = 0; C < 100; ++C)
    Coo.add(0, C, 1.0 + C);
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  expectCvrMatchesReference(A, {}, "single dense row");
}

TEST(CvrFormat, SingleColumn) {
  CooMatrix Coo(64, 1);
  for (std::int32_t R = 0; R < 64; R += 2)
    Coo.add(R, 0, 0.5 * R);
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  expectCvrMatchesReference(A, {}, "single column with empty rows");
}

TEST(CvrFormat, FewerRowsThanLanes) {
  CsrMatrix A = randomCsr(3, 40, 0.4, 7);
  expectCvrMatchesReference(A, {}, "3 rows, 8 lanes");
}

TEST(CvrFormat, EmptyRowsInterleaved) {
  CooMatrix Coo(20, 20);
  for (std::int32_t R = 0; R < 20; R += 3)
    for (std::int32_t C = 0; C < 20; C += 2)
      Coo.add(R, C, R + 0.25 * C);
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  expectCvrMatchesReference(A, {}, "interleaved empty rows");
}

TEST(CvrFormat, LeadingAndTrailingEmptyRows) {
  CooMatrix Coo(30, 8);
  for (std::int32_t R = 10; R < 20; ++R)
    Coo.add(R, R % 8, 1.0);
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  expectCvrMatchesReference(A, {}, "empty border rows");
}

TEST(CvrFormat, StealingDisabled) {
  CvrOptions Opts;
  Opts.EnableStealing = false;
  CsrMatrix A = genPowerLaw(300, 300, 6.0, 1.2, 99);
  expectCvrMatchesReference(A, Opts, "no stealing");
}

TEST(CvrFormat, StealingDisabledSingleHugeRow) {
  CvrOptions Opts;
  Opts.EnableStealing = false;
  CooMatrix Coo(2, 500);
  for (std::int32_t C = 0; C < 500; ++C)
    Coo.add(0, C, 1.0);
  Coo.add(1, 3, 2.0);
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  expectCvrMatchesReference(A, Opts, "no stealing, huge row");
}

TEST(CvrFormat, RecordsSortedAndTailsConsistent) {
  CsrMatrix A = genRmat(10, 8, 5);
  CvrOptions Opts;
  Opts.NumThreads = 4;
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  ASSERT_TRUE(M.isValid());
  EXPECT_EQ(M.numChunks(), 4);
  for (const CvrChunk &C : M.chunks()) {
    std::int64_t Prev = -1;
    for (std::int64_t R = C.RecBase; R < C.RecEnd; ++R) {
      EXPECT_GE(M.recs()[R].Pos, Prev);
      Prev = M.recs()[R].Pos;
    }
  }
}

TEST(CvrFormat, EveryNonZeroEmittedOnce) {
  // Use strictly positive values so pads (0.0) are distinguishable; sum of
  // the emitted stream must equal the matrix's total.
  CooMatrix Coo(50, 50);
  Xoshiro256 Rng(5);
  for (std::int32_t R = 0; R < 50; ++R)
    for (std::int32_t C = 0; C < 50; ++C)
      if (Rng.nextDouble() < 0.15)
        Coo.add(R, C, 1.0 + Rng.nextDouble());
  CsrMatrix A = CsrMatrix::fromCoo(Coo);

  CvrOptions Opts;
  Opts.NumThreads = 3;
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);

  double CsrSum = 0.0;
  for (std::int64_t I = 0; I < A.numNonZeros(); ++I)
    CsrSum += A.vals()[I];
  double CvrSum = 0.0;
  std::int64_t NonPad = 0;
  for (const CvrChunk &C : M.chunks())
    for (std::int64_t I = C.ElemBase, E = C.ElemBase + C.NumSteps * M.lanes();
         I < E; ++I) {
      CvrSum += M.vals()[I];
      if (M.vals()[I] != 0.0)
        ++NonPad;
    }
  EXPECT_NEAR(CsrSum, CvrSum, 1e-9);
  EXPECT_EQ(NonPad, A.numNonZeros());
}

TEST(CvrFormat, MultiThreadSharedRows) {
  // Many chunks over few rows: nearly every chunk boundary splits a row.
  CooMatrix Coo(4, 600);
  for (std::int32_t R = 0; R < 4; ++R)
    for (std::int32_t C = 0; C < 600; ++C)
      Coo.add(R, C, 0.01 * (R + 1) + 0.001 * C);
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  for (int Threads : {2, 3, 5, 8}) {
    CvrOptions Opts;
    Opts.NumThreads = Threads;
    expectCvrMatchesReference(A, Opts, "shared rows");
  }
}

TEST(CvrFormat, MoreThreadsThanNonZeros) {
  CooMatrix Coo(5, 5);
  Coo.add(1, 2, 4.0);
  Coo.add(3, 0, -2.0);
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  CvrOptions Opts;
  Opts.NumThreads = 16;
  expectCvrMatchesReference(A, Opts, "16 threads, 2 nnz");
}

TEST(CvrFormat, SortedFeedingStillCorrect) {
  CsrMatrix A = genPowerLaw(800, 800, 5.0, 1.4, 101);
  for (int Threads : {1, 3}) {
    CvrOptions Opts;
    Opts.SortFeedRows = true;
    Opts.NumThreads = Threads;
    expectCvrMatchesReference(A, Opts, "sorted feeding");
  }
}

TEST(CvrFormat, SortedFeedingReducesPadding) {
  // With longest-first feeding the stream ends balanced, so the total
  // emitted steps can only shrink (or stay equal).
  CsrMatrix A = genPowerLaw(1000, 1000, 6.0, 1.5, 102);
  CvrOptions Plain;
  CvrOptions Sorted;
  Sorted.SortFeedRows = true;
  CvrMatrix MP = CvrMatrix::fromCsr(A, Plain);
  CvrMatrix MS = CvrMatrix::fromCsr(A, Sorted);
  EXPECT_LE(MS.chunks()[0].NumSteps, MP.chunks()[0].NumSteps + 2);
}

struct CvrMatrixCase {
  const char *Name;
  std::function<CsrMatrix()> Build;
};

class CvrSpmvCorrectness : public ::testing::TestWithParam<CvrMatrixCase> {};

TEST_P(CvrSpmvCorrectness, MatchesReferenceAcrossThreadCounts) {
  CsrMatrix A = GetParam().Build();
  for (int Threads : {1, 2, 4, 7}) {
    CvrOptions Opts;
    Opts.NumThreads = Threads;
    expectCvrMatchesReference(A, Opts, GetParam().Name);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Structures, CvrSpmvCorrectness,
    ::testing::Values(
        CvrMatrixCase{"rmat", [] { return genRmat(10, 8, 1); }},
        CvrMatrixCase{"powerlaw",
                      [] { return genPowerLaw(700, 700, 5.0, 1.1, 2); }},
        CvrMatrixCase{"road", [] { return genRoadLattice(25, 1.5, 3); }},
        CvrMatrixCase{"shortfat", [] { return genShortFat(9, 2000, 300, 4); }},
        CvrMatrixCase{"dense", [] { return genDense(60, 60, 5); }},
        CvrMatrixCase{"stencil5", [] { return genStencil5(24, 24); }},
        CvrMatrixCase{"stencil27", [] { return genStencil27(8, 8, 8); }},
        CvrMatrixCase{"banded", [] { return genBanded(400, 30, 9, 6); }},
        CvrMatrixCase{"circuit", [] { return genCircuit(500, 4.0, 6, 7); }},
        CvrMatrixCase{"blocks", [] { return genDenseBlocks(4, 40, 0.8, 8); }},
        CvrMatrixCase{"tallthin", [] { return genTallThin(900, 40, 3, 9); }},
        CvrMatrixCase{"uniform",
                      [] { return genUniformRandom(600, 450, 3.5, 10); }}),
    [](const ::testing::TestParamInfo<CvrMatrixCase> &Info) {
      return Info.param.Name;
    });

} // namespace
} // namespace cvr
