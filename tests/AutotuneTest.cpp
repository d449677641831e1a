//===- tests/AutotuneTest.cpp - Execution-engine autotuner ----------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The autotuner's contract, independent of which plan wins on this machine:
// it stays inside its iteration budget, its plan cache keys matrices by
// structure, and whatever plan it picks computes the right answer.
//
//===----------------------------------------------------------------------===//

#include "engine/TunedKernel.h"

#include "TestUtil.h"
#include "matrix/Reference.h"

#include <gtest/gtest.h>

namespace cvr {
namespace {

using test::randomCsr;
using test::randomVector;
using test::SpmvTolerance;

TEST(Autotune, StaysInsideIterationBudget) {
  CsrMatrix A = randomCsr(300, 300, 0.05, 7);
  AutotuneOptions Opts;
  Opts.NumThreads = 2;
  Opts.UseCache = false;
  AutotuneResult R = autotuneCvr(A, Opts);
  EXPECT_LE(R.IterationsUsed, Opts.MaxIterations);
  EXPECT_GT(R.IterationsUsed, 0);
  EXPECT_GT(R.BestSeconds, 0.0);
  EXPECT_GT(R.BaselineSeconds, 0.0);
  // The winner can never be slower than the default plan: the default is
  // itself a candidate, and the pick is the measured minimum.
  EXPECT_LE(R.BestSeconds, R.BaselineSeconds * 1.0001);
}

TEST(Autotune, RespectsTightBudget) {
  CsrMatrix A = randomCsr(200, 200, 0.05, 9);
  AutotuneOptions Opts;
  Opts.NumThreads = 1;
  Opts.UseCache = false;
  Opts.MaxIterations = 5;
  AutotuneResult R = autotuneCvr(A, Opts);
  EXPECT_LE(R.IterationsUsed, 5);
}

TEST(Autotune, PlanCacheHitsOnSecondCall) {
  clearPlanCache();
  CsrMatrix A = randomCsr(150, 150, 0.08, 21);
  AutotuneOptions Opts;
  Opts.NumThreads = 2;
  AutotuneResult First = autotuneCvr(A, Opts);
  EXPECT_FALSE(First.FromCache);
  AutotuneResult Second = autotuneCvr(A, Opts);
  EXPECT_TRUE(Second.FromCache);
  EXPECT_TRUE(Second.Plan == First.Plan);
  EXPECT_EQ(Second.IterationsUsed, 0);
  clearPlanCache();
  AutotuneResult Third = autotuneCvr(A, Opts);
  EXPECT_FALSE(Third.FromCache);
}

TEST(TunedCvrKernel, RunBatchServesUnderTheSpmvPlan) {
  CsrMatrix A = randomCsr(220, 220, 0.05, 41);
  const int NumVec = 8;
  const std::size_t Ld = NumVec;
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()) * Ld, 0xBEEF);
  std::vector<double> Y(static_cast<std::size_t>(A.numRows()) * Ld, -2.0);

  AutotuneOptions Opts;
  Opts.NumThreads = 2;
  Opts.UseCache = false;
  TunedCvrKernel K(Opts);
  K.prepare(A);
  ASSERT_TRUE(K.runBatch(X.data(), Ld, Y.data(), Ld, NumVec).ok());

  std::vector<double> Xc(static_cast<std::size_t>(A.numCols()));
  std::vector<double> Yc(static_cast<std::size_t>(A.numRows()));
  for (int J = 0; J < NumVec; ++J) {
    for (std::size_t I = 0; I < Xc.size(); ++I)
      Xc[I] = X[I * Ld + static_cast<std::size_t>(J)];
    std::vector<double> Ref = referenceSpmv(A, Xc);
    for (std::size_t I = 0; I < Yc.size(); ++I)
      Yc[I] = Y[I * Ld + static_cast<std::size_t>(J)];
    EXPECT_LE(maxRelDiff(Ref, Yc), SpmvTolerance)
        << "column " << J << " plan " << K.plan().describe();
  }
}

TEST(Autotune, FingerprintSeparatesStructures) {
  CsrMatrix A = randomCsr(100, 100, 0.1, 1);
  CsrMatrix B = randomCsr(100, 100, 0.1, 2);
  EXPECT_EQ(matrixFingerprint(A, 4), matrixFingerprint(A, 4));
  EXPECT_NE(matrixFingerprint(A, 4), matrixFingerprint(A, 8));
  EXPECT_NE(matrixFingerprint(A, 4), matrixFingerprint(B, 4));
}

TEST(Autotune, EmptyMatrixGetsDefaultPlan) {
  CsrMatrix A = randomCsr(5, 5, 0.0, 1); // Well-formed, zero nonzeros.
  AutotuneResult R = autotuneCvr(A, {});
  EXPECT_TRUE(R.Plan == CvrPlan());
  EXPECT_EQ(R.IterationsUsed, 0);
}

TEST(Autotune, DescribeAndL2Detection) {
  EXPECT_GT(detectL2Bytes(), 0);
  CvrPlan P;
  EXPECT_EQ(P.describe(), "pf=0 block=off mult=1");
  P.PrefetchDistance = 4;
  P.ColBlockBytes = 512 * 1024;
  P.ChunkMultiplier = 2;
  EXPECT_EQ(P.describe(), "pf=4 block=512KiB mult=2");
  P.Indices = ColIndexKind::U16Band;
  EXPECT_EQ(P.describe(), "pf=4 block=512KiB mult=2 idx=u16");
  P.Values = ValueKind::F32x64;
  EXPECT_EQ(P.describe(), "pf=4 block=512KiB mult=2 idx=u16 val=f32x64");
}

TEST(Autotune, MixedPrecisionStaysBehindItsOptIn) {
  // The fp32 value stream perturbs results, so the search may only
  // commission it when the caller said so; the lossless u16 axis needs
  // no opt-in. Either way the winning plan must compute a correct SpMV.
  CsrMatrix A = randomCsr(400, 400, 0.05, 33);
  std::vector<double> X = randomVector(A.numCols(), 5);
  std::vector<double> Ref = referenceSpmv(A, X);

  AutotuneOptions Opts;
  Opts.NumThreads = 2;
  Opts.UseCache = false;
  AutotuneResult R = autotuneCvr(A, Opts);
  EXPECT_EQ(R.Plan.Values, ValueKind::F64);

  Opts.AllowMixedPrecision = true;
  AutotuneResult R2 = autotuneCvr(A, Opts);
  CvrOptions Build = R2.Plan.toOptions(2);
  EXPECT_EQ(Build.Values, R2.Plan.Values);
  EXPECT_EQ(Build.Indices, R2.Plan.Indices);
  CvrKernel K(Build);
  ASSERT_TRUE(K.prepareStatus(A).ok());
  std::vector<double> Y(static_cast<std::size_t>(A.numRows()), -2.0);
  K.run(X.data(), Y.data());
  const double Tol =
      R2.Plan.Values == ValueKind::F32x64 ? 5e-4 : SpmvTolerance;
  EXPECT_LE(maxRelDiff(Ref, Y), Tol) << R2.Plan.describe();
}

TEST(TunedCvrKernel, MatchesReferenceOnVariedStructures) {
  for (std::uint64_t Seed : {3u, 17u, 99u}) {
    CsrMatrix A = randomCsr(250, 400, 0.04, Seed);
    std::vector<double> X = randomVector(A.numCols(), Seed ^ 0xF0);
    std::vector<double> Ref = referenceSpmv(A, X);

    AutotuneOptions Opts;
    Opts.NumThreads = 3;
    Opts.UseCache = false;
    TunedCvrKernel K(Opts);
    EXPECT_EQ(K.name(), "CVR+tuned");
    K.prepare(A);
    EXPECT_LE(K.tuneResult().IterationsUsed, Opts.MaxIterations);
    // The prepared matrix must realize the winning plan.
    EXPECT_EQ(K.cvrMatrix().chunkMultiplier(), K.plan().ChunkMultiplier);
    EXPECT_EQ(K.cvrMatrix().isBlocked(), K.plan().ColBlockBytes > 0);

    std::vector<double> Y(static_cast<std::size_t>(A.numRows()), -2.0);
    K.run(X.data(), Y.data());
    EXPECT_LE(maxRelDiff(Ref, Y), SpmvTolerance)
        << "seed " << Seed << " plan " << K.plan().describe();
  }
}

} // namespace
} // namespace cvr
