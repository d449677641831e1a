//===- tests/RooflineTest.cpp - Bandwidth-roofline model tests ------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The roofline model (analysis/Roofline.h) prices one SpMV iteration from
// structure alone; these tests pin the arithmetic the perf-trajectory gate
// depends on: stream bytes shrink exactly with the declared kinds, the
// compulsory x bound counts distinct lines, alpha derivations rescale
// without re-walking, and the predicted total tracks the cache-simulated
// measurement on a matrix too large to stay resident.
//
//===----------------------------------------------------------------------===//

#include "analysis/Roofline.h"

#include "TestUtil.h"
#include "benchlib/SuiteRunner.h"
#include "core/CvrSpmv.h"
#include "gen/Generators.h"

#include <gtest/gtest.h>

namespace cvr {
namespace {

/// fp32-exact, so every explicit stream kind converts (stream bytes and
/// traced traffic do not depend on values).
CsrMatrix testMatrix() { return roundedToFp32(genRmat(12, 12, 31)); }

CvrMatrix build(const CsrMatrix &A, ValueKind V, ColIndexKind I,
                std::int64_t BlockBytes = 0) {
  CvrOptions Opts;
  Opts.NumThreads = 2;
  Opts.Values = V;
  Opts.Indices = I;
  Opts.ColBlockBytes = BlockBytes;
  return CvrMatrix::fromCsr(A, Opts);
}

TEST(Roofline, StreamBytesScaleWithKinds) {
  CsrMatrix A = testMatrix();
  using analysis::predictCvr;
  analysis::RooflinePrediction F64 =
      predictCvr(build(A, ValueKind::F64, ColIndexKind::U32));
  analysis::RooflinePrediction F32 =
      predictCvr(build(A, ValueKind::F32x64, ColIndexKind::U32));
  analysis::RooflinePrediction U16 =
      predictCvr(build(A, ValueKind::F64, ColIndexKind::U16Band));

  // Same build shape, so the element count is identical; only the bytes
  // per element change: values 8 -> 4, indices 4 -> 2.
  EXPECT_DOUBLE_EQ(F32.ValueBytes, F64.ValueBytes / 2.0);
  EXPECT_DOUBLE_EQ(F32.IndexBytes, F64.IndexBytes);
  EXPECT_DOUBLE_EQ(U16.IndexBytes, F64.IndexBytes / 2.0);
  EXPECT_DOUBLE_EQ(U16.ValueBytes, F64.ValueBytes);
  // The gather side is structural and unaffected by storage kinds.
  EXPECT_DOUBLE_EQ(F32.XCompulsoryBytes, F64.XCompulsoryBytes);
  EXPECT_DOUBLE_EQ(U16.XCompulsoryBytes, F64.XCompulsoryBytes);
  EXPECT_LT(F32.TotalBytes, F64.TotalBytes);
  EXPECT_LT(U16.TotalBytes, F64.TotalBytes);
  EXPECT_GT(F64.BytesPerNnz, 0.0);
}

TEST(Roofline, AlphaScalesOnlyTheXTraffic) {
  CvrMatrix M = build(testMatrix(), ValueKind::F64, ColIndexKind::U32);
  analysis::RooflinePrediction One = analysis::predictCvr(M, 1.0);
  analysis::RooflinePrediction Two = analysis::predictCvr(M, 2.0);
  analysis::RooflinePrediction Neg = analysis::predictCvr(M, -3.0);
  EXPECT_DOUBLE_EQ(Two.XBytes, 2.0 * One.XBytes);
  EXPECT_DOUBLE_EQ(Two.ValueBytes, One.ValueBytes);
  EXPECT_DOUBLE_EQ(Two.YBytes, One.YBytes);
  EXPECT_DOUBLE_EQ(Two.TotalBytes - Two.XBytes,
                   One.TotalBytes - One.XBytes);
  // Negative alpha clamps to zero x traffic, never negative bytes.
  EXPECT_DOUBLE_EQ(Neg.Alpha, 0.0);
  EXPECT_DOUBLE_EQ(Neg.XBytes, 0.0);
}

TEST(Roofline, CsrPredictionCountsDistinctXLines) {
  // Dense single row: columns 0..63 touch exactly 8 x lines (64 doubles).
  CooMatrix Coo(1, 64);
  for (std::int32_t C = 0; C < 64; ++C)
    Coo.add(0, C, 1.0 + C);
  CsrMatrix A = CsrMatrix::fromCoo(Coo);
  analysis::RooflinePrediction P = analysis::predictCsr(A);
  EXPECT_DOUBLE_EQ(P.XCompulsoryBytes, 8 * 64.0);
  EXPECT_DOUBLE_EQ(P.ValueBytes, 64.0 * sizeof(double));
  EXPECT_DOUBLE_EQ(P.IndexBytes, 64.0 * sizeof(std::int32_t));
  EXPECT_DOUBLE_EQ(P.YBytes, 64.0); // one y line
}

TEST(Roofline, AlphaFromLocalityRoundTrips) {
  // Synthesize a probe whose DRAM traffic is exactly the deterministic
  // streams plus k times the compulsory x bytes; the derivation must hand
  // back k.
  CvrMatrix M = build(testMatrix(), ValueKind::F64, ColIndexKind::U32);
  analysis::RooflinePrediction P = analysis::predictCvr(M);
  ASSERT_GT(P.XCompulsoryBytes, 0.0);
  const double Deterministic = P.ValueBytes + P.IndexBytes +
                               P.RecordBytes + P.TailBytes + P.YBytes;
  LocalityResult Probe;
  Probe.Supported = true;
  const double K = 1.5;
  Probe.L2Fills = static_cast<std::uint64_t>(
      (Deterministic + K * P.XCompulsoryBytes) / 64.0);
  const double Alpha =
      analysis::alphaFromLocality(Probe, P, M.numNonZeros());
  EXPECT_NEAR(Alpha, K, 0.01);

  // Unsupported probes fall back to the compulsory model.
  LocalityResult None;
  EXPECT_DOUBLE_EQ(analysis::alphaFromLocality(None, P, M.numNonZeros()),
                   1.0);
}

TEST(Roofline, PredictionTracksSimulatedMeasurement) {
  // End-to-end accuracy on a matrix larger than the simulated L2: derive
  // alpha from the baseline plan's probe, then the alpha-adjusted
  // prediction must land within the 25% band the perf gate enforces --
  // for the baseline and for both compressed stream kinds.
  CsrMatrix A = roundedToFp32(genRmat(13, 16, 601));
  CvrMatrix Base = build(A, ValueKind::F64, ColIndexKind::U32);
  CvrKernel K;
  K.prepare(A);
  const LocalityResult Probe = probeLocality(K, A, LocalityConfig{});
  ASSERT_TRUE(Probe.Supported);
  const double Alpha = analysis::alphaFromLocality(
      Probe, analysis::predictCvr(Base), A.numNonZeros());

  const ValueKind VKs[] = {ValueKind::F64, ValueKind::F32x64};
  const ColIndexKind IKs[] = {ColIndexKind::U32, ColIndexKind::U16Band};
  for (ValueKind V : VKs) {
    for (ColIndexKind I : IKs) {
      CvrOptions Opts;
      Opts.NumThreads = 2;
      Opts.Values = V;
      Opts.Indices = I;
      CvrKernel PK(Opts);
      ASSERT_TRUE(PK.prepareStatus(A).ok());
      const analysis::RooflinePrediction P =
          analysis::predictCvr(PK.cvrMatrix(), Alpha);
      const analysis::MeasuredTraffic T =
          analysis::measureDramTraffic(PK, A);
      ASSERT_TRUE(T.Supported);
      ASSERT_GT(T.BytesPerNnz, 0.0);
      const double Ratio = P.BytesPerNnz / T.BytesPerNnz;
      EXPECT_GT(Ratio, 0.75) << "kinds " << int(V) << "/" << int(I);
      EXPECT_LT(Ratio, 1.34) << "kinds " << int(V) << "/" << int(I);
    }
  }
}

} // namespace
} // namespace cvr
