//===- tests/FaultToleranceTest.cpp - Status, fail points, the ladder -----===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The fault-tolerance contract end to end: the Status/StatusOr model, the
// fail-point framework that injects faults deterministically, the
// recoverable allocation paths, and the registry's degradation ladder —
// with any single fault armed, prepareKernel must still hand back a kernel
// whose output matches the scalar reference.
//
//===----------------------------------------------------------------------===//

#include "core/CvrSpmv.h"
#include "formats/Registry.h"
#include "io/MatrixMarket.h"
#include "support/AlignedBuffer.h"
#include "support/FailPoint.h"
#include "support/Status.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace cvr {
namespace {

class FaultToleranceTest : public ::testing::Test {
protected:
  void TearDown() override { failpoint::disarmAll(); }
};

TEST_F(FaultToleranceTest, StatusBasics) {
  EXPECT_TRUE(Status::okStatus().ok());
  EXPECT_EQ(Status::okStatus().code(), StatusCode::Ok);

  Status S = Status::dataLoss("bad bytes");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::DataLoss);
  EXPECT_EQ(S.message(), "bad bytes");
  EXPECT_NE(S.toString().find("DATA_LOSS"), std::string::npos);

  Status Wrapped = S.withContext("readBlob");
  EXPECT_EQ(Wrapped.code(), StatusCode::DataLoss);
  EXPECT_EQ(Wrapped.message(), "readBlob: bad bytes");
  EXPECT_TRUE(Status::okStatus().withContext("noop").ok());

  EXPECT_STREQ(statusCodeName(StatusCode::ResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(statusCodeName(StatusCode::DeadlineExceeded),
               "DEADLINE_EXCEEDED");
}

TEST_F(FaultToleranceTest, StatusOrHoldsValueOrError) {
  StatusOr<int> V = 42;
  ASSERT_TRUE(V.ok());
  EXPECT_EQ(*V, 42);

  StatusOr<int> E = Status::notFound("no such thing");
  ASSERT_FALSE(E.ok());
  EXPECT_EQ(E.status().code(), StatusCode::NotFound);

  StatusOr<std::string> Moved = std::string("payload");
  StatusOr<std::string> Target = std::move(Moved);
  ASSERT_TRUE(Target.ok());
  EXPECT_EQ(*Target, "payload");

  StatusOr<std::string> Copy = Target;
  ASSERT_TRUE(Copy.ok());
  EXPECT_EQ(Copy->size(), 7u);
}

TEST_F(FaultToleranceTest, FailPointArmDisarm) {
  EXPECT_FALSE(failpoint::shouldFail("ft.test.site"));
  failpoint::arm("ft.test.site");
  EXPECT_TRUE(failpoint::shouldFail("ft.test.site"));
  EXPECT_TRUE(failpoint::shouldFail("ft.test.site")); // fires every hit
  failpoint::disarm("ft.test.site");
  EXPECT_FALSE(failpoint::shouldFail("ft.test.site"));
  // Unarmed hits take the fast path and are not tallied; the two armed
  // firings are.
  EXPECT_GE(failpoint::hitCount("ft.test.site"), 2);
}

TEST_F(FaultToleranceTest, FailPointCountAndSkip) {
  failpoint::arm("ft.test.counted", /*Count=*/2, /*SkipFirst=*/1);
  EXPECT_FALSE(failpoint::shouldFail("ft.test.counted")); // skipped
  EXPECT_TRUE(failpoint::shouldFail("ft.test.counted"));  // firing 1
  EXPECT_TRUE(failpoint::shouldFail("ft.test.counted"));  // firing 2
  EXPECT_FALSE(failpoint::shouldFail("ft.test.counted")); // exhausted
  EXPECT_TRUE(failpoint::armedSites().empty());
}

TEST_F(FaultToleranceTest, FailPointSpecParsing) {
  Status S =
      failpoint::armFromSpec("alloc.aligned-buffer=1@2;convert.cvr.fail");
  ASSERT_TRUE(S.ok()) << S.toString();
  std::vector<std::string> Armed = failpoint::armedSites();
  EXPECT_NE(std::find(Armed.begin(), Armed.end(), "alloc.aligned-buffer"),
            Armed.end());
  EXPECT_NE(std::find(Armed.begin(), Armed.end(), "convert.cvr.fail"),
            Armed.end());
  failpoint::disarmAll();
  EXPECT_TRUE(failpoint::armedSites().empty());

  EXPECT_FALSE(failpoint::armFromSpec("site=banana").ok());
  EXPECT_FALSE(failpoint::armFromSpec("site=1@banana").ok());
}

TEST_F(FaultToleranceTest, CatalogDocumentsTheSites) {
  const std::vector<failpoint::SiteInfo> &Sites = failpoint::catalog();
  ASSERT_FALSE(Sites.empty());
  bool HaveAlloc = false, HaveConvert = false;
  for (const failpoint::SiteInfo &S : Sites) {
    EXPECT_NE(S.Name[0], '\0');
    EXPECT_NE(S.Effect[0], '\0');
    HaveAlloc |= std::string(S.Name) == "alloc.aligned-buffer";
    HaveConvert |= std::string(S.Name) == "convert.cvr.fail";
  }
  EXPECT_TRUE(HaveAlloc);
  EXPECT_TRUE(HaveConvert);
}

TEST_F(FaultToleranceTest, CorruptFlipsExactlyOneBit) {
  unsigned char Buf[16] = {};
  failpoint::corrupt("ft.test.corrupt", Buf, sizeof(Buf)); // unarmed: no-op
  for (unsigned char C : Buf)
    EXPECT_EQ(C, 0);
  failpoint::arm("ft.test.corrupt");
  failpoint::corrupt("ft.test.corrupt", Buf, sizeof(Buf));
  int BitsSet = 0;
  for (unsigned char C : Buf)
    for (int B = 0; B < 8; ++B)
      BitsSet += (C >> B) & 1;
  EXPECT_EQ(BitsSet, 1);
}

TEST_F(FaultToleranceTest, AlignedBufferRecoversFromInjectedOom) {
  AlignedBuffer<double> B;
  ASSERT_TRUE(B.tryResize(100, 1.5).ok());
  failpoint::arm("alloc.aligned-buffer");
  Status S = B.tryReserve(100000); // forces a real growth attempt
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::ResourceExhausted);
  // The buffer is untouched and fully usable after the fault passes.
  EXPECT_EQ(B.size(), 100u);
  EXPECT_EQ(B[99], 1.5);
  failpoint::disarmAll();
  ASSERT_TRUE(B.tryResize(100000).ok());
  EXPECT_EQ(B[99], 1.5);
}

#ifndef CVR_ASAN_ACTIVE
#if defined(__SANITIZE_ADDRESS__)
#define CVR_ASAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CVR_ASAN_ACTIVE 1
#endif
#endif
#endif

TEST_F(FaultToleranceTest, AlignedBufferRejectsAbsurdReservation) {
#ifdef CVR_ASAN_ACTIVE
  // ASan's allocator treats a request this size as a hard error rather
  // than returning null; the recoverable path is covered by the injected
  // fault above.
  GTEST_SKIP() << "real OOM probe is incompatible with the ASan allocator";
#endif
  AlignedBuffer<double> B;
  Status S = B.tryReserve(std::size_t(1) << 55); // 256 PiB: must not succeed
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::ResourceExhausted);
  EXPECT_EQ(B.size(), 0u);
}

TEST_F(FaultToleranceTest, MatrixMarketShortReadFault) {
  const char *Text = "%%MatrixMarket matrix coordinate real general\n"
                     "2 2 1\n"
                     "1 1 1.0\n";
  failpoint::arm("io.mm.short-read");
  {
    std::istringstream IS(Text);
    StatusOr<CooMatrix> R = readMatrixMarket(IS);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.status().code(), StatusCode::DataLoss);
  }
  failpoint::disarmAll();
  std::istringstream IS(Text);
  EXPECT_TRUE(readMatrixMarket(IS).ok());
}

TEST_F(FaultToleranceTest, TryFromCsrReportsInjectedFailure) {
  CsrMatrix A = test::randomCsr(16, 16, 0.3, 3);
  failpoint::arm("convert.cvr.fail");
  StatusOr<CvrMatrix> R = CvrMatrix::tryFromCsr(A);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::Internal);
  failpoint::disarmAll();
  EXPECT_TRUE(CvrMatrix::tryFromCsr(A).ok());
}

TEST_F(FaultToleranceTest, TryFromCsrRejectsBadOptions) {
  CsrMatrix A = test::randomCsr(8, 8, 0.3, 3);
  CvrOptions Opts;
  Opts.Values = static_cast<ValueKind>(7); // No such stream kind.
  StatusOr<CvrMatrix> R = CvrMatrix::tryFromCsr(A, Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::InvalidArgument);
}

TEST_F(FaultToleranceTest, EveryConversionAllocationFailureIsRecoverable) {
  // A blocked plan with several chunks per band allocates per-item
  // streams, the shared streams, the tails and the finish masks. Failing
  // any one of them must come back as RESOURCE_EXHAUSTED, never a crash
  // or a half-built matrix.
  CsrMatrix A = test::randomCsr(120, 700, 0.05, 17);
  CvrOptions Opts;
  Opts.ColBlockBytes = 512;
  Opts.NumThreads = 3;
  // Sites count hits only while armed: arm one that never fires.
  failpoint::arm("alloc.aligned-buffer", 1, 1 << 30);
  const long Before = failpoint::hitCount("alloc.aligned-buffer");
  ASSERT_TRUE(CvrMatrix::tryFromCsr(A, Opts).ok());
  const long Allocations = failpoint::hitCount("alloc.aligned-buffer") - Before;
  failpoint::disarmAll();
  ASSERT_GE(Allocations, 2 * 3 * 11); // Two streams per (band, chunk) item.

  std::vector<double> X = test::randomVector(700, 8);
  for (long K = 0; K <= Allocations; ++K) {
    ASSERT_TRUE(failpoint::armFromSpec("alloc.aligned-buffer=1@" +
                                       std::to_string(K))
                    .ok());
    StatusOr<CvrMatrix> M = CvrMatrix::tryFromCsr(A, Opts);
    failpoint::disarmAll();
    if (K < Allocations) {
      ASSERT_FALSE(M.ok()) << "allocation " << K;
      EXPECT_EQ(M.status().code(), StatusCode::ResourceExhausted) << K;
      continue;
    }
    ASSERT_TRUE(M.ok()) << M.status().toString();
    std::vector<double> Y(120, -1.0);
    cvrSpmv(*M, X.data(), Y.data());
    EXPECT_LE(maxRelDiff(referenceSpmv(A, X), Y), test::SpmvTolerance);
  }
}

TEST_F(FaultToleranceTest, KernelPrepareStatusCarriesContext) {
  CsrMatrix A = test::randomCsr(16, 16, 0.3, 3);
  CvrKernel K;
  failpoint::arm("convert.cvr.fail");
  Status S = K.prepareStatus(A);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("CVR prepare"), std::string::npos);
}

TEST_F(FaultToleranceTest, SerializeWriteShortFault) {
  CvrMatrix M = CvrMatrix::fromCsr(test::randomCsr(16, 16, 0.3, 3));
  failpoint::arm("serialize.write.short");
  std::ostringstream OS;
  Status S = M.writeBlob(OS);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::Unavailable);
}

TEST_F(FaultToleranceTest, SerializeReadBitflipCaughtByChecksum) {
  CvrMatrix M = CvrMatrix::fromCsr(test::randomCsr(16, 16, 0.3, 3));
  std::ostringstream OS;
  ASSERT_TRUE(M.writeBlob(OS).ok());
  failpoint::arm("serialize.read.bitflip");
  std::istringstream IS(OS.str());
  StatusOr<CvrMatrix> R = CvrMatrix::readBlob(IS);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::DataLoss);
  EXPECT_NE(R.status().message().find("cvr.blob.section-crc"),
            std::string::npos);
}

/// Shared harness for the ladder tests: builds the workload, arms \p Spec,
/// runs prepareKernel, and verifies the prepared kernel against the scalar
/// reference.
PreparedKernel prepareUnderFault(const std::string &Spec) {
  CsrMatrix A = test::randomCsr(64, 64, 0.15, 21);
  std::vector<double> X = test::randomVector(64, 5);
  std::vector<double> Ref = referenceSpmv(A, X);

  if (!Spec.empty()) {
    Status S = failpoint::armFromSpec(Spec);
    EXPECT_TRUE(S.ok()) << S.toString();
  }
  StatusOr<PreparedKernel> P = prepareKernel(FormatId::Cvr, A);
  failpoint::disarmAll();
  EXPECT_TRUE(P.ok()) << P.status().toString();
  if (!P.ok())
    return PreparedKernel{};

  std::vector<double> Y(64, 0.0);
  P->Kernel->run(X.data(), Y.data());
  EXPECT_LE(maxRelDiff(Ref, Y), test::SpmvTolerance)
      << "under fault '" << Spec << "' via " << P->Actual;
  return std::move(*P);
}

TEST_F(FaultToleranceTest, LadderHappyPathPreparesRequestedVariant) {
  PreparedKernel P = prepareUnderFault("");
  EXPECT_EQ(P.Requested, "CVR");
  EXPECT_EQ(P.Actual, "CVR");
  EXPECT_FALSE(P.degraded());
  EXPECT_TRUE(P.Downgrades.empty());
}

TEST_F(FaultToleranceTest, LadderFallsToCsrWhenConversionFails) {
  PreparedKernel P = prepareUnderFault("convert.cvr.fail");
  EXPECT_EQ(P.Requested, "CVR");
  EXPECT_EQ(P.Actual, "CSR");
  ASSERT_EQ(P.Downgrades.size(), 1u);
  EXPECT_EQ(P.Downgrades[0].FromVariant, "CVR");
  EXPECT_EQ(P.Downgrades[0].ToVariant, "CSR");
  EXPECT_FALSE(P.Downgrades[0].Reason.ok());
}

TEST_F(FaultToleranceTest, LadderCsrRungStillServesRunBatch) {
  // The matrix must outlive the prepared kernel (CSR's rung keeps a
  // pointer), so this drill builds its own instead of prepareUnderFault's.
  CsrMatrix A = test::randomCsr(64, 64, 0.15, 21);
  ASSERT_TRUE(failpoint::armFromSpec("convert.cvr.fail").ok());
  StatusOr<PreparedKernel> P = prepareKernel(FormatId::Cvr, A);
  failpoint::disarmAll();
  ASSERT_TRUE(P.ok()) << P.status().toString();
  EXPECT_EQ(P->Actual, "CSR");
  ASSERT_NE(P->Kernel, nullptr);

  // The bottom rung owns the batch API too: a multi-RHS panel through the
  // degraded kernel must match the per-column scalar reference.
  const int NumVec = 5;
  const std::size_t Ld = 6; // One padding column exercises the stride.
  std::vector<double> X = test::randomVector(64 * Ld, 11);
  std::vector<double> Y(64 * Ld, 0.0);
  ASSERT_TRUE(P->Kernel->runBatch(X.data(), Ld, Y.data(), Ld, NumVec).ok());
  std::vector<double> Xc(64), Yc(64);
  for (int J = 0; J < NumVec; ++J) {
    for (std::size_t I = 0; I < 64; ++I)
      Xc[I] = X[I * Ld + static_cast<std::size_t>(J)];
    std::vector<double> Ref = referenceSpmv(A, Xc);
    for (std::size_t I = 0; I < 64; ++I)
      Yc[I] = Y[I * Ld + static_cast<std::size_t>(J)];
    EXPECT_LE(maxRelDiff(Ref, Yc), test::SpmvTolerance) << "column " << J;
  }
}

TEST_F(FaultToleranceTest, LadderSurvivesAllocationFailure) {
  PreparedKernel P = prepareUnderFault("alloc.aligned-buffer");
  // CVR storage lives in AlignedBuffer, so the CVR rung fails; the CSR
  // baseline owns no aligned storage and must still work.
  EXPECT_EQ(P.Actual, "CSR");
  ASSERT_EQ(P.Downgrades.size(), 1u);
  EXPECT_EQ(P.Downgrades[0].Reason.code(), StatusCode::ResourceExhausted);
}

TEST_F(FaultToleranceTest, LadderAbsorbsOneTransientAllocationFailure) {
  // A one-shot allocation failure, wherever it lands in the conversion
  // (first stream, a later stream), costs exactly the CVR rung: the
  // half-built matrix is released and the CSR baseline serves.
  for (const char *Spec : {"alloc.aligned-buffer=1",
                           "alloc.aligned-buffer=1@1",
                           "alloc.aligned-buffer=1@2"}) {
    PreparedKernel P = prepareUnderFault(Spec);
    EXPECT_EQ(P.Requested, "CVR") << Spec;
    EXPECT_EQ(P.Actual, "CSR") << Spec;
    ASSERT_EQ(P.Downgrades.size(), 1u) << Spec;
    EXPECT_EQ(P.Downgrades[0].Reason.code(), StatusCode::ResourceExhausted)
        << Spec;
  }
}

} // namespace
} // namespace cvr
