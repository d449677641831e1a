//===- tests/AutoSelectAndSerializeTest.cpp - Advisor & blob I/O ----------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Cvr.h"
#include "formats/AutoSelect.h"

#include "TestUtil.h"
#include "gen/Generators.h"
#include "matrix/MatrixStats.h"
#include "matrix/Reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace cvr {
namespace {

using test::randomVector;

// --- AutoSelect -------------------------------------------------------------

TEST(AutoSelect, FewIterationsStayOnCsr) {
  MatrixStats S = computeStats(genRmat(10, 8, 1));
  EXPECT_EQ(adviseFormat(S, 3).Format, FormatId::Mkl);
  EXPECT_NE(adviseFormat(S, 1000).Format, FormatId::Mkl);
}

TEST(AutoSelect, ScaleFreeGetsCvr) {
  MatrixStats S = computeStats(genRmat(12, 8, 2));
  FormatAdvice A = adviseFormat(S);
  EXPECT_EQ(A.Format, FormatId::Cvr);
  EXPECT_FALSE(A.Reason.empty());
}

TEST(AutoSelect, ShortFatRectangleGetsVhcc) {
  MatrixStats S = computeStats(genShortFat(16, 20000, 1000, 3));
  EXPECT_EQ(adviseFormat(S).Format, FormatId::Vhcc);
}

TEST(AutoSelect, RegularStencilGetsEsb) {
  // Interior-dominated stencil: near-constant row lengths.
  MatrixStats S = computeStats(genStencil27(20, 20, 20));
  EXPECT_EQ(adviseFormat(S).Format, FormatId::Esb);
}

TEST(AutoSelect, EmptyRowMatrixGetsCvr) {
  MatrixStats S = computeStats(genPowerLaw(5000, 5000, 2.0, 1.5, 4));
  EXPECT_EQ(adviseFormat(S).Format, FormatId::Cvr);
}

// --- Serialization ------------------------------------------------------------

TEST(CvrSerialize, RoundTripPreservesResults) {
  CsrMatrix A = genRmat(10, 9, 71);
  CvrOptions Opts;
  Opts.NumThreads = 3;
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);

  std::stringstream Blob;
  ASSERT_TRUE(M.writeBlob(Blob).ok());

  StatusOr<CvrMatrix> R = CvrMatrix::readBlob(Blob);
  ASSERT_TRUE(R.ok()) << R.status().toString();
  const CvrMatrix &Loaded = *R;
  EXPECT_EQ(Loaded.numRows(), M.numRows());
  EXPECT_EQ(Loaded.numCols(), M.numCols());
  EXPECT_EQ(Loaded.numNonZeros(), M.numNonZeros());
  EXPECT_EQ(Loaded.numChunks(), M.numChunks());
  EXPECT_TRUE(test::structureClean(Loaded));

  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), 9);
  std::vector<double> Y1(static_cast<std::size_t>(A.numRows()));
  std::vector<double> Y2(static_cast<std::size_t>(A.numRows()));
  cvrSpmv(M, X.data(), Y1.data());
  cvrSpmv(Loaded, X.data(), Y2.data());
  EXPECT_EQ(maxAbsDiff(Y1, Y2), 0.0);
}

TEST(CvrSerialize, RoundTripPreservesBlockedOverDecomposedStructure) {
  // Blobs carry the column-band table. A blocked + over-decomposed matrix
  // (6 chunks per band, run on 3 threads) must come back with its bands
  // and every stream and table intact element for element. The two SpMVs
  // are each checked against the reference rather than against each other:
  // accumulate mode adds shared-row partials atomically under a dynamic
  // schedule, so the summation order legitimately varies from run to run.
  CsrMatrix A = genRmat(11, 7, 77);
  CvrOptions Opts;
  Opts.NumThreads = 6;
  Opts.ColBlockBytes = 2048; // 256-column bands.
  test::ScopedOmpThreads Threads(3);
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  ASSERT_TRUE(M.isBlocked());

  std::stringstream Blob;
  ASSERT_TRUE(M.writeBlob(Blob).ok());
  StatusOr<CvrMatrix> R = CvrMatrix::readBlob(Blob);
  ASSERT_TRUE(R.ok()) << R.status().toString();
  const CvrMatrix &Loaded = *R;
  EXPECT_TRUE(test::structureClean(Loaded));
  ASSERT_EQ(Loaded.lanes(), M.lanes());
  ASSERT_EQ(Loaded.valueKind(), M.valueKind());
  ASSERT_EQ(Loaded.colIndexKind(), M.colIndexKind());
  ASSERT_EQ(Loaded.bands().size(), M.bands().size());
  for (std::size_t I = 0; I < M.bands().size(); ++I) {
    EXPECT_EQ(Loaded.bands()[I].ColBegin, M.bands()[I].ColBegin);
    EXPECT_EQ(Loaded.bands()[I].ColEnd, M.bands()[I].ColEnd);
    EXPECT_EQ(Loaded.bands()[I].ChunkBegin, M.bands()[I].ChunkBegin);
    EXPECT_EQ(Loaded.bands()[I].ChunkEnd, M.bands()[I].ChunkEnd);
  }

  // Chunk table, and from it the extent of every stream.
  ASSERT_EQ(Loaded.numChunks(), M.numChunks());
  const std::int64_t W = M.lanes();
  std::int64_t Elems = 0, Recs = 0, Tails = 0;
  for (int T = 0; T < M.numChunks(); ++T) {
    const CvrChunk &C = M.chunks()[T], &L = Loaded.chunks()[T];
    EXPECT_EQ(L.ElemBase, C.ElemBase) << "chunk " << T;
    EXPECT_EQ(L.NumSteps, C.NumSteps) << "chunk " << T;
    EXPECT_EQ(L.RecBase, C.RecBase) << "chunk " << T;
    EXPECT_EQ(L.RecEnd, C.RecEnd) << "chunk " << T;
    EXPECT_EQ(L.TailBase, C.TailBase) << "chunk " << T;
    EXPECT_EQ(L.FirstRow, C.FirstRow) << "chunk " << T;
    EXPECT_EQ(L.LastRow, C.LastRow) << "chunk " << T;
    Elems = std::max(Elems, C.ElemBase + C.NumSteps * W);
    Recs = std::max(Recs, C.RecEnd);
    Tails = std::max(Tails, C.TailBase + W);
  }
  ASSERT_GT(Elems, 0);
  for (std::int64_t I = 0; I < Elems; ++I) {
    ASSERT_EQ(Loaded.valueAt(I), M.valueAt(I)) << "element " << I;
    ASSERT_EQ(Loaded.rawColAt(I), M.rawColAt(I)) << "element " << I;
  }
  for (std::int64_t I = 0; I < Recs; ++I) {
    const CvrRecord &Rec = M.recs()[I], &L = Loaded.recs()[I];
    ASSERT_EQ(L.Pos, Rec.Pos) << "record " << I;
    ASSERT_EQ(L.Wb, Rec.Wb) << "record " << I;
    ASSERT_EQ(L.Steal, Rec.Steal) << "record " << I;
    ASSERT_EQ(L.Shared, Rec.Shared) << "record " << I;
  }
  for (std::int64_t I = 0; I < Tails; ++I)
    ASSERT_EQ(Loaded.tails()[I], M.tails()[I]) << "tail slot " << I;
  EXPECT_EQ(Loaded.zeroRows(), M.zeroRows());

  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), 13);
  std::vector<double> Ref = referenceSpmv(A, X);
  std::vector<double> Y1(static_cast<std::size_t>(A.numRows()));
  std::vector<double> Y2(static_cast<std::size_t>(A.numRows()));
  cvrSpmv(M, X.data(), Y1.data());
  cvrSpmv(Loaded, X.data(), Y2.data());
  EXPECT_LE(maxRelDiff(Ref, Y1), test::SpmvTolerance);
  EXPECT_LE(maxRelDiff(Ref, Y2), test::SpmvTolerance);
}

TEST(CvrSerialize, RoundTripEmptyMatrix) {
  CvrMatrix M = CvrMatrix::fromCsr(CsrMatrix::emptyOfShape(5, 5));
  std::stringstream Blob;
  ASSERT_TRUE(M.writeBlob(Blob).ok());
  StatusOr<CvrMatrix> Loaded = CvrMatrix::readBlob(Blob);
  ASSERT_TRUE(Loaded.ok()) << Loaded.status().toString();
  EXPECT_EQ(Loaded->numNonZeros(), 0);
}

TEST(CvrSerialize, RejectsBadMagic) {
  std::stringstream Blob("XXXXgarbage");
  StatusOr<CvrMatrix> R = CvrMatrix::readBlob(Blob);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::DataLoss);
  EXPECT_NE(R.status().message().find("cvr.blob.magic"), std::string::npos);
}

TEST(CvrSerialize, RejectsTruncatedBlob) {
  CvrMatrix M = CvrMatrix::fromCsr(genRmat(8, 6, 3));
  std::stringstream Blob;
  ASSERT_TRUE(M.writeBlob(Blob).ok());
  std::string Full = Blob.str();
  for (std::size_t Cut : {4ul, 16ul, Full.size() / 2, Full.size() - 1}) {
    std::stringstream Truncated(Full.substr(0, Cut));
    StatusOr<CvrMatrix> R = CvrMatrix::readBlob(Truncated);
    ASSERT_FALSE(R.ok()) << "cut at " << Cut;
    EXPECT_EQ(R.status().code(), StatusCode::DataLoss) << "cut at " << Cut;
  }
}

TEST(CvrSerialize, RejectsCorruptedChunkOffsets) {
  CvrMatrix M = CvrMatrix::fromCsr(genRmat(8, 6, 4));
  std::stringstream Blob;
  ASSERT_TRUE(M.writeBlob(Blob).ok());
  std::string Bytes = Blob.str();
  // Flip high bits late in the blob (the chunk table region) and require
  // either a clean reject or a still-valid load — never a crash.
  for (std::size_t I = Bytes.size() - 64; I < Bytes.size(); I += 8) {
    std::string Mutated = Bytes;
    Mutated[I] = static_cast<char>(Mutated[I] ^ 0x7F);
    std::stringstream In(Mutated);
    StatusOr<CvrMatrix> R = CvrMatrix::readBlob(In);
    if (R.ok()) {
      EXPECT_TRUE(test::structureClean(*R));
    }
  }
}

TEST(CvrSerialize, BlobIsReasonablySized) {
  CsrMatrix A = genRmat(10, 8, 5);
  CvrMatrix M = CvrMatrix::fromCsr(A);
  std::stringstream Blob;
  ASSERT_TRUE(M.writeBlob(Blob).ok());
  // Blob ~ formatBytes plus small headers.
  EXPECT_LT(Blob.str().size(), M.formatBytes() + 256);
}

} // namespace
} // namespace cvr
