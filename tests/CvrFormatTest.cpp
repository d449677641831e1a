//===- tests/CvrFormatTest.cpp - CVR conversion & SpMV tests --------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Cvr.h"

#include "TestUtil.h"
#include "benchlib/SuiteRunner.h"
#include "gen/Generators.h"
#include "matrix/Coo.h"
#include "matrix/Reference.h"
#include "support/Crc32c.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>

namespace cvr {
namespace {

using test::randomCsr;
using test::randomVector;
using test::SpmvTolerance;

/// Converts, runs, and compares against the scalar reference.
void expectCvrMatchesReference(const CsrMatrix &A, const CvrOptions &Opts,
                               const char *What) {
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  EXPECT_TRUE(test::structureClean(M)) << What;
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
  EXPECT_TRUE(test::structureClean(M));
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
  ASSERT_TRUE(test::structureClean(M));
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

//===----------------------------------------------------------------------===//
// Default stream kinds: the narrowest lossless streams
//===----------------------------------------------------------------------===//

/// Runs cvrSpmv on one thread (no shared-row atomics, so the result is
/// deterministic) and returns y.
std::vector<double> spmvOneThread(const CsrMatrix &A, CvrOptions Opts) {
  Opts.NumThreads = 1;
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), 17);
  std::vector<double> Y(static_cast<std::size_t>(A.numRows()), -1.0);
  cvrSpmv(M, X.data(), Y.data());
  return Y;
}

/// The paper's uncompressed streams, asked for explicitly.
CvrOptions f64u32() {
  CvrOptions Opts;
  Opts.Values = ValueKind::F64;
  Opts.Indices = ColIndexKind::U32;
  return Opts;
}

/// \p A with its value at position \p I replaced by \p V.
CsrMatrix withValue(CsrMatrix A, std::int64_t I, double V) {
  A.vals()[I] = V;
  return A;
}

/// A 2 x Cols matrix whose nonzeros reach the last column.
CsrMatrix wideMatrix(std::int32_t Cols) {
  CooMatrix Coo(2, Cols);
  for (std::int32_t C = 0; C < Cols; C += 997)
    Coo.add(C % 2, C, 1.0);
  Coo.add(1, Cols - 1, 2.0);
  return CsrMatrix::fromCoo(Coo);
}

TEST(CvrStreamKinds, IntegerStencilGetsF32ValuesAndU16Indices) {
  CvrMatrix M = CvrMatrix::fromCsr(genStencil27(8, 8, 8));
  EXPECT_EQ(M.valueKind(), ValueKind::F32x64);
  EXPECT_EQ(M.colIndexKind(), ColIndexKind::U16Band);
  EXPECT_TRUE(test::structureClean(M));
}

TEST(CvrStreamKinds, RandomValuesKeepF64) {
  CvrMatrix M = CvrMatrix::fromCsr(randomCsr(300, 300, 0.05, 5));
  EXPECT_EQ(M.valueKind(), ValueKind::F64);
  EXPECT_EQ(M.colIndexKind(), ColIndexKind::U16Band);
}

TEST(CvrStreamKinds, ColumnsPastU16RangeKeepU32) {
  // 65,536 columns is the widest band a uint16 delta spans.
  CvrOptions Narrow;
  Narrow.Indices = ColIndexKind::U16Band;
  StatusOr<CvrMatrix> Fits = CvrMatrix::tryFromCsr(wideMatrix(65536), Narrow);
  ASSERT_TRUE(Fits.ok()) << Fits.status().toString();
  EXPECT_EQ(Fits->colIndexKind(), ColIndexKind::U16Band);

  CsrMatrix A = wideMatrix(65537);
  CvrMatrix M = CvrMatrix::fromCsr(A);
  EXPECT_EQ(M.colIndexKind(), ColIndexKind::U32);
  EXPECT_EQ(M.valueKind(), ValueKind::F32x64);

  // An explicit U16Band request is refused, not silently widened.
  StatusOr<CvrMatrix> Wide = CvrMatrix::tryFromCsr(A, Narrow);
  ASSERT_FALSE(Wide.ok());
  EXPECT_EQ(Wide.status().code(), StatusCode::InvalidArgument);

  // Column bands no wider than 65536 columns narrow again, asked for or
  // not.
  for (std::optional<ColIndexKind> IK :
       {std::optional<ColIndexKind>(), std::optional(ColIndexKind::U16Band)}) {
    CvrOptions Blocked;
    Blocked.Indices = IK;
    Blocked.ColBlockBytes = 8 * 4096;
    CvrMatrix B = CvrMatrix::fromCsr(A, Blocked);
    EXPECT_EQ(B.colIndexKind(), ColIndexKind::U16Band);
    CvrOptions BlockedWide = f64u32();
    BlockedWide.ColBlockBytes = Blocked.ColBlockBytes;
    EXPECT_EQ(spmvOneThread(A, Blocked), spmvOneThread(A, BlockedWide));
  }
}

TEST(CvrStreamKinds, ValuesFp32CannotHoldKeepF64) {
  const CsrMatrix A = genStencil27(5, 5, 5);
  const double Subnormal = std::ldexp(1.0, -140); // Exact, but subnormal.
  ASSERT_EQ(static_cast<double>(static_cast<float>(Subnormal)), Subnormal);
  CvrOptions Narrow;
  Narrow.Values = ValueKind::F32x64;
  for (double V : {0.1, 1e-300, std::nan(""), Subnormal, 1e300}) {
    SCOPED_TRACE(V);
    const CsrMatrix B = withValue(A, A.numNonZeros() / 2, V);
    CvrMatrix M = CvrMatrix::fromCsr(B);
    EXPECT_EQ(M.valueKind(), ValueKind::F64);
    EXPECT_EQ(M.colIndexKind(), ColIndexKind::U16Band);
    // An explicit F32x64 request is refused, not rounded.
    StatusOr<CvrMatrix> R = CvrMatrix::tryFromCsr(B, Narrow);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.status().code(), StatusCode::InvalidArgument);
  }
}

TEST(CvrStreamKinds, InfinitiesAndNegativeZeroKeepF32) {
  const CsrMatrix A = genStencil27(5, 5, 5);
  const double Inf = std::numeric_limits<double>::infinity();
  for (double V : {Inf, -Inf, -0.0}) {
    SCOPED_TRACE(V);
    const CsrMatrix B = withValue(A, 7, V);
    EXPECT_EQ(CvrMatrix::fromCsr(B).valueKind(), ValueKind::F32x64);
    EXPECT_EQ(spmvOneThread(B, {}), spmvOneThread(B, f64u32()));
  }
}

TEST(CvrStreamKinds, DefaultYIsBitIdenticalToF64U32) {
  const CvrOptions Wide = f64u32();
  CvrOptions BlockedDefault, BlockedWide = Wide;
  BlockedDefault.ColBlockBytes = BlockedWide.ColBlockBytes = 2048;
  const CsrMatrix Cases[] = {genStencil27(9, 9, 9),
                             randomCsr(500, 500, 0.02, 9), genRmat(10, 8, 3),
                             genRoadLattice(30, 1.5, 4),
                             roundedToFp32(randomCsr(500, 500, 0.02, 9))};
  for (const CsrMatrix &A : Cases) {
    EXPECT_EQ(spmvOneThread(A, {}), spmvOneThread(A, Wide));
    EXPECT_EQ(spmvOneThread(A, BlockedDefault), spmvOneThread(A, BlockedWide));
  }

  // Each explicit narrow kind is honoured with the same y, or refused when
  // the matrix cannot hold it exactly (the default then keeps F64).
  const struct {
    ValueKind V;
    ColIndexKind I;
  } Narrow[] = {{ValueKind::F32x64, ColIndexKind::U32},
                {ValueKind::F64, ColIndexKind::U16Band},
                {ValueKind::F32x64, ColIndexKind::U16Band}};
  for (const CsrMatrix &A : Cases) {
    const bool Exact =
        CvrMatrix::fromCsr(A).valueKind() == ValueKind::F32x64;
    for (const auto &K : Narrow) {
      SCOPED_TRACE(std::string(valueKindName(K.V)) + "/" +
                   colIndexKindName(K.I));
      CvrOptions Opts;
      Opts.Values = K.V;
      Opts.Indices = K.I;
      StatusOr<CvrMatrix> M = CvrMatrix::tryFromCsr(A, Opts);
      if (K.V == ValueKind::F32x64 && !Exact) {
        ASSERT_FALSE(M.ok());
        EXPECT_EQ(M.status().code(), StatusCode::InvalidArgument);
        continue;
      }
      ASSERT_TRUE(M.ok()) << M.status().toString();
      EXPECT_EQ(spmvOneThread(A, Opts), spmvOneThread(A, Wide));
    }
  }
}

TEST(CvrStreamKinds, DefaultBlobRoundTripsThroughBothReaders) {
  const CsrMatrix A = genStencil27(7, 7, 7);
  CvrOptions Opts;
  Opts.NumThreads = 1;
  CvrMatrix M = CvrMatrix::fromCsr(A, Opts);
  ASSERT_EQ(M.valueKind(), ValueKind::F32x64);
  ASSERT_EQ(M.colIndexKind(), ColIndexKind::U16Band);
  std::vector<double> X =
      randomVector(static_cast<std::size_t>(A.numCols()), 23);
  std::vector<double> Want(static_cast<std::size_t>(A.numRows()));
  cvrSpmv(M, X.data(), Want.data());

  auto ExpectSame = [&](const CvrMatrix &R, const char *Reader) {
    SCOPED_TRACE(Reader);
    EXPECT_EQ(R.valueKind(), ValueKind::F32x64);
    EXPECT_EQ(R.colIndexKind(), ColIndexKind::U16Band);
    EXPECT_EQ(R.formatBytes(), M.formatBytes());
    std::vector<double> Y(Want.size(), -1.0);
    cvrSpmv(R, X.data(), Y.data());
    EXPECT_EQ(Y, Want);
  };

  std::ostringstream Compact;
  ASSERT_TRUE(M.writeBlob(Compact).ok());
  std::istringstream IS(Compact.str());
  StatusOr<CvrMatrix> Read = CvrMatrix::readBlob(IS);
  ASSERT_TRUE(Read.ok()) << Read.status().toString();
  ExpectSame(*Read, "readBlob");

  std::ostringstream Mapped;
  ASSERT_TRUE(M.writeBlob(Mapped, BlobLayout::Mapped).ok());
  const std::string Bytes = Mapped.str();
  AlignedBuffer<char> Img(Bytes.size());
  std::memcpy(Img.data(), Bytes.data(), Bytes.size());
  StatusOr<CvrMatrix> Map = CvrMatrix::mapBlob(Img.data(), Img.size());
  ASSERT_TRUE(Map.ok()) << Map.status().toString();
  EXPECT_FALSE(Map->ownsStreams());
  ExpectSame(*Map, "mapBlob");
}

//===----------------------------------------------------------------------===//
// Conversion bytes: every plan's blob, pinned
//===----------------------------------------------------------------------===//

/// Random matrices (one of them fp32-exact), runs of empty rows, a dense
/// row that 3 and 8 chunks split, and 65,537 columns.
std::vector<CsrMatrix> pinnedInputs() {
  std::vector<CsrMatrix> In;
  In.push_back(randomCsr(200, 300, 0.03, 1));
  In.push_back(randomCsr(97, 64, 0.2, 2));
  In.push_back(roundedToFp32(randomCsr(400, 500, 0.01, 3)));
  CooMatrix Gaps(300, 240);
  for (std::int32_t R = 0; R < 300; R += 1 + R % 4)
    for (std::int32_t C = R % 7; C < 240; C += 11 + R % 5)
      Gaps.add(R, C, 0.5 * (C + 1));
  In.push_back(CsrMatrix::fromCoo(Gaps));
  CooMatrix DenseRow(40, 2000);
  for (std::int32_t R = 0; R < 40; ++R)
    for (std::int32_t C = R * 37 % 50; C < 2000; C += R == 5 ? 1 : 400)
      DenseRow.add(R, C, R + C * 0.25);
  In.push_back(CsrMatrix::fromCoo(DenseRow));
  In.push_back(wideMatrix(65537));
  return In;
}

TEST(CvrFormat, ConversionBytesArePinned) {
  // The CRC32C of every input's Compact blob, folded per plan over 1, 3
  // and 8 chunks: a change to the conversion's output, byte for byte,
  // shows up here. The bytes do not depend on the OpenMP team size.
  CvrOptions Block512, Block2048, NoSteal, SortFirst;
  Block512.ColBlockBytes = 512;
  Block2048.ColBlockBytes = 2048;
  NoSteal.EnableStealing = false;
  SortFirst.SortFeedRows = true;
  const struct {
    const char *Name;
    CvrOptions Opts;
    std::uint32_t Crc;
  } Plans[] = {{"default", {}, 0x9a837dbbu},
               {"f64/u32", f64u32(), 0x40d8ea8au},
               {"512 B bands", Block512, 0x1341d7d6u},
               {"2 KiB bands", Block2048, 0x38a36afau},
               {"stealing off", NoSteal, 0xdbc2a55eu},
               {"sort-first", SortFirst, 0xea7a8294u}};
  const std::vector<CsrMatrix> Inputs = pinnedInputs();
  for (const auto &P : Plans) {
    SCOPED_TRACE(P.Name);
    std::uint32_t Crc = 0;
    for (int Chunks : {1, 3, 8})
      for (std::size_t I = 0; I < Inputs.size(); ++I) {
        CvrOptions Opts = P.Opts;
        Opts.NumThreads = Chunks;
        std::string Bytes[2];
        for (int Team : {1, 4}) {
          test::ScopedOmpThreads Omp(Team);
          std::ostringstream OS;
          ASSERT_TRUE(CvrMatrix::fromCsr(Inputs[I], Opts).writeBlob(OS).ok());
          Bytes[Team == 4] = OS.str();
        }
        EXPECT_TRUE(Bytes[0] == Bytes[1])
            << "input " << I << ", " << Chunks << " chunks";
        Crc = crc32c(Bytes[0].data(), Bytes[0].size(), Crc);
      }
    EXPECT_EQ(Crc, P.Crc) << std::hex << "0x" << Crc;
  }
}

} // namespace
} // namespace cvr
