//===- tests/SupportTest.cpp - support/ library tests ---------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/AlignedBuffer.h"
#include "support/Crc32c.h"
#include "support/PrefixSum.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

namespace cvr {
namespace {

// --- AlignedBuffer --------------------------------------------------------

TEST(AlignedBuffer, DefaultIsEmpty) {
  AlignedBuffer<double> B;
  EXPECT_TRUE(B.empty());
  EXPECT_EQ(B.size(), 0u);
}

TEST(AlignedBuffer, StorageIs64ByteAligned) {
  for (std::size_t N : {1u, 7u, 64u, 1000u}) {
    AlignedBuffer<std::int32_t> B(N);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(B.data()) % 64, 0u);
  }
}

TEST(AlignedBuffer, ResizePreservesPrefix) {
  AlignedBuffer<int> B;
  for (int I = 0; I < 100; ++I)
    B.push_back(I);
  B.resize(1000, -1);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(B[I], I);
  for (int I = 100; I < 1000; ++I)
    EXPECT_EQ(B[I], -1);
}

TEST(AlignedBuffer, CopyAndMove) {
  AlignedBuffer<int> A(10, 3);
  AlignedBuffer<int> B = A; // copy
  EXPECT_EQ(B.size(), 10u);
  EXPECT_EQ(B[9], 3);
  B[0] = 7;
  EXPECT_EQ(A[0], 3) << "copy must be deep";

  AlignedBuffer<int> C = std::move(A);
  EXPECT_EQ(C.size(), 10u);
  EXPECT_EQ(A.size(), 0u);
}

TEST(AlignedBuffer, ZeroAndFill) {
  AlignedBuffer<double> B(17, 5.0);
  B.zero();
  for (double V : B)
    EXPECT_EQ(V, 0.0);
  B.fill(2.5);
  for (double V : B)
    EXPECT_EQ(V, 2.5);
}

TEST(AlignedBuffer, ShrinkKeepsData) {
  AlignedBuffer<int> B(100, 1);
  B.resize(5);
  EXPECT_EQ(B.size(), 5u);
  EXPECT_EQ(B[4], 1);
}

// --- Random ---------------------------------------------------------------

TEST(Random, Deterministic) {
  Xoshiro256 A(42), B(42);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, DifferentSeedsDiffer) {
  Xoshiro256 A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 3);
}

TEST(Random, BoundedStaysInRange) {
  Xoshiro256 Rng(7);
  for (std::uint64_t Bound : {1ULL, 2ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(Rng.nextBounded(Bound), Bound);
  }
}

TEST(Random, BoundedIsRoughlyUniform) {
  Xoshiro256 Rng(11);
  int Counts[10] = {};
  constexpr int N = 100000;
  for (int I = 0; I < N; ++I)
    ++Counts[Rng.nextBounded(10)];
  for (int C : Counts) {
    EXPECT_GT(C, N / 10 - N / 50);
    EXPECT_LT(C, N / 10 + N / 50);
  }
}

TEST(Random, DoubleInUnitInterval) {
  Xoshiro256 Rng(13);
  for (int I = 0; I < 1000; ++I) {
    double V = Rng.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

// --- Stats ------------------------------------------------------------------

TEST(Stats, MeanMedianBasics) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(mean({2.0, 4.0}), 3.0);
  EXPECT_EQ(median({5.0}), 5.0);
  EXPECT_EQ(median({1.0, 2.0, 3.0}), 2.0);
  EXPECT_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0) << "median must sort";
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
  EXPECT_EQ(geomean({}), 0.0);
  // Non-positive entries are skipped.
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0, 0.0, -3.0}), 4.0);
}

TEST(Stats, MinMaxStddev) {
  std::vector<double> Xs = {4.0, 1.0, 7.0};
  EXPECT_EQ(minOf(Xs), 1.0);
  EXPECT_EQ(maxOf(Xs), 7.0);
  EXPECT_NEAR(stddev({2.0, 4.0}), 1.0, 1e-12);
  EXPECT_EQ(stddev({5.0}), 0.0);
}

TEST(Stats, MedianWithInfinities) {
  double Inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(medianWithInfinities({1.0, 2.0, 3.0}), 2.0);
  EXPECT_EQ(medianWithInfinities({1.0, 2.0, Inf}), 2.0);
  EXPECT_EQ(medianWithInfinities({1.0, Inf, Inf}), Inf);
  // Even count with the upper-middle infinite -> infinite median.
  EXPECT_EQ(medianWithInfinities({1.0, 2.0, Inf, Inf}), Inf);
  EXPECT_EQ(medianWithInfinities({1.0, 2.0, 3.0, Inf}), 2.5);
  EXPECT_EQ(medianWithInfinities({}), 0.0);
}

// --- PrefixSum ---------------------------------------------------------------

TEST(PrefixSum, InPlace) {
  std::int64_t Xs[5] = {3, 1, 4, 1, 0};
  exclusivePrefixSum(Xs, 4);
  EXPECT_EQ(Xs[0], 0);
  EXPECT_EQ(Xs[1], 3);
  EXPECT_EQ(Xs[2], 4);
  EXPECT_EQ(Xs[3], 8);
  EXPECT_EQ(Xs[4], 9);
}

TEST(PrefixSum, OutOfPlace) {
  const int In[3] = {5, 7, 11};
  int Out[4];
  exclusivePrefixSum(In, Out, 3);
  EXPECT_EQ(Out[0], 0);
  EXPECT_EQ(Out[3], 23);
}

TEST(PrefixSum, EmptyRange) {
  std::int64_t Xs[1] = {99};
  exclusivePrefixSum(Xs, 0);
  EXPECT_EQ(Xs[0], 0);
}

// --- TextTable ----------------------------------------------------------------

TEST(TextTable, AlignsColumns) {
  TextTable T;
  T.setHeader({"name", "value"});
  T.addRow({"a", "1.00"});
  T.addRow({"longer", "23.50"});
  std::ostringstream OS;
  T.print(OS);
  std::string S = OS.str();
  EXPECT_NE(S.find("name"), std::string::npos);
  EXPECT_NE(S.find("23.50"), std::string::npos);
  // Numbers right-align: "1.00" is padded on the left.
  EXPECT_NE(S.find(" 1.00"), std::string::npos);
}

TEST(TextTable, CsvOutput) {
  TextTable T;
  T.setHeader({"a", "b"});
  T.addRow({"x", "y"});
  T.addSeparator(); // separators don't appear in CSV
  T.addRow({"z", "w"});
  std::ostringstream OS;
  T.printCsv(OS);
  EXPECT_EQ(OS.str(), "a,b\nx,y\nz,w\n");
}

TEST(TextTable, FmtInfinity) {
  EXPECT_EQ(TextTable::fmt(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::fmt(2.0, 0), "2");
}

// --- CRC-32C ----------------------------------------------------------------

/// The definition, one byte at a time and each byte one bit at a time, as
/// the reference the slicing-by-8 loop must reproduce.
std::uint32_t bytewiseCrc32c(const unsigned char *P, std::size_t Bytes,
                            std::uint32_t Seed) {
  std::uint32_t C = ~Seed;
  for (std::size_t I = 0; I < Bytes; ++I) {
    C ^= P[I];
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? (0x82F63B78u ^ (C >> 1)) : (C >> 1);
  }
  return ~C;
}

TEST(Crc32c, CheckValue) {
  // The catalogued CRC-32C check value of the nine ASCII digits.
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
}

TEST(Crc32c, MatchesBytewiseReference) {
  // Random lengths straddling the eight-byte rounds, random start offsets
  // (so the rounds meet every alignment), random seeds, and a split point
  // where the first call's result seeds the second.
  Xoshiro256 Rng(0xC3C3);
  std::vector<unsigned char> Buf(512 + 8);
  for (unsigned char &B : Buf)
    B = static_cast<unsigned char>(Rng.next());
  for (int Trial = 0; Trial < 500; ++Trial) {
    const std::size_t Off = Rng.nextBounded(8);
    const std::size_t Len = Rng.nextBounded(513);
    const auto Seed = static_cast<std::uint32_t>(Rng.next());
    const unsigned char *P = Buf.data() + Off;
    const std::uint32_t Want = bytewiseCrc32c(P, Len, Seed);
    EXPECT_EQ(crc32c(P, Len, Seed), Want)
        << "offset " << Off << " length " << Len;
    const std::size_t Split = Rng.nextBounded(Len + 1);
    EXPECT_EQ(crc32c(P + Split, Len - Split, crc32c(P, Split, Seed)), Want)
        << "offset " << Off << " length " << Len << " split " << Split;
  }
}

} // namespace
} // namespace cvr
