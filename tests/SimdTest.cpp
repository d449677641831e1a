//===- tests/SimdTest.cpp - SIMD abstraction tests ------------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "simd/Simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

namespace cvr {
namespace {

using simd::VecD8;
using simd::VecI16;

TEST(Simd, ZeroAndBroadcast) {
  alignas(64) double Buf[8];
  VecD8::zero().storeAligned(Buf);
  for (double V : Buf)
    EXPECT_EQ(V, 0.0);
  VecD8::broadcast(3.5).storeAligned(Buf);
  for (double V : Buf)
    EXPECT_EQ(V, 3.5);
}

TEST(Simd, LoadStoreRoundTrip) {
  alignas(64) double In[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  alignas(64) double Out[8];
  VecD8::loadAligned(In).storeAligned(Out);
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(Out[I], In[I]);
}

TEST(Simd, GatherPicksIndexedElements) {
  alignas(64) double Base[32];
  for (int I = 0; I < 32; ++I)
    Base[I] = 100.0 + I;
  alignas(64) std::int32_t Idx[16] = {0, 31, 2, 29, 4, 27, 6, 25,
                                      1, 3, 5, 7, 9, 11, 13, 15};
  VecI16 Cols = VecI16::loadAligned(Idx);
  // The halves spill back as loaded (the trace observer reads them so).
  std::int32_t Spilled[8];
  Cols.hi().storeu(Spilled);
  for (int K = 0; K < 8; ++K)
    EXPECT_EQ(Spilled[K], Idx[8 + K]) << "lane " << K;
  alignas(64) double Out[8];
  VecD8::gather(Base, Cols.lo()).storeAligned(Out);
  EXPECT_EQ(Out[0], 100.0);
  EXPECT_EQ(Out[1], 131.0);
  EXPECT_EQ(Out[7], 125.0);
  VecD8::gather(Base, Cols.hi()).storeAligned(Out);
  EXPECT_EQ(Out[0], 101.0);
  EXPECT_EQ(Out[7], 115.0);
}

TEST(Simd, FmaddMatchesScalar) {
  alignas(64) double A[8], B[8], C[8], Out[8];
  for (int I = 0; I < 8; ++I) {
    A[I] = 1.5 * I;
    B[I] = 2.0 - I;
    C[I] = 0.25 * I;
  }
  VecD8 Acc = VecD8::loadAligned(C).fmadd(VecD8::loadAligned(A),
                                          VecD8::loadAligned(B));
  Acc.storeAligned(Out);
  for (int I = 0; I < 8; ++I)
    EXPECT_DOUBLE_EQ(Out[I], C[I] + A[I] * B[I]);
}

TEST(Simd, AddMul) {
  alignas(64) double A[8], B[8], Out[8];
  for (int I = 0; I < 8; ++I) {
    A[I] = I;
    B[I] = 10.0;
  }
  VecD8::loadAligned(A).add(VecD8::loadAligned(B)).storeAligned(Out);
  EXPECT_EQ(Out[3], 13.0);
  VecD8::loadAligned(A).mul(VecD8::loadAligned(B)).storeAligned(Out);
  EXPECT_EQ(Out[3], 30.0);
}

TEST(Simd, ReduceAdd) {
  alignas(64) double A[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_DOUBLE_EQ(VecD8::loadAligned(A).reduceAdd(), 36.0);
  EXPECT_DOUBLE_EQ(VecD8::zero().reduceAdd(), 0.0);
}

TEST(Simd, SpillReloadRoundTrip) {
  alignas(64) double In[8] = {-1, 2, -3, 4, -5, 6, -7, 8};
  alignas(64) double Spill[8];
  VecD8 V = VecD8::loadAligned(In);
  V.toArray(Spill);
  Spill[3] = 99.0;
  alignas(64) double Out[8];
  VecD8::loadAligned(Spill).storeAligned(Out);
  EXPECT_EQ(Out[3], 99.0);
  EXPECT_EQ(Out[0], -1.0);
}

TEST(Simd, CompressStoreAndClearLanesFollowTheMask) {
  alignas(64) double In[8] = {10, 11, 12, 13, 14, 15, 16, 17};
  const VecD8 V = VecD8::loadAligned(In);
  for (unsigned Mask : {0x00U, 0x01U, 0x80U, 0x5AU, 0xFFU}) {
    // Selected lanes land in lane order; the count is the popcount.
    double Out[8];
    std::fill(std::begin(Out), std::end(Out), -1.0);
    const int N = V.compressStoreu(Out, Mask);
    int Want = 0;
    for (int K = 0; K < 8; ++K)
      if (Mask & (1U << K))
        EXPECT_EQ(Out[Want++], In[K]) << "mask " << Mask << " lane " << K;
    EXPECT_EQ(N, Want) << "mask " << Mask;

    // Cleared lanes read zero, the others keep their value.
    alignas(64) double Kept[8];
    V.clearLanes(Mask).storeAligned(Kept);
    for (int K = 0; K < 8; ++K)
      EXPECT_EQ(Kept[K], (Mask & (1U << K)) ? 0.0 : In[K])
          << "mask " << Mask << " lane " << K;
  }
}

TEST(Simd, LaneCountIs8ForDoubles) {
  EXPECT_EQ(simd::DoubleLanes, 8);
}

} // namespace
} // namespace cvr
