//===- tests/MmapBlobTest.cpp - Zero-copy mapped-blob guarantees ----------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The Mapped (v4) blob layout promises two things at once, and this suite
// holds it to both:
//
//  * **Genuinely zero-copy**: `CvrMatrix::mapBlob` aliases the value /
//    column-index / tail streams into the caller's image — verified by
//    pointer-range checks and by the binary-wide allocation audit (the
//    operator-new counters SolversTest installs).
//  * **Adversarially safe**: every truncation and every single-bit flip of
//    a valid blob is rejected before any kernel touches the bytes — the
//    same sweep SerializeCorruptionTest runs against the v3 stream reader,
//    here against the in-memory mapped reader. A file that shrinks under
//    an established mapping (the classic mmap trap) surfaces as DATA_LOSS
//    through the SIGBUS guard, not as a crash.
//
//===----------------------------------------------------------------------===//

#include "analysis/InvariantChecker.h"
#include "core/Cvr.h"
#include "io/MmapFile.h"
#include "matrix/Reference.h"

#include "TestUtil.h"
#include "gtest/gtest.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include <unistd.h>

namespace cvr {
namespace {

/// A valid Mapped-layout blob for a deterministic random matrix, plus the
/// source CSR for reference checks.
struct BlobFixture {
  CsrMatrix A;
  std::string Blob;
};

BlobFixture makeBlob(std::int32_t Rows, std::int32_t Cols, double Density,
                     std::uint64_t Seed) {
  BlobFixture F;
  F.A = test::randomCsr(Rows, Cols, Density, Seed);
  CvrMatrix M = CvrMatrix::fromCsr(F.A);
  std::ostringstream OS;
  Status S = M.writeBlob(OS, BlobLayout::Mapped);
  EXPECT_TRUE(S.ok()) << S.toString();
  F.Blob = OS.str();
  return F;
}

/// 64-byte-aligned copy of \p Bytes (mapBlob requires an aligned base, as
/// mmap naturally provides).
struct AlignedImage {
  explicit AlignedImage(const std::string &Bytes)
      : Size(Bytes.size()),
        Base(static_cast<char *>(
            std::aligned_alloc(64, (Bytes.size() + 63) / 64 * 64))) {
    std::memcpy(Base, Bytes.data(), Bytes.size());
  }
  ~AlignedImage() { std::free(Base); }
  AlignedImage(const AlignedImage &) = delete;
  AlignedImage &operator=(const AlignedImage &) = delete;

  std::size_t Size;
  char *Base;
};

bool pointsInto(const void *P, const AlignedImage &Img) {
  const char *C = static_cast<const char *>(P);
  return C >= Img.Base && C < Img.Base + Img.Size;
}

TEST(MmapBlobTest, MappedStreamsAliasTheImage) {
  BlobFixture F = makeBlob(96, 96, 0.1, 7);
  AlignedImage Img(F.Blob);

  StatusOr<CvrMatrix> R = CvrMatrix::mapBlob(Img.Base, Img.Size);
  ASSERT_TRUE(R.ok()) << R.status().toString();
  const CvrMatrix &M = *R;

  // The big streams, of whichever kinds the conversion stored, alias the
  // image; nothing was copied.
  const void *Vals = M.valueKind() == ValueKind::F32x64
                         ? static_cast<const void *>(M.vals32())
                         : M.vals();
  const void *Cols = M.colIndexKind() == ColIndexKind::U16Band
                         ? static_cast<const void *>(M.colIdx16())
                         : M.colIdx();
  EXPECT_FALSE(M.ownsStreams());
  EXPECT_TRUE(pointsInto(Vals, Img));
  EXPECT_TRUE(pointsInto(Cols, Img));
  EXPECT_TRUE(pointsInto(M.tails(), Img));
  // And they kept the alignment the AVX-512 kernels load with.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(Vals) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(Cols) % 64, 0u);

  // The mapped matrix computes the same answer as the scalar reference.
  std::vector<double> X =
      test::randomVector(static_cast<std::size_t>(M.numCols()), 3);
  std::vector<double> Y(static_cast<std::size_t>(M.numRows()), 0.0);
  cvrSpmv(M, X.data(), Y.data());
  std::vector<double> Ref = referenceSpmv(F.A, X);
  EXPECT_LE(maxRelDiff(Ref, Y), test::SpmvTolerance);
}

TEST(MmapBlobTest, MapBlobAllocationAudit) {
  // Big enough that the value stream dwarfs the copied metadata tables.
  BlobFixture F = makeBlob(512, 512, 0.25, 11);
  AlignedImage Img(F.Blob);
  const auto ValueStreamBytes =
      static_cast<std::size_t>(F.A.numNonZeros()) * sizeof(double);
  ASSERT_GT(ValueStreamBytes, 400u * 1024);

  // Sanity: the audit is live — the copying reader allocates at least the
  // value stream.
  std::size_t Before = test::globalAllocBytes();
  {
    std::istringstream IS(F.Blob);
    StatusOr<CvrMatrix> Copied = CvrMatrix::readBlob(IS);
    ASSERT_TRUE(Copied.ok()) << Copied.status().toString();
    EXPECT_TRUE(Copied->ownsStreams());
  }
  EXPECT_GE(test::globalAllocBytes() - Before, ValueStreamBytes);

  // The mapped path must not allocate anywhere near the stream sizes:
  // only the small metadata tables are copied.
  Before = test::globalAllocBytes();
  {
    StatusOr<CvrMatrix> Mapped = CvrMatrix::mapBlob(Img.Base, Img.Size);
    ASSERT_TRUE(Mapped.ok()) << Mapped.status().toString();
  }
  EXPECT_LT(test::globalAllocBytes() - Before, ValueStreamBytes);
}

TEST(MmapBlobTest, RejectsUnalignedBase) {
  BlobFixture F = makeBlob(32, 32, 0.15, 13);
  AlignedImage Img(F.Blob + '\0'); // One spare byte for the offset base.
  StatusOr<CvrMatrix> R = CvrMatrix::mapBlob(Img.Base + 1, F.Blob.size());
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::FailedPrecondition);
}

TEST(MmapBlobTest, RejectsCompactLayout) {
  // A v3 blob is valid for readBlob but FAILED_PRECONDITION for mapBlob —
  // the signal that tells loaders to fall back to the copying reader.
  CsrMatrix A = test::randomCsr(32, 32, 0.15, 17);
  CvrMatrix M = CvrMatrix::fromCsr(A);
  std::ostringstream OS;
  ASSERT_TRUE(M.writeBlob(OS, BlobLayout::Compact).ok());
  AlignedImage Img(OS.str());
  StatusOr<CvrMatrix> R = CvrMatrix::mapBlob(Img.Base, Img.Size);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::FailedPrecondition);

  std::istringstream IS(OS.str());
  EXPECT_TRUE(CvrMatrix::readBlob(IS).ok());
}

TEST(MmapBlobTest, EveryTruncationRejected) {
  BlobFixture F = makeBlob(24, 24, 0.2, 19);
  AlignedImage Img(F.Blob);
  for (std::size_t Len = 0; Len < Img.Size; ++Len) {
    StatusOr<CvrMatrix> R = CvrMatrix::mapBlob(Img.Base, Len);
    EXPECT_FALSE(R.ok()) << "truncation to " << Len << " of " << Img.Size
                         << " bytes was accepted";
  }
  EXPECT_TRUE(CvrMatrix::mapBlob(Img.Base, Img.Size).ok());
}

TEST(MmapBlobTest, EveryBitflipRejected) {
  BlobFixture F = makeBlob(24, 24, 0.2, 23);
  AlignedImage Img(F.Blob);
  ASSERT_TRUE(CvrMatrix::mapBlob(Img.Base, Img.Size).ok());
  for (std::size_t Byte = 0; Byte < Img.Size; ++Byte) {
    for (int Bit = 0; Bit < 8; ++Bit) {
      Img.Base[Byte] ^= static_cast<char>(1 << Bit);
      StatusOr<CvrMatrix> R = CvrMatrix::mapBlob(Img.Base, Img.Size);
      EXPECT_FALSE(R.ok()) << "flip of bit " << Bit << " in byte " << Byte
                           << " was accepted";
      Img.Base[Byte] ^= static_cast<char>(1 << Bit);
    }
  }
  EXPECT_TRUE(CvrMatrix::mapBlob(Img.Base, Img.Size).ok());
}

TEST(MmapBlobTest, NonzeroPadByteRejected) {
  BlobFixture F = makeBlob(24, 24, 0.2, 29);
  AlignedImage Img(F.Blob);
  // First section: magic(4) + version(4) + header(27) + headerCrc(4) = 39,
  // then u64 count and the u8 padLen at offset 47; its pad bytes start at
  // 48 and must run to the next 64-byte boundary, so at least one exists.
  ASSERT_GT(static_cast<unsigned>(Img.Base[47]), 0u);
  Img.Base[48] = 1;
  StatusOr<CvrMatrix> R = CvrMatrix::mapBlob(Img.Base, Img.Size);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::DataLoss);
  EXPECT_NE(R.status().message().find("pad"), std::string::npos)
      << R.status().message();
}

TEST(MmapBlobTest, InvariantCheckerCoversMappedImages) {
  BlobFixture F = makeBlob(48, 48, 0.15, 31);
  AlignedImage Img(F.Blob);
  EXPECT_TRUE(analysis::InvariantChecker::checkBlob(Img.Base, Img.Size)
                  .empty());

  Img.Base[Img.Size / 2] ^= 0x10;
  auto Vs = analysis::InvariantChecker::checkBlob(Img.Base, Img.Size);
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].Rule.rfind("cvr.blob.", 0), 0u) << Vs[0].Rule;
}

// ASan/TSan install their own SIGBUS machinery; the guard is exercised in
// the plain build (and the serving drill) only.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
TEST(MmapBlobTest, TruncatedFileSurfacesAsDataLossNotACrash) {
  // Blob comfortably larger than one page, written to a real file.
  BlobFixture F = makeBlob(256, 256, 0.25, 37);
  ASSERT_GT(F.Blob.size(), 8192u);
  std::string Path = test::uniqueTempPath(".cvr");
  {
    std::ofstream OS(Path, std::ios::binary);
    OS.write(F.Blob.data(), static_cast<std::streamsize>(F.Blob.size()));
  }

  StatusOr<io::MmapFile> MapR = io::MmapFile::open(Path);
  ASSERT_TRUE(MapR.ok()) << MapR.status().toString();
  io::MmapFile Map = std::move(*MapR);
  // The file shrinks *under* the established mapping: pages past the new
  // end now raise SIGBUS on first touch.
  ASSERT_EQ(truncate(Path.c_str(), 4096), 0);

  Status S = io::withSigbusGuard("truncated blob", [&] {
    auto Vs = analysis::InvariantChecker::checkBlob(Map.data(), Map.size());
    return Vs.empty() ? Status::okStatus()
                      : Status::dataLoss(Vs[0].Message);
  });
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::DataLoss) << S.toString();
  (void)std::remove(Path.c_str());
}
#endif

} // namespace
} // namespace cvr
