//===- tests/SerializeCorruptionTest.cpp - Blob integrity under attack ----===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Adversarial coverage of the CVR blob reader: every truncation point,
// every single-bit flip, and hostile section counts must come back as a
// non-OK Status — never a crash, never a silently wrong matrix. The suite
// runs under ASan/UBSan in CI, so any out-of-bounds read an accepted
// mutation would cause is fatal there. readBlob (stream) and mapBlob
// (mapped image) share one decoder, so on a Mapped blob they must also
// agree on the code and rule id of every rejection.
//
//===----------------------------------------------------------------------===//

#include "core/CvrFormat.h"

#include "TestUtil.h"
#include "analysis/InvariantChecker.h"
#include "support/AlignedBuffer.h"
#include "support/Crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

namespace cvr {
namespace {

// v3 fixed offsets: magic[0,4) version[4,8) header[8,35) crc[35,39).
constexpr std::size_t VersionOff = 4;
constexpr std::size_t HeaderOff = 8;
constexpr std::size_t FirstSectionOff = 39;

/// Element sizes of the seven v3 sections, in writer order.
constexpr std::size_t SectionElemSize[7] = {
    sizeof(CvrChunk),    // chunk table
    sizeof(CvrBand),     // band table
    sizeof(std::int32_t), // zero-row list
    sizeof(CvrRecord),   // record stream
    sizeof(std::int32_t), // tail table
    sizeof(double),      // value stream
    sizeof(std::int32_t), // column-index stream
};

/// The paper's uncompressed layout: 8-byte values, 4-byte indices (the
/// element widths above). The default conversion would narrow the indices.
CvrMatrix makeCvr() {
  CsrMatrix A = test::randomCsr(24, 24, 0.2, 7);
  CvrOptions Opts;
  Opts.NumThreads = 4;
  Opts.Values = ValueKind::F64;
  Opts.Indices = ColIndexKind::U32;
  return CvrMatrix::fromCsr(A, Opts);
}

std::string blobOf(const CvrMatrix &M) {
  std::ostringstream OS;
  Status S = M.writeBlob(OS);
  EXPECT_TRUE(S.ok()) << S.toString();
  return OS.str();
}

std::string mappedBlobOf(const CvrMatrix &M) {
  std::ostringstream OS;
  Status S = M.writeBlob(OS, BlobLayout::Mapped);
  EXPECT_TRUE(S.ok()) << S.toString();
  return OS.str();
}

/// A 64-byte-aligned copy of \p Bytes, as mapBlob requires.
AlignedBuffer<char> alignedImage(const std::string &Bytes) {
  AlignedBuffer<char> Img;
  Img.resize(Bytes.size());
  if (!Bytes.empty())
    std::memcpy(Img.data(), Bytes.data(), Bytes.size());
  return Img;
}

StatusOr<CvrMatrix> readFrom(const std::string &Bytes) {
  std::istringstream IS(Bytes);
  return CvrMatrix::readBlob(IS);
}

std::uint64_t getU64(const std::string &B, std::size_t Off) {
  std::uint64_t V = 0;
  std::memcpy(&V, B.data() + Off, sizeof(V));
  return V;
}

void putU64(std::string &B, std::size_t Off, std::uint64_t V) {
  std::memcpy(&B[Off], &V, sizeof(V));
}

/// Byte offset of section \p Idx's count word, derived from the blob
/// itself (count | payload | crc per section).
std::size_t sectionCountOffset(const std::string &B, int Idx) {
  std::size_t Off = FirstSectionOff;
  for (int I = 0; I < Idx; ++I)
    Off += 8 + getU64(B, Off) * SectionElemSize[I] + 4;
  return Off;
}

/// The same for a Mapped (v4) blob, whose sections carry a pad-length
/// byte and that many pad bytes between the count and the payload.
std::size_t mappedSectionCountOffset(const std::string &B, int Idx) {
  std::size_t Off = FirstSectionOff;
  for (int I = 0; I < Idx; ++I)
    Off += 8 + 1 + static_cast<unsigned char>(B[Off + 8]) +
           getU64(B, Off) * SectionElemSize[I] + 4;
  return Off;
}

TEST(SerializeCorruption, RoundTripV3Identical) {
  CvrMatrix M = makeCvr();
  std::string Blob = blobOf(M);
  StatusOr<CvrMatrix> R = readFrom(Blob);
  ASSERT_TRUE(R.ok()) << R.status().toString();
  EXPECT_EQ(R->numRows(), M.numRows());
  EXPECT_EQ(R->numNonZeros(), M.numNonZeros());
  EXPECT_TRUE(R->isValid());
  EXPECT_EQ(blobOf(*R), Blob); // byte-for-byte stable
}

TEST(SerializeCorruption, EmptyAndShortInputsRejected) {
  EXPECT_FALSE(readFrom("").ok());
  EXPECT_EQ(readFrom("").status().code(), StatusCode::DataLoss);
  EXPECT_FALSE(readFrom("CV").ok());
  EXPECT_NE(readFrom("CV").status().message().find("cvr.blob.truncated"),
            std::string::npos);
}

TEST(SerializeCorruption, BadMagicRejected) {
  std::string Blob = blobOf(makeCvr());
  Blob[0] = 'X';
  StatusOr<CvrMatrix> R = readFrom(Blob);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::DataLoss);
  EXPECT_NE(R.status().message().find("cvr.blob.magic"), std::string::npos);
}

TEST(SerializeCorruption, UnsupportedVersionRejected) {
  // Only v3 (Compact) and v4 (Mapped) are read; the checksum-less v1/v2
  // layouts are rejected like any unknown version.
  const std::string Blob = blobOf(makeCvr());
  for (std::uint32_t V : {0u, 1u, 2u, 5u, 99u}) {
    std::string Mut = Blob;
    std::memcpy(&Mut[VersionOff], &V, 4);
    StatusOr<CvrMatrix> R = readFrom(Mut);
    ASSERT_FALSE(R.ok()) << "version " << V << " was accepted";
    EXPECT_EQ(R.status().code(), StatusCode::InvalidArgument) << V;
    EXPECT_NE(R.status().message().find("cvr.blob.version"),
              std::string::npos)
        << R.status().message();
  }
}

TEST(SerializeCorruption, HeaderCorruptionCaughtByCrc) {
  std::string Blob = blobOf(makeCvr());
  Blob[HeaderOff + 2] ^= 0xFF; // inside NumRows
  StatusOr<CvrMatrix> R = readFrom(Blob);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::DataLoss);
  EXPECT_NE(R.status().message().find("cvr.blob.header-crc"),
            std::string::npos);
}

TEST(SerializeCorruption, EveryTruncationRejected) {
  std::string Blob = blobOf(makeCvr());
  for (std::size_t L = 0; L < Blob.size(); ++L) {
    StatusOr<CvrMatrix> R = readFrom(Blob.substr(0, L));
    EXPECT_FALSE(R.ok()) << "prefix of " << L << " of " << Blob.size()
                         << " bytes was accepted";
  }
}

TEST(SerializeCorruption, EveryBitFlipRejected) {
  std::string Blob = blobOf(makeCvr());
  for (std::size_t I = 0; I < Blob.size(); ++I) {
    std::string Mut = Blob;
    Mut[I] = static_cast<char>(Mut[I] ^ (1 << (I % 8)));
    StatusOr<CvrMatrix> R = readFrom(Mut);
    EXPECT_FALSE(R.ok()) << "bit " << (I % 8) << " of byte " << I
                         << " flipped without detection";
  }
}

TEST(SerializeCorruption, HostileChunkCountRejectedBeforeAllocation) {
  std::string Blob = blobOf(makeCvr());
  putU64(Blob, FirstSectionOff, ~0ULL);
  StatusOr<CvrMatrix> R = readFrom(Blob);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::OutOfRange);
  EXPECT_NE(R.status().message().find("cvr.blob.bounds"), std::string::npos);
}

TEST(SerializeCorruption, HostileNnzCannotInflateRecordBound) {
  // The record bound grows with the header's Nnz. A CRC-consistent header
  // declaring an absurd Nnz must still leave the record count capped by
  // the stream ceiling: rejected OUT_OF_RANGE, not a vector length error.
  std::string Blob = blobOf(makeCvr());
  const std::int64_t Nnz = std::int64_t(1) << 62;
  std::memcpy(&Blob[HeaderOff + 8], &Nnz, sizeof(Nnz));
  std::uint32_t Crc = crc32c(Blob.data() + HeaderOff, 27);
  std::memcpy(&Blob[FirstSectionOff - 4], &Crc, sizeof(Crc));
  putU64(Blob, sectionCountOffset(Blob, 3), 1ULL << 61); // record stream
  StatusOr<CvrMatrix> R = readFrom(Blob);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::OutOfRange);
  EXPECT_NE(R.status().message().find("cvr.blob.bounds"), std::string::npos)
      << R.status().message();

  // The same hostile header on the Mapped layout, decoded in place the way
  // the serving daemon loads it: N * sizeof(CvrRecord) must not wrap into
  // an accepted section.
  std::string Mapped = mappedBlobOf(makeCvr());
  std::memcpy(&Mapped[HeaderOff + 8], &Nnz, sizeof(Nnz));
  std::uint32_t MappedCrc = crc32c(Mapped.data() + HeaderOff, 27);
  std::memcpy(&Mapped[FirstSectionOff - 4], &MappedCrc, sizeof(MappedCrc));
  putU64(Mapped, mappedSectionCountOffset(Mapped, 3), 1ULL << 61);
  AlignedBuffer<char> Img = alignedImage(Mapped);
  StatusOr<CvrMatrix> MR = CvrMatrix::mapBlob(Img.data(), Mapped.size());
  ASSERT_FALSE(MR.ok());
  EXPECT_EQ(MR.status().code(), StatusCode::OutOfRange);
  EXPECT_NE(MR.status().message().find("cvr.blob.bounds"), std::string::npos)
      << MR.status().message();
}

/// Rewrites header field bytes [Off, Off + N) and re-seals the header CRC,
/// so the decoder's field checks, not the checksum, see the change.
void patchHeader(std::string &Blob, std::size_t Off, const void *Bytes,
                 std::size_t N) {
  std::memcpy(&Blob[HeaderOff + Off], Bytes, N);
  std::uint32_t Crc = crc32c(Blob.data() + HeaderOff, 27);
  std::memcpy(&Blob[FirstSectionOff - 4], &Crc, sizeof(Crc));
}

TEST(SerializeCorruption, LaneCountOtherThanEightIsOutOfRange) {
  // The lanes field (header offset 16) must equal CvrMatrix::lanes(): a
  // CRC-valid blob that declares 4 lanes is rejected, on both layouts.
  const std::int32_t Four = 4;
  std::string Blob = blobOf(makeCvr());
  patchHeader(Blob, 16, &Four, sizeof(Four));
  StatusOr<CvrMatrix> R = readFrom(Blob);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::OutOfRange);
  EXPECT_NE(R.status().message().find("[cvr.blob.bounds] lane count 4"),
            std::string::npos)
      << R.status().message();

  std::string Mapped = mappedBlobOf(makeCvr());
  patchHeader(Mapped, 16, &Four, sizeof(Four));
  AlignedBuffer<char> Img = alignedImage(Mapped);
  StatusOr<CvrMatrix> MR = CvrMatrix::mapBlob(Img.data(), Mapped.size());
  ASSERT_FALSE(MR.ok());
  EXPECT_EQ(MR.status().code(), StatusCode::OutOfRange);
}

TEST(SerializeCorruption, ReservedHeaderByteIsIgnored) {
  // The byte after the lanes field is reserved: any value loads the same
  // matrix, which writes the byte back as 0.
  const CvrMatrix M = makeCvr();
  std::string Blob = blobOf(M);
  const std::uint8_t One = 1;
  patchHeader(Blob, 20, &One, sizeof(One));
  StatusOr<CvrMatrix> R = readFrom(Blob);
  ASSERT_TRUE(R.ok()) << R.status().toString();
  EXPECT_EQ(blobOf(*R), blobOf(M));
}

TEST(SerializeCorruption, InflatedValsCountFailsExactBound) {
  std::string Blob = blobOf(makeCvr());
  std::size_t Off = sectionCountOffset(Blob, 5); // value stream
  putU64(Blob, Off, getU64(Blob, Off) + 1);
  StatusOr<CvrMatrix> R = readFrom(Blob);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::OutOfRange);
  EXPECT_NE(R.status().message().find("structural requirement"),
            std::string::npos);
}

TEST(SerializeCorruption, SectionPayloadFlipAttributedToCrc) {
  std::string Blob = blobOf(makeCvr());
  std::size_t Off = sectionCountOffset(Blob, 5) + 8; // first value byte
  ASSERT_GT(getU64(Blob, sectionCountOffset(Blob, 5)), 0u);
  Blob[Off + 3] ^= 0x10;
  StatusOr<CvrMatrix> R = readFrom(Blob);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::DataLoss);
  EXPECT_NE(R.status().message().find("cvr.blob.section-crc"),
            std::string::npos);
}

/// Same matrix built with both compressed stream kinds: a 4-byte value
/// stream and a 2-byte column-index stream. The byte-level defences must
/// hold at these element widths too — the section CRCs cover the payloads
/// regardless of the kinds the header declares.
CvrMatrix makeCompressedCvr() {
  CsrMatrix A = test::randomCsr(24, 24, 0.2, 7);
  CvrOptions Opts;
  Opts.NumThreads = 4;
  Opts.Values = ValueKind::F32x64;
  Opts.Indices = ColIndexKind::U16Band;
  return CvrMatrix::fromCsr(A, Opts);
}

TEST(SerializeCorruption, CompressedRoundTripKeepsKinds) {
  CvrMatrix M = makeCompressedCvr();
  ASSERT_EQ(M.valueKind(), ValueKind::F32x64);
  ASSERT_EQ(M.colIndexKind(), ColIndexKind::U16Band);
  std::string Blob = blobOf(M);
  StatusOr<CvrMatrix> R = readFrom(Blob);
  ASSERT_TRUE(R.ok()) << R.status().toString();
  EXPECT_EQ(R->valueKind(), ValueKind::F32x64);
  EXPECT_EQ(R->colIndexKind(), ColIndexKind::U16Band);
  EXPECT_EQ(R->numNonZeros(), M.numNonZeros());
  EXPECT_TRUE(R->isValid());
  EXPECT_EQ(blobOf(*R), Blob); // byte-for-byte stable
}

TEST(SerializeCorruption, CompressedEveryTruncationRejected) {
  std::string Blob = blobOf(makeCompressedCvr());
  for (std::size_t L = 0; L < Blob.size(); ++L)
    EXPECT_FALSE(readFrom(Blob.substr(0, L)).ok())
        << "compressed prefix of " << L << " of " << Blob.size()
        << " bytes was accepted";
}

TEST(SerializeCorruption, CompressedEveryBitFlipRejected) {
  std::string Blob = blobOf(makeCompressedCvr());
  for (std::size_t I = 0; I < Blob.size(); ++I) {
    std::string Mut = Blob;
    Mut[I] = static_cast<char>(Mut[I] ^ (1 << (I % 8)));
    EXPECT_FALSE(readFrom(Mut).ok())
        << "bit " << (I % 8) << " of compressed byte " << I
        << " flipped without detection";
  }
}

TEST(SerializeCorruption, CompressedMappedEveryBitFlipRejected) {
  // The mmap-executable v4 layout carries the same kind bytes plus
  // per-stream alignment padding; every flipped bit must still land on a
  // checksummed region or a validated field.
  CvrMatrix M = makeCompressedCvr();
  std::ostringstream OS;
  Status S = M.writeBlob(OS, BlobLayout::Mapped);
  ASSERT_TRUE(S.ok()) << S.toString();
  const std::string Blob = OS.str();
  {
    StatusOr<CvrMatrix> R = readFrom(Blob);
    ASSERT_TRUE(R.ok()) << R.status().toString();
    EXPECT_EQ(R->valueKind(), ValueKind::F32x64);
    EXPECT_EQ(R->colIndexKind(), ColIndexKind::U16Band);
  }
  for (std::size_t I = 0; I < Blob.size(); ++I) {
    std::string Mut = Blob;
    Mut[I] = static_cast<char>(Mut[I] ^ (1 << (I % 8)));
    EXPECT_FALSE(readFrom(Mut).ok())
        << "bit " << (I % 8) << " of mapped byte " << I
        << " flipped without detection";
  }
}

/// Validates \p Bytes through both checkBlob overloads: the stream one
/// (readBlob) and, from a 64-byte-aligned copy, the image one (mapBlob).
/// Succeeds when both accept, or both report the same first rule with the
/// same status code; \p MustReject additionally fails the case where both
/// accept.
::testing::AssertionResult readersAgree(const std::string &Bytes,
                                        bool MustReject) {
  using analysis::InvariantChecker;
  AlignedBuffer<char> Img = alignedImage(Bytes);
  std::istringstream IS(Bytes);
  std::vector<analysis::Violation> Read = InvariantChecker::checkBlob(IS);
  std::vector<analysis::Violation> Mapped =
      InvariantChecker::checkBlob(Img.data(), Bytes.size());
  if (Read.empty() && Mapped.empty())
    return MustReject ? ::testing::AssertionFailure() << "both readers accept"
                      : ::testing::AssertionSuccess();
  // A decode violation's message leads with the status code name.
  auto CodeOf = [](const analysis::Violation &V) {
    return V.Message.substr(0, V.Message.find(':'));
  };
  if (Read.empty() || Mapped.empty() || Read[0].Rule != Mapped[0].Rule ||
      CodeOf(Read[0]) != CodeOf(Mapped[0]))
    return ::testing::AssertionFailure()
           << "readBlob: " << analysis::formatViolations(Read)
           << " / mapBlob: " << analysis::formatViolations(Mapped);
  return ::testing::AssertionSuccess();
}

TEST(SerializeCorruption, MappedReadersAgreeOnEveryMutation) {
  for (bool Compressed : {false, true}) {
    CvrMatrix M = Compressed ? makeCompressedCvr() : makeCvr();
    ASSERT_EQ(M.valueKind(),
              Compressed ? ValueKind::F32x64 : ValueKind::F64);
    ASSERT_EQ(M.colIndexKind(),
              Compressed ? ColIndexKind::U16Band : ColIndexKind::U32);
    const std::string Blob = mappedBlobOf(M);
    ASSERT_TRUE(readFrom(Blob).ok());
    ASSERT_TRUE(readersAgree(Blob, /*MustReject=*/false));

    for (std::size_t L = 0; L < Blob.size(); ++L)
      EXPECT_TRUE(readersAgree(Blob.substr(0, L), /*MustReject=*/true))
          << "compressed=" << Compressed << ", prefix of " << L << " of "
          << Blob.size() << " bytes";
    std::string Mut = Blob;
    for (std::size_t I = 0; I < Mut.size(); ++I)
      for (int Bit = 0; Bit < 8; ++Bit) {
        Mut[I] = static_cast<char>(Mut[I] ^ (1 << Bit));
        EXPECT_TRUE(readersAgree(Mut, /*MustReject=*/true))
            << "compressed=" << Compressed << ", bit " << Bit << " of byte "
            << I;
        Mut[I] = static_cast<char>(Mut[I] ^ (1 << Bit));
      }
  }
}

TEST(SerializeCorruption, RecordPositionsOffTheMaskRejectedByBothReaders) {
  // The 8-lane kernel writes back through per-step finish masks built from
  // the record positions, so each position must own one mask bit: strictly
  // increasing within a chunk, and below (NumSteps + 1) * Lanes. A
  // CRC-consistent blob that breaks either rule must fail the structural
  // check on readBlob and mapBlob alike, under the same rule.
  CvrMatrix M = makeCvr();
  const CvrChunk *C = nullptr;
  for (const CvrChunk &Ch : M.chunks())
    if (Ch.RecEnd - Ch.RecBase >= 2) {
      C = &Ch;
      break;
    }
  ASSERT_NE(C, nullptr) << "no chunk with two records";
  const std::int64_t Dup = C->RecBase + 1;
  const struct {
    const char *What;
    std::int64_t Rec;
    std::int64_t Pos;
  } Cases[] = {
      {"two records at one position", Dup, M.recs()[Dup - 1].Pos},
      {"a record past the trailing step", C->RecEnd - 1,
       (C->NumSteps + 1) * M.lanes() + 3},
  };

  // Rewrites one record's position and the record section's CRC.
  auto Patch = [](std::string &B, std::size_t CountOff, std::size_t Payload,
                  std::int64_t Rec, std::int64_t Pos) {
    const std::size_t Bytes = getU64(B, CountOff) * sizeof(CvrRecord);
    std::memcpy(&B[Payload + Rec * sizeof(CvrRecord)], &Pos, sizeof(Pos));
    const std::uint32_t Crc = crc32c(B.data() + Payload, Bytes);
    std::memcpy(&B[Payload + Bytes], &Crc, sizeof(Crc));
  };

  for (const auto &Case : Cases) {
    std::string Compact = blobOf(M);
    const std::size_t COff = sectionCountOffset(Compact, 3);
    Patch(Compact, COff, COff + 8, Case.Rec, Case.Pos);
    std::string Mapped = mappedBlobOf(M);
    const std::size_t MOff = mappedSectionCountOffset(Mapped, 3);
    Patch(Mapped, MOff,
          MOff + 8 + 1 + static_cast<unsigned char>(Mapped[MOff + 8]),
          Case.Rec, Case.Pos);

    AlignedBuffer<char> Img = alignedImage(Mapped);
    const StatusOr<CvrMatrix> Results[] = {
        readFrom(Compact), readFrom(Mapped),
        CvrMatrix::mapBlob(Img.data(), Mapped.size())};
    for (const StatusOr<CvrMatrix> &R : Results) {
      ASSERT_FALSE(R.ok()) << Case.What;
      EXPECT_EQ(R.status().code(), StatusCode::DataLoss) << Case.What;
      EXPECT_NE(R.status().message().find("cvr.blob.integrity"),
                std::string::npos)
          << Case.What << ": " << R.status().message();
    }
    EXPECT_TRUE(readersAgree(Mapped, /*MustReject=*/true)) << Case.What;
  }
}

TEST(SerializeCorruption, CheckBlobAttributesRules) {
  std::string Blob = blobOf(makeCvr());
  {
    std::istringstream IS(Blob);
    EXPECT_TRUE(analysis::InvariantChecker::checkBlob(IS).empty());
  }
  {
    std::string Bad = Blob;
    Bad[0] = 'X';
    std::istringstream IS(Bad);
    auto Vs = analysis::InvariantChecker::checkBlob(IS);
    ASSERT_EQ(Vs.size(), 1u);
    EXPECT_EQ(Vs[0].Rule, "cvr.blob.magic");
  }
  {
    std::string Bad = Blob;
    Bad[sectionCountOffset(Bad, 5) + 8 + 1] ^= 0x01;
    std::istringstream IS(Bad);
    auto Vs = analysis::InvariantChecker::checkBlob(IS);
    ASSERT_EQ(Vs.size(), 1u);
    EXPECT_EQ(Vs[0].Rule, "cvr.blob.section-crc");
  }
  {
    std::string Bad = Blob;
    putU64(Bad, FirstSectionOff, ~0ULL);
    std::istringstream IS(Bad);
    auto Vs = analysis::InvariantChecker::checkBlob(IS);
    ASSERT_EQ(Vs.size(), 1u);
    EXPECT_EQ(Vs[0].Rule, "cvr.blob.bounds");
  }
}

} // namespace
} // namespace cvr
