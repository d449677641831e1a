//===- core/CvrSerialize.cpp - CVR binary save/load -----------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Version-3 (Compact) blob layout (little-endian, every field written
// explicitly):
//
//   magic "CVRF" | u32 version
//   header: NumRows i32, NumCols i32, Nnz i64, Lanes i32,
//           Reserved u8, ChunkMult i32, ValueKind u8, ColIndexKind u8
//           | u32 crc32c(header bytes)
//   Lanes must be 8 (CvrMatrix::lanes()); the reserved byte is written 0
//   and ignored on read. ChunkMult is written 1, bounds-checked on read
//   and otherwise ignored: the caller, not the blob, sets a run's thread
//   count (blobs from older writers carry their conversion's multiplier).
//   sections, in order: Chunks, Bands, ZeroRows, Recs, Tails, Vals, ColIdx
//   each section: u64 count | payload | u32 crc32c(payload)
//
// The two kind bytes select the element width of the Vals and ColIdx
// sections: F64/U32 store double / i32 payloads, F32x64 stores the value
// stream as f32, U16Band stores column indices as u16 band-relative
// deltas. Counts are element counts either way, so the chunk-table budget
// applies unchanged.
//
// Version-4 (Mapped) is the same blob with one change per section:
//
//   each section: u64 count | u8 padLen | padLen zero bytes | payload
//                 | u32 crc32c(payload)
//
// where padLen places the payload at a 64-byte-aligned *file offset*, so a
// page-aligned mmap of the file yields value/column-index/tail streams the
// AVX-512 kernels can execute in place (mapBlob — the serving daemon's
// zero-copy load path). Pad bytes must be zero and padLen < 64; a reader
// rejects anything else, so the every-bit-flip guarantee of v3 carries
// over.
//
// The section order is deliberate: the chunk table arrives first, so every
// later count has a strict structural bound before its allocation happens
// (Tails == Chunks * Lanes exactly, Vals/ColIdx == sum of NumSteps * Lanes
// exactly, Bands <= Chunks, ZeroRows <= NumRows). A corrupt or hostile
// count is rejected with OUT_OF_RANGE instead of commissioning memory.
//
// One decoder, two byte sources. CvrMatrix::decode parses both versions;
// decodeSection is the only code that knows a section's count bounds, pad
// rule, CRC rule and element type, and decodeBody the only code that knows
// the v3/v4 section order. What differs between the two loaders is where
// a payload's bytes live, and that is the byte source's business:
//
//   StreamSource (readBlob) reads each payload straight into the owned
//       container it will live in; nothing larger than one section is
//       ever buffered.
//   ImageSource (mapBlob) is a bounds-checked cursor over a 64-byte-aligned
//       in-memory image, typically a PROT_READ mmap. Once a payload passes
//       its CRC, the value/column-index/tail streams alias the image
//       (after a 64-byte alignment check) and the small metadata tables
//       are copied.
//
// Once every section is in, decode runs CvrMatrix::checkStructure, the
// one structure walk conversion and analysis::InvariantChecker share; a
// broken rule is DATA_LOSS "[cvr.blob.integrity] <rule> @ <where>: ...".
// So readBlob and mapBlob reject the same bytes with the same code and
// rule id. The serialize.read.short fail point sits in the stream source,
// and serialize.read.bitflip corrupts owned payloads before their CRC; a
// mapped image is never written.
//
// Reader diagnostics carry a stable bracketed rule id — e.g.
// "[cvr.blob.section-crc] ..." — which analysis::InvariantChecker::checkBlob
// maps back onto its dotted rule namespace. The ids are part of the
// interface; tests match on them.
//
// Only versions 3 and 4 are read. The checksum-less v1/v2 layouts (arrays
// before the chunk table) are rejected with the cvr.blob.version rule like
// any other unknown version.
//
//===----------------------------------------------------------------------===//

#include "core/CvrFormat.h"

#include "support/Crc32c.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <new>
#include <ostream>
#include <string>

namespace cvr {

namespace {

constexpr char Magic[4] = {'C', 'V', 'R', 'F'};
constexpr std::uint32_t CompactVersion = 3;
constexpr std::uint32_t MappedVersion = 4;
constexpr std::uint32_t MaxVersion = MappedVersion;

/// Alignment the Mapped layout guarantees for every section payload, as a
/// file offset — matches the AlignedBuffer/AVX-512 load alignment.
constexpr std::uint64_t MapAlignment = 64;

/// Structural ceilings for header-declared quantities. They bound what the
/// v3 reader will commission before the cheap exact checks take over; all
/// are far beyond any matrix the project handles.
constexpr std::uint64_t MaxChunks = 1ULL << 22;
constexpr std::uint64_t MaxChunkMult = 1ULL << 20;
constexpr std::uint64_t MaxStreamElems = 1ULL << 40;

/// Header image length (the checksummed byte range): rows, cols, nnz,
/// lanes, reserved, chunk multiplier, value kind, column-index kind.
constexpr std::size_t HeaderBytes = 4 + 4 + 8 + 4 + 1 + 4 + 1 + 1;

bool writeBytes(std::ostream &OS, const void *P, std::size_t N) {
  if (CVR_FAIL_POINT("serialize.write.short"))
    return false;
  OS.write(static_cast<const char *>(P), static_cast<std::streamsize>(N));
  return static_cast<bool>(OS);
}

/// Appends a POD field to the header image being checksummed.
template <typename T> void packField(std::string &Buf, const T &V) {
  Buf.append(reinterpret_cast<const char *>(&V), sizeof(T));
}

//===----------------------------------------------------------------------===//
// Diagnostics and budgets
//===----------------------------------------------------------------------===//

[[nodiscard]] Status truncated(const std::string &Where) {
  return Status::dataLoss("[cvr.blob.truncated] blob ends inside " + Where);
}

[[nodiscard]] Status truncated(const char *Name, const char *Part) {
  return truncated(std::string("the ") + Name + " " + Part);
}

[[nodiscard]] Status countMismatch(const char *Name, std::uint64_t N,
                                   std::int64_t Exact) {
  return Status::outOfRange(
      std::string("[cvr.blob.bounds] ") + Name + " count " +
      std::to_string(N) + " does not match the structural requirement of " +
      std::to_string(Exact));
}

[[nodiscard]] Status countOverBound(const char *Name, std::uint64_t N,
                                    std::uint64_t MaxElems) {
  return Status::outOfRange(std::string("[cvr.blob.bounds] ") + Name +
                            " count " + std::to_string(N) +
                            " exceeds the structural bound " +
                            std::to_string(MaxElems));
}

[[nodiscard]] Status badPad(const char *Name) {
  return Status::dataLoss(std::string("[cvr.blob.pad] ") + Name +
                          " section padding is corrupt (length out of range "
                          "or nonzero pad byte)");
}

/// Decodes and bounds-checks the checksummed header image (the caller
/// verifies its CRC first).
[[nodiscard]] Status decodeHeaderImage(const char *Header,
                                       CvrMatrix::BlobFields &F) {
  std::int32_t Lanes32 = 0, Mult = 0;
  std::uint8_t VKindByte = 0, IKindByte = 0;
  const char *P = Header;
  std::memcpy(F.NumRows, P, 4), P += 4;
  std::memcpy(F.NumCols, P, 4), P += 4;
  std::memcpy(F.Nnz, P, 8), P += 8;
  std::memcpy(&Lanes32, P, 4), P += 5; // Lanes, then the reserved byte.
  std::memcpy(&Mult, P, 4), P += 4;
  std::memcpy(&VKindByte, P, 1), P += 1;
  std::memcpy(&IKindByte, P, 1);

  if (*F.NumRows < 0 || *F.NumCols < 0 || *F.Nnz < 0)
    return Status::outOfRange(
        "[cvr.blob.bounds] header declares a negative shape");
  if (Lanes32 != CvrMatrix::lanes())
    return Status::outOfRange("[cvr.blob.bounds] lane count " +
                              std::to_string(Lanes32) + " is not " +
                              std::to_string(CvrMatrix::lanes()));
  if (Mult < 1 || static_cast<std::uint64_t>(Mult) > MaxChunkMult)
    return Status::outOfRange("[cvr.blob.bounds] chunk multiplier " +
                              std::to_string(Mult) + " is outside [1, " +
                              std::to_string(MaxChunkMult) + "]");
  if (VKindByte > static_cast<std::uint8_t>(ValueKind::F32x64))
    return Status::outOfRange("[cvr.blob.bounds] unknown value kind " +
                              std::to_string(VKindByte));
  if (IKindByte > static_cast<std::uint8_t>(ColIndexKind::U16Band))
    return Status::outOfRange("[cvr.blob.bounds] unknown column-index kind " +
                              std::to_string(IKindByte));
  *F.VKind = static_cast<ValueKind>(VKindByte);
  *F.IKind = static_cast<ColIndexKind>(IKindByte);
  return Status::okStatus();
}

/// Exact/maximum counts the chunk table induces for the later sections.
struct SectionBudget {
  std::uint64_t TotalElems = 0; ///< Exact Vals/ColIdx length.
  std::uint64_t MaxRecs = 0;    ///< Upper bound on the record stream.
};

[[nodiscard]] Status computeSectionBudget(const std::vector<CvrChunk> &Chunks,
                                          std::int64_t Nnz,
                                          std::int32_t NumRows,
                                          SectionBudget &B) {
  constexpr std::uint64_t Lanes = CvrMatrix::lanes();
  B.TotalElems = 0;
  for (const CvrChunk &C : Chunks) {
    if (C.NumSteps < 0 ||
        static_cast<std::uint64_t>(C.NumSteps) > MaxStreamElems / Lanes)
      return Status::outOfRange(
          "[cvr.blob.bounds] chunk declares an unrepresentable step count " +
          std::to_string(C.NumSteps));
    B.TotalElems += static_cast<std::uint64_t>(C.NumSteps) * Lanes;
    if (B.TotalElems > MaxStreamElems)
      return Status::outOfRange(
          "[cvr.blob.bounds] total stream length exceeds the structural "
          "ceiling");
  }
  // Records: one per row finish plus at most Lanes steal events per chunk;
  // chunk-boundary rows finish twice. Anything past this bound cannot have
  // come from the converter. The stream ceiling caps it too, so a header
  // declaring an absurd Nnz cannot make a record count's byte size wrap or
  // exceed what a vector can hold.
  B.MaxRecs = std::min(static_cast<std::uint64_t>(Nnz) +
                           static_cast<std::uint64_t>(NumRows) +
                           Chunks.size() * (Lanes + 2),
                       MaxStreamElems);
  return Status::okStatus();
}

//===----------------------------------------------------------------------===//
// Writing
//===----------------------------------------------------------------------===//

/// Writes one section: u64 count, (Mapped) pad, payload, payload CRC.
/// \p Off tracks the absolute file offset so the Mapped layout can align
/// each payload to a 64-byte file offset.
template <typename T>
bool writeSection(std::ostream &OS, const T *Data, std::uint64_t N,
                  bool Mapped, std::uint64_t &Off) {
  if (!writeBytes(OS, &N, sizeof(N)))
    return false;
  Off += sizeof(N);
  if (Mapped) {
    std::uint8_t Pad = static_cast<std::uint8_t>(
        (MapAlignment - ((Off + 1) % MapAlignment)) % MapAlignment);
    if (!writeBytes(OS, &Pad, 1))
      return false;
    static const char Zeros[MapAlignment] = {};
    if (Pad != 0 && !writeBytes(OS, Zeros, Pad))
      return false;
    Off += 1 + Pad;
  }
  std::size_t Bytes = static_cast<std::size_t>(N) * sizeof(T);
  if (N != 0 && !writeBytes(OS, Data, Bytes))
    return false;
  std::uint32_t Crc = crc32c(N != 0 ? Data : nullptr, Bytes);
  if (!writeBytes(OS, &Crc, sizeof(Crc)))
    return false;
  Off += Bytes + sizeof(Crc);
  return true;
}

} // namespace

Status CvrMatrix::writeBlob(std::ostream &OS, BlobLayout Layout) const {
  const bool Mapped = Layout == BlobLayout::Mapped;
  if (!writeBytes(OS, Magic, sizeof(Magic)))
    return Status::unavailable("blob write failed at the magic");
  std::uint32_t V = Mapped ? MappedVersion : CompactVersion;
  if (!writeBytes(OS, &V, sizeof(V)))
    return Status::unavailable("blob write failed at the version");

  std::string Header;
  Header.reserve(32);
  packField(Header, NumRows);
  packField(Header, NumCols);
  packField(Header, Nnz);
  packField(Header, static_cast<std::int32_t>(lanes()));
  packField(Header, std::uint8_t{0}); // Reserved.
  packField(Header, std::int32_t{1}); // Chunk multiplier (ignored).
  packField(Header, static_cast<std::uint8_t>(VKind));
  packField(Header, static_cast<std::uint8_t>(IKind));
  std::uint32_t HeaderCrc = crc32c(Header.data(), Header.size());
  if (!writeBytes(OS, Header.data(), Header.size()) ||
      !writeBytes(OS, &HeaderCrc, sizeof(HeaderCrc)))
    return Status::unavailable("blob write failed in the header");

  std::uint64_t Off = sizeof(Magic) + sizeof(V) + Header.size() + 4;
  bool Ok = writeSection(OS, Chunks.data(), Chunks.size(), Mapped, Off) &&
            writeSection(OS, Bands.data(), Bands.size(), Mapped, Off) &&
            writeSection(OS, ZeroRows.data(), ZeroRows.size(), Mapped, Off) &&
            writeSection(OS, Recs.data(), Recs.size(), Mapped, Off) &&
            writeSection(OS, Tails.data(), Tails.size(), Mapped, Off);
  if (Ok)
    Ok = VKind == ValueKind::F32x64
             ? writeSection(OS, Vals32.data(), Vals32.size(), Mapped, Off)
             : writeSection(OS, Vals.data(), Vals.size(), Mapped, Off);
  if (Ok)
    Ok = IKind == ColIndexKind::U16Band
             ? writeSection(OS, ColIdx16.data(), ColIdx16.size(), Mapped, Off)
             : writeSection(OS, ColIdx.data(), ColIdx.size(), Mapped, Off);
  if (!Ok)
    return Status::unavailable(
        "blob write failed mid-section (disk full or short write?)");
  OS.flush();
  if (!OS)
    return Status::unavailable("blob flush failed");
  return Status::okStatus();
}

namespace {

//===----------------------------------------------------------------------===//
// Byte sources
//===----------------------------------------------------------------------===//
//
// A source provides read(P, N) for fixed-size fields, payload() to locate
// (or read) a section payload, and adopt() to install a payload whose CRC
// passed into its container.

/// Allocation shims so one source fills both container kinds.
template <typename T>
[[nodiscard]] Status resizeContainer(AlignedBuffer<T> &C, std::size_t N) {
  return C.tryResize(N);
}

template <typename T>
[[nodiscard]] Status resizeContainer(std::vector<T> &C, std::size_t N) {
  try {
    C.resize(N);
  } catch (const std::bad_alloc &) {
    return Status::resourceExhausted("section allocation of " +
                                     std::to_string(N) + " elements failed");
  }
  return Status::okStatus();
}

/// readBlob's source: an std::istream, read in place. Every payload lands
/// directly in the owned container it will live in.
class StreamSource {
public:
  /// Streams carry v3 and v4; only mapped images are restricted to v4.
  static constexpr bool MappedOnly = false;

  explicit StreamSource(std::istream &IS) : IS(IS) {}

  bool read(void *P, std::size_t N) {
    if (CVR_FAIL_POINT("serialize.read.short"))
      return false;
    IS.read(static_cast<char *>(P), static_cast<std::streamsize>(N));
    return static_cast<bool>(IS);
  }

  template <typename Container>
  [[nodiscard]] Status payload(Container &Out, std::uint64_t N,
                               const char *Name, const void *&Bytes) {
    Status S = resizeContainer(Out, static_cast<std::size_t>(N));
    if (!S.ok())
      return S.withContext(Name);
    if (N != 0 &&
        !read(Out.data(), static_cast<std::size_t>(N) * sizeof(*Out.data())))
      return truncated(Name, "payload");
    Bytes = Out.data();
    return Status::okStatus();
  }

  /// The payload already lives in \p Out.
  template <typename Container>
  [[nodiscard]] Status adopt(Container &, const void *, std::uint64_t,
                             const char *) {
    return Status::okStatus();
  }

private:
  std::istream &IS;
};

/// mapBlob's source: a bounds-checked cursor over an in-memory image whose
/// base is 64-byte aligned. Every read is checked against the image end
/// before any byte is touched, so a truncated image whose size is known up
/// front is never over-read (a file truncated after its size was taken is
/// the SIGBUS guard's business — see io/MmapFile.h). The image is never
/// written.
class ImageSource {
public:
  static constexpr bool MappedOnly = true;

  ImageSource(const void *Data, std::size_t Bytes)
      : P(static_cast<const unsigned char *>(Data)), End(P + Bytes) {}

  bool read(void *Out, std::size_t N) {
    const unsigned char *Q = take(N);
    if (!Q)
      return false;
    std::memcpy(Out, Q, N);
    return true;
  }

  /// Points \p Bytes at the payload inside the image; nothing is copied.
  template <typename Container>
  [[nodiscard]] Status payload(Container &Out, std::uint64_t N,
                               const char *Name, const void *&Bytes) {
    Bytes = take(static_cast<std::size_t>(N) * sizeof(*Out.data()));
    return Bytes ? Status::okStatus() : truncated(Name, "payload");
  }

  /// Metadata tables are copied out of the image (their vector type is
  /// part of the public accessors). memcpy, so their file offset need not
  /// be aligned.
  template <typename T>
  [[nodiscard]] Status adopt(std::vector<T> &Out, const void *Bytes,
                             std::uint64_t N, const char *Name) {
    Status S = resizeContainer(Out, static_cast<std::size_t>(N));
    if (!S.ok())
      return S.withContext(Name);
    if (N != 0)
      std::memcpy(Out.data(), Bytes, static_cast<std::size_t>(N) * sizeof(T));
    return Status::okStatus();
  }

  /// The hot streams alias the image — the zero-copy contract. A
  /// self-consistent blob could still carry a pad that does not land the
  /// payload on the map alignment (hand-built or rewritten); adopting such
  /// a pointer would trade corruption for misaligned SIMD loads, so it is
  /// structurally rejected. The base is aligned, so the address test is
  /// the file-offset test.
  template <typename T>
  [[nodiscard]] Status adopt(AlignedBuffer<T> &Out, const void *Bytes,
                             std::uint64_t N, const char *Name) {
    if (reinterpret_cast<std::uintptr_t>(Bytes) % MapAlignment != 0)
      return Status::outOfRange(
          std::string("[cvr.blob.bounds] ") + Name +
          " payload is not 64-byte aligned in the mapped image");
    Out = AlignedBuffer<T>::viewExternal(static_cast<const T *>(Bytes),
                                         static_cast<std::size_t>(N));
    return Status::okStatus();
  }

private:
  /// Advances past \p N bytes, returning their start (nullptr if the image
  /// is too short).
  const unsigned char *take(std::size_t N) {
    if (static_cast<std::size_t>(End - P) < N)
      return nullptr;
    const unsigned char *Q = P;
    P += N;
    return Q;
  }

  const unsigned char *P;
  const unsigned char *End;
};

template <typename Source, typename T> bool readPod(Source &Src, T &V) {
  return Src.read(&V, sizeof(T));
}

//===----------------------------------------------------------------------===//
// Decoding
//===----------------------------------------------------------------------===//

/// Decodes one v3/v4 section into \p Out. The count must satisfy the
/// structural bound \p MaxElems (and equal \p ExactElems when >= 0) before
/// any payload is located or allocated; a \p Padded (v4) section's pad
/// must be shorter than the alignment and all zero; the payload must match
/// its CRC32C before the source adopts it.
template <typename Source, typename Container>
[[nodiscard]] Status decodeSection(Source &Src, Container &Out,
                                   const char *Name, bool Padded,
                                   std::uint64_t MaxElems,
                                   std::int64_t ExactElems = -1) {
  std::uint64_t N = 0;
  if (!readPod(Src, N))
    return truncated(Name, "section count");
  if (ExactElems >= 0 && N != static_cast<std::uint64_t>(ExactElems))
    return countMismatch(Name, N, ExactElems);
  if (N > MaxElems)
    return countOverBound(Name, N, MaxElems);
  if (Padded) {
    std::uint8_t Pad = 0;
    if (!readPod(Src, Pad))
      return truncated(Name, "pad length");
    if (Pad >= MapAlignment)
      return badPad(Name);
    unsigned char Zeros[MapAlignment] = {};
    if (Pad != 0 && !Src.read(Zeros, Pad))
      return truncated(Name, "pad");
    for (std::uint8_t I = 0; I < Pad; ++I)
      if (Zeros[I] != 0)
        return badPad(Name);
  }

  const void *Payload = nullptr;
  Status S = Src.payload(Out, N, Name, Payload);
  if (!S.ok())
    return S;
  const std::size_t Bytes = static_cast<std::size_t>(N) * sizeof(*Out.data());
  // Fault drill: flip a bit of a payload that already sits in its owned
  // container (the stream source's) before its CRC runs. A mapped image is
  // never written.
  if (N != 0 && Payload == Out.data())
    CVR_FAIL_POINT_CORRUPT("serialize.read.bitflip", Out.data(), Bytes);
  std::uint32_t Want = 0;
  if (!readPod(Src, Want))
    return truncated(Name, "checksum");
  std::uint32_t Got = crc32c(N != 0 ? Payload : nullptr, Bytes);
  if (Got != Want)
    return Status::dataLoss(std::string("[cvr.blob.section-crc] ") + Name +
                            " payload fails its CRC32C (stored " +
                            std::to_string(Want) + ", computed " +
                            std::to_string(Got) + ")");
  return Src.adopt(Out, Payload, N, Name);
}

/// Everything after the version word of a v3 (Compact) or v4 (Mapped,
/// \p Padded) blob.
template <typename Source>
[[nodiscard]] Status decodeBody(Source &Src, CvrMatrix::BlobFields F,
                                bool Padded) {
  // Header image: read as one block so the CRC covers exactly the bytes
  // the writer checksummed.
  char Header[HeaderBytes];
  if (!Src.read(Header, sizeof(Header)))
    return truncated("the header");
  std::uint32_t WantCrc = 0;
  if (!readPod(Src, WantCrc))
    return truncated("the header checksum");
  if (crc32c(Header, sizeof(Header)) != WantCrc)
    return Status::dataLoss("[cvr.blob.header-crc] header fails its CRC32C");
  Status S = decodeHeaderImage(Header, F);
  if (!S.ok())
    return S;

  // Chunk table first: it induces the exact bounds for everything after.
  if (!(S = decodeSection(Src, *F.Chunks, "chunk table", Padded, MaxChunks))
           .ok())
    return S;
  SectionBudget B;
  if (!(S = computeSectionBudget(*F.Chunks, *F.Nnz, *F.NumRows, B)).ok())
    return S;
  std::uint64_t NumChunks = F.Chunks->size();

  if (!(S = decodeSection(Src, *F.Bands, "band table", Padded, NumChunks))
           .ok())
    return S;
  if (!(S = decodeSection(Src, *F.ZeroRows, "zero-row list", Padded,
                          static_cast<std::uint64_t>(*F.NumRows)))
           .ok())
    return S;
  if (!(S = decodeSection(Src, *F.Recs, "record stream", Padded, B.MaxRecs))
           .ok())
    return S;
  if (!(S = decodeSection(Src, *F.Tails, "tail table", Padded, MaxStreamElems,
                          static_cast<std::int64_t>(NumChunks) *
                              CvrMatrix::lanes()))
           .ok())
    return S;
  const auto ExactElems = static_cast<std::int64_t>(B.TotalElems);
  S = *F.VKind == ValueKind::F32x64
          ? decodeSection(Src, *F.Vals32, "value stream", Padded,
                          MaxStreamElems, ExactElems)
          : decodeSection(Src, *F.Vals, "value stream", Padded,
                          MaxStreamElems, ExactElems);
  if (!S.ok())
    return S;
  return *F.IKind == ColIndexKind::U16Band
             ? decodeSection(Src, *F.ColIdx16, "column-index stream", Padded,
                             MaxStreamElems, ExactElems)
             : decodeSection(Src, *F.ColIdx, "column-index stream", Padded,
                             MaxStreamElems, ExactElems);
}

} // namespace

template <typename Source>
StatusOr<CvrMatrix> CvrMatrix::decode(Source &Src) {
  char Head[4];
  if (!Src.read(Head, sizeof(Head)))
    return truncated("the magic");
  if (std::memcmp(Head, Magic, sizeof(Magic)) != 0)
    return Status::dataLoss(
        "[cvr.blob.magic] input does not start with the CVRF magic");
  std::uint32_t V = 0;
  if (!readPod(Src, V))
    return truncated("the version");
  if (V < CompactVersion || V > MaxVersion)
    return Status::invalidArgument(
        "[cvr.blob.version] unsupported blob version " + std::to_string(V) +
        " (this build reads versions " + std::to_string(CompactVersion) +
        ".." + std::to_string(MaxVersion) + ")");
  if (Source::MappedOnly && V != MappedVersion)
    return Status::failedPrecondition(
        "mapBlob: blob version " + std::to_string(V) +
        " is not the mapped layout (" + std::to_string(MappedVersion) +
        "); load it with readBlob, which copies");

  CvrMatrix M;
  BlobFields F = M.fields();
  Status S = decodeBody(Src, F, /*Padded=*/V >= MappedVersion);
  if (!S.ok())
    return S;
  // The kernels index through the decoded tables unchecked, so the blob
  // must pass the structure walk that every reader shares.
  std::vector<Violation> Vs;
  M.checkStructure(Vs, 1);
  if (!Vs.empty())
    return Status::dataLoss("[cvr.blob.integrity] " + Vs[0].toString());
  if (!(S = M.rebuildDerived()).ok())
    return S;
  return M;
}

StatusOr<CvrMatrix> CvrMatrix::readBlob(std::istream &IS) {
  StreamSource Src(IS);
  return decode(Src);
}

StatusOr<CvrMatrix> CvrMatrix::mapBlob(const void *Data, std::size_t Bytes) {
  if ((reinterpret_cast<std::uintptr_t>(Data) % MapAlignment) != 0)
    return Status::failedPrecondition(
        "mapBlob: image base is not 64-byte aligned (a page-aligned mmap "
        "always is; fall back to readBlob)");
  ImageSource Src(Data, Bytes);
  return decode(Src);
}

} // namespace cvr
