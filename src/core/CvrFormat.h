//===- core/CvrFormat.h - The CVR representation ----------------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Compressed Vectorization-oriented sparse Row (CVR) format — the
/// paper's contribution (Section 4). A sparse matrix is converted into a
/// dense `steps x lanes` element stream per thread chunk:
///
///  * the nonzeros are divided evenly into one chunk per thread
///    (`nnz_start`/`nnz_end`, Section 4.2);
///  * inside a chunk, `lanes` trackers `(rowID, valID, count)` stream rows
///    into SIMD lanes: when a lane's row is exhausted the next non-empty
///    row is *fed* into it, and when no rows remain the lane *steals* the
///    head of the fullest lane's remaining elements;
///  * each finish event appends a record `(pos, wb)` telling the SpMV
///    kernel where the lane's accumulated dot product must be written:
///    feed-phase records scatter straight into y, steal-phase records
///    accumulate into the per-chunk `t_result` slots that the `tail` array
///    maps back to rows (Figure 3, Algorithm 3).
///
/// The conversion is a single O(nnz) streaming pass — the source of CVR's
/// headline low preprocessing overhead (Tables 1/4).
///
//===----------------------------------------------------------------------===//

#ifndef CVR_CORE_CVRFORMAT_H
#define CVR_CORE_CVRFORMAT_H

#include "matrix/Csr.h"
#include "support/AlignedBuffer.h"
#include "support/Status.h"

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace cvr {

namespace analysis {
struct Introspect;
} // namespace analysis

/// Storage precision of the value stream. SpMV is bandwidth-bound, so the
/// stream bytes — not the FLOPs — set the speed limit (the roofline model
/// in src/analysis/Roofline.h quantifies this); F32x64 halves the dominant
/// stream. Every conversion is exact: F32x64 is only ever stored when each
/// value round-trips through fp32 bit for bit.
enum class ValueKind : std::uint8_t {
  F64 = 0,    ///< fp64 storage, fp64 accumulation (the paper's layout).
  F32x64 = 1, ///< fp32 storage widened to fp64 accumulation in registers.
};

/// Storage width of the column-index stream.
enum class ColIndexKind : std::uint8_t {
  U32 = 0, ///< Absolute int32 columns (the paper's layout).
  /// Band-local uint16 deltas from the owning column band's ColBegin
  /// (band 0 / unblocked matrices use base 0). Requires every band to
  /// span <= 65536 columns. Pad slots store delta 0, so a pad's widened
  /// column is the band base — always a safe gather; its value is 0, so it
  /// contributes nothing.
  U16Band = 1,
};

/// Short names of the stream kinds ("f64", "f32x64", "u32", "u16"),
/// as /stats and the daemon's List op print them.
const char *valueKindName(ValueKind K);
const char *colIndexKindName(ColIndexKind K);

/// Conversion options.
struct CvrOptions {
  /// Number of thread chunks (<= 0 selects the OpenMP default). The
  /// kernel runs min(omp_get_max_threads(), chunks) threads, dynamically
  /// scheduled when chunks outnumber threads, so over-decomposition is
  /// just a larger NumThreads.
  int NumThreads = 0;

  /// Tracker stealing for tail balance (Section 4.2 "Tracker Stealing").
  /// Disabling it pads idle lanes instead — the stealing ablation.
  bool EnableStealing = true;

  /// Feed rows longest-first instead of in matrix order — the sort-first
  /// ablation (quantifies what the paper's O(nnz) no-sort design saves).
  bool SortFeedRows = false;

  /// x-vector cache blocking: when > 0, the element stream is split into
  /// column bands of about this many bytes of x (ColBlockBytes / 8
  /// columns) so the gather working set fits a target cache level. 0
  /// disables blocking. Blocked matrices run in accumulate mode: y is
  /// zeroed once and every band adds its partial products.
  std::int64_t ColBlockBytes = 0;

  /// Software-prefetch distance in stream steps for the x gather targets
  /// (and the vals/colIdx streams). An execution-time knob: it selects a
  /// kernel variant, not a different conversion. Supported distances are
  /// {0, 2, 4, 8}; other values snap up to the next supported one.
  int PrefetchDistance = 0;

  /// Value-stream storage precision (stream compression axis 1). Unset,
  /// the conversion stores the narrowest lossless stream: F32x64 when
  /// every value round-trips through fp32 bit for bit and none is an fp32
  /// subnormal (pattern, graph, Laplacian and stencil matrices), F64
  /// otherwise; either way y is bit-identical to an F64 conversion. An
  /// explicit F64 forces the paper's layout; an explicit F32x64 on a
  /// matrix with any other value is refused (INVALID_ARGUMENT).
  std::optional<ValueKind> Values;

  /// Column-index storage width (stream compression axis 2). Unset, the
  /// conversion stores U16Band whenever every column band spans <= 65536
  /// columns and U32 otherwise. An explicit U32 forces the paper's
  /// layout; an explicit U16Band on a wider band is refused
  /// (INVALID_ARGUMENT).
  std::optional<ColIndexKind> Indices;
};

/// One write-back record (the paper's `rec` vector entry).
struct CvrRecord {
  std::int64_t Pos;  ///< Element position within the chunk stream.
  std::int32_t Wb;   ///< Feed: destination row. Steal: t_result slot.
  std::uint8_t Steal;  ///< 1 for steal-phase records.
  std::uint8_t Shared; ///< 1 if the destination row needs atomic adds.
  /// Always zero: blobs store records raw, so no byte of one is left
  /// undefined.
  std::uint8_t Pad[2] = {};
};

/// One column band of a blocked conversion: the chunks in
/// [ChunkBegin, ChunkEnd) hold exactly the nonzeros whose column lies in
/// [ColBegin, ColEnd). Bands run sequentially (chunks within a band in
/// parallel) and accumulate into y.
struct CvrBand {
  std::int32_t ColBegin = 0;
  std::int32_t ColEnd = 0;
  std::int32_t ChunkBegin = 0;
  std::int32_t ChunkEnd = 0;
};

/// Per-thread-chunk metadata.
struct CvrChunk {
  std::int64_t ElemBase = 0;  ///< Offset into Vals/ColIdx (elements).
  std::int64_t NumSteps = 0;  ///< Stream steps (each emits lanes() elements).
  std::int64_t RecBase = 0;   ///< Offset into Recs.
  std::int64_t RecEnd = 0;    ///< One past the chunk's last record.
  std::int64_t TailBase = 0;  ///< Offset into Tails (lanes() slots).
  std::int32_t FirstRow = -1; ///< First row touched (possibly partial).
  std::int32_t LastRow = -1;  ///< Last row touched (possibly partial).
};

/// One broken structural rule, with enough location detail to find the
/// corrupt field without a debugger. Every structure checker in the
/// project reports these (analysis::Violation is this type).
struct Violation {
  std::string Rule;     ///< Stable identifier, e.g. "cvr.rec.pos-order".
  std::string Location; ///< Where, e.g. "chunk 2, rec 17".
  std::string Message;  ///< What was expected vs. found.

  /// "rule @ location: message".
  std::string toString() const {
    return Rule + " @ " + Location + ": " + Message;
  }
};

/// On-disk arrangement of a serialized CVR blob.
enum class BlobLayout {
  /// Version-3 stream layout: sections packed back to back. Smallest
  /// files; loading always copies.
  Compact,
  /// Version-4 mapped layout: identical sections, but each payload is
  /// padded to start at a 64-byte-aligned file offset, so a mmap'd blob
  /// can be executed in place — the value/column-index streams keep the
  /// alignment the AVX-512 kernels load with. The pad bytes must be zero
  /// and every payload keeps its CRC32C, so the adversarial guarantees of
  /// v3 carry over bit for bit.
  Mapped,
};

/// A matrix converted to CVR.
class CvrMatrix {
public:
  /// Converts \p A. The conversion runs the chunks in parallel and is the
  /// operation the preprocessing benchmarks time. Terminates on allocation
  /// failure; production callers that must survive OOM or pathological
  /// inputs use tryFromCsr.
  static CvrMatrix fromCsr(const CsrMatrix &A, const CvrOptions &Opts = {});

  /// Recoverable conversion: INVALID_ARGUMENT for unusable options
  /// (including an explicit stream kind the matrix cannot hold exactly),
  /// RESOURCE_EXHAUSTED when stream storage cannot be allocated, INTERNAL
  /// when the converted structure fails its own invariants. The
  /// degradation ladder in formats/Registry falls back to CSR on any
  /// non-OK outcome.
  [[nodiscard]] static StatusOr<CvrMatrix> tryFromCsr(const CsrMatrix &A,
                                        const CvrOptions &Opts = {});

  std::int32_t numRows() const { return NumRows; }
  std::int32_t numCols() const { return NumCols; }
  std::int64_t numNonZeros() const { return Nnz; }
  /// SIMD lanes per stream step: the paper's omega, 8 for f64 on AVX-512
  /// (simd::DoubleLanes). Fixed for every matrix.
  static constexpr int lanes() { return 8; }
  int numChunks() const { return static_cast<int>(Chunks.size()); }

  const std::vector<CvrChunk> &chunks() const { return Chunks; }
  const double *vals() const { return Vals.data(); }
  const std::int32_t *colIdx() const { return ColIdx.data(); }
  const CvrRecord *recs() const { return Recs.data(); }
  const std::int32_t *tails() const { return Tails.data(); }

  /// Stream compression state. Exactly one value stream and one index
  /// stream is populated: vals() xor vals32(), colIdx() xor colIdx16().
  ValueKind valueKind() const { return VKind; }
  ColIndexKind colIndexKind() const { return IKind; }
  const float *vals32() const { return Vals32.data(); }
  const std::uint16_t *colIdx16() const { return ColIdx16.data(); }

  /// Bytes per stored element of the value / column-index streams.
  std::size_t valueBytes() const {
    return VKind == ValueKind::F32x64 ? sizeof(float) : sizeof(double);
  }
  std::size_t indexBytes() const {
    return IKind == ColIndexKind::U16Band ? sizeof(std::uint16_t)
                                          : sizeof(std::int32_t);
  }

  /// Column-band base the chunk's narrow indices are deltas from (0 for
  /// U32 matrices and for unblocked ones). Derived from Bands — never
  /// serialized — and rebuilt on conversion and on blob load.
  std::int32_t chunkColBase(std::size_t ChunkIdx) const {
    return ChunkIdx < ChunkColBase.size() ? ChunkColBase[ChunkIdx] : 0;
  }

  /// The chunk's NumSteps + 1 finish-mask bytes: bit k of byte I is set
  /// when a record sits at position I * 8 + k, i.e. lane k finishes just
  /// before step I (the last byte holds the trailing records). Derived
  /// like chunkColBase; nullptr past the last chunk.
  const std::uint8_t *finishMasks(std::size_t ChunkIdx) const {
    return ChunkIdx < ChunkMaskBase.size()
               ? FinishMasks.data() + ChunkMaskBase[ChunkIdx]
               : nullptr;
  }

  /// Kind-independent element decode for the cold paths (validation,
  /// the roofline model). \p Base is the owning chunk's
  /// chunkColBase().
  double valueAt(std::int64_t I) const {
    return VKind == ValueKind::F32x64 ? static_cast<double>(Vals32[I])
                                      : Vals[I];
  }
  std::int32_t colAt(std::int64_t I, std::int32_t Base) const {
    return IKind == ColIndexKind::U16Band
               ? Base + static_cast<std::int32_t>(ColIdx16[I])
               : ColIdx[I];
  }
  /// The raw stored index (band-local delta for U16Band). Pad slots are
  /// raw 0 with value 0 under either kind.
  std::int32_t rawColAt(std::int64_t I) const {
    return IKind == ColIndexKind::U16Band
               ? static_cast<std::int32_t>(ColIdx16[I])
               : ColIdx[I];
  }

  /// Rows the kernel must zero before accumulation: empty rows plus every
  /// chunk-boundary row (see CvrSpmv). Empty for blocked matrices, whose
  /// kernel zeroes all of y instead.
  const std::vector<std::int32_t> &zeroRows() const { return ZeroRows; }

  /// Column bands of a blocked conversion; empty when unblocked (the
  /// common case: one implicit band covering every column and chunk).
  const std::vector<CvrBand> &bands() const { return Bands; }
  bool isBlocked() const { return !Bands.empty(); }

  std::size_t formatBytes() const;

  /// The structural rules every reader relies on, as one serial walk:
  /// the kernels scatter through records and tails and stream through
  /// chunk ranges unchecked, so conversion (tryFromCsr), blob decoding
  /// (readBlob and mapBlob) and analysis::InvariantChecker::checkCvr all
  /// run this. It covers stream kinds and sizes, the band tiling,
  /// contiguous in-bounds chunk ranges, row spans, column ranges, record
  /// positions and targets, tail rows, rows finished once per chunk, the
  /// zero-row list, and at most Nnz real stream elements, under the dotted
  /// "cvr.*" rule ids DESIGN.md section 9 lists. Appends each broken
  /// rule to \p Out and stops once \p Out holds \p Cap entries; never
  /// indexes out of range, whatever the fields hold. Returns true when
  /// every chunk's element, record and tail range was verified inside its
  /// stream, so a caller may index through them.
  bool checkStructure(std::vector<Violation> &Out, std::size_t Cap) const;

  /// Writes the converted matrix as a versioned little-endian blob, so
  /// one conversion can be amortized across process runs: format v3
  /// (BlobLayout::Compact, the default) or the mmap-executable v4
  /// (BlobLayout::Mapped), both with per-section CRC32C. UNAVAILABLE on
  /// stream failure (including an armed `serialize.write.short` fail
  /// point).
  [[nodiscard]] Status writeBlob(std::ostream &OS,
                                 BlobLayout Layout = BlobLayout::Compact) const;

  /// Reads a v3 or v4 blob off \p IS, each section payload straight into
  /// the owned storage it will live in; any other version is
  /// INVALID_ARGUMENT under cvr.blob.version. Messages carry a stable
  /// bracketed rule id ("[cvr.blob.section-crc] ..."), the same ids
  /// analysis::InvariantChecker::checkBlob reports. DATA_LOSS for corrupt
  /// or truncated bytes and for a decoded matrix that breaks a
  /// checkStructure() rule ("[cvr.blob.integrity] <rule> @ ..."),
  /// OUT_OF_RANGE for counts that fail the strict bounds validation,
  /// RESOURCE_EXHAUSTED when a validated section does not fit in memory.
  [[nodiscard]] static StatusOr<CvrMatrix> readBlob(std::istream &IS);

  /// Zero-copy decode of a Mapped (v4) blob held in memory — typically a
  /// PROT_READ mmap of a blob file. It runs the decoder readBlob runs, so
  /// the same bytes fail with the same code and rule id, and every check
  /// (magic, version, header/section CRC32C, strict count bounds, pad-zero
  /// checks, checkStructure()) runs against the mapped bytes before any
  /// pointer is trusted. The value, column-index, and
  /// tail streams of the returned matrix then alias [Data, Data + Bytes)
  /// (no copy; the mapping must outlive the matrix and stay readable;
  /// each aliased payload must sit at a 64-byte-aligned offset); the small
  /// metadata tables are copied. FAILED_PRECONDITION when the blob is the
  /// non-mappable v3 or \p Data is not 64-byte aligned; callers fall back
  /// to readBlob, which copies.
  [[nodiscard]] static StatusOr<CvrMatrix> mapBlob(const void *Data,
                                                   std::size_t Bytes);

  /// True when every stream is heap-owned (false for mapBlob views).
  bool ownsStreams() const {
    return Vals.ownsStorage() && ColIdx.ownsStorage() &&
           Vals32.ownsStorage() && ColIdx16.ownsStorage() &&
           Tails.ownsStorage();
  }

  /// Builder plumbing: pointers to the private fields, handed by
  /// tryFromCsr to the converter (CvrConverter.h) and by decode() to the
  /// section and body decoders in CvrSerialize.cpp. Not for general use.
  struct BlobFields {
    std::int32_t *NumRows;
    std::int32_t *NumCols;
    std::int64_t *Nnz;
    ValueKind *VKind;
    ColIndexKind *IKind;
    AlignedBuffer<double> *Vals;
    AlignedBuffer<std::int32_t> *ColIdx;
    AlignedBuffer<float> *Vals32;
    AlignedBuffer<std::uint16_t> *ColIdx16;
    std::vector<CvrRecord> *Recs;
    AlignedBuffer<std::int32_t> *Tails;
    std::vector<CvrChunk> *Chunks;
    std::vector<std::int32_t> *ZeroRows;
    std::vector<CvrBand> *Bands;
  };

private:
  /// Structural views + mutation access for src/analysis (invariant
  /// checker and its mutation tests).
  friend struct analysis::Introspect;

  std::int32_t NumRows = 0;
  std::int32_t NumCols = 0;
  std::int64_t Nnz = 0;

  /// The one blob decoder behind readBlob and mapBlob, over a byte source
  /// defined in CvrSerialize.cpp (the only translation unit that
  /// instantiates it).
  template <typename Source>
  [[nodiscard]] static StatusOr<CvrMatrix> decode(Source &Src);

  /// The one builder of the derived state: ChunkColBase from Bands and the
  /// finish masks from Recs. Runs once checkStructure() passes, after
  /// conversion and after blob validation alike; RESOURCE_EXHAUSTED when
  /// the masks cannot be allocated.
  [[nodiscard]] Status rebuildDerived();

  BlobFields fields() {
    return {&NumRows, &NumCols, &Nnz,    &VKind,    &IKind,
            &Vals,    &ColIdx,  &Vals32, &ColIdx16, &Recs,
            &Tails,   &Chunks,  &ZeroRows, &Bands};
  }

  AlignedBuffer<double> Vals;        ///< cvr_vals (F64), chunk-concatenated.
  AlignedBuffer<std::int32_t> ColIdx; ///< cvr_colidx (U32).
  AlignedBuffer<float> Vals32;       ///< cvr_vals (F32x64); Vals empty.
  AlignedBuffer<std::uint16_t> ColIdx16; ///< cvr_colidx (U16Band deltas).
  std::vector<CvrRecord> Recs;
  AlignedBuffer<std::int32_t> Tails; ///< lanes() per chunk; -1 = unused.
  std::vector<CvrChunk> Chunks;
  std::vector<std::int32_t> ZeroRows;
  std::vector<CvrBand> Bands; ///< Empty = unblocked.
  std::vector<std::int32_t> ChunkColBase; ///< Derived: per-chunk band base.
  AlignedBuffer<std::uint8_t> FinishMasks; ///< Derived: see finishMasks().
  std::vector<std::int64_t> ChunkMaskBase; ///< Derived: chunk's first mask.
  ValueKind VKind = ValueKind::F64;
  ColIndexKind IKind = ColIndexKind::U32;
};

} // namespace cvr

#endif // CVR_CORE_CVRFORMAT_H
