//===- core/CvrFormat.cpp - CVR format (double precision) -----------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/CvrFormat.h"

#include "core/CvrConverter.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "parallel/Partition.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <cassert>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace cvr {

namespace {

/// Appends one conversion's streams onto the accumulated streams, rebasing
/// every chunk offset. Returns the index of the first appended chunk, or
/// -1 when the grown streams cannot be allocated (Acc is then stale and
/// must be discarded).
std::int32_t appendStreams(detail::ConvertedStreams &Acc,
                           detail::ConvertedStreams &&S) {
  auto ChunkBase = static_cast<std::int32_t>(Acc.Chunks.size());
  auto ElemBase = static_cast<std::int64_t>(Acc.Vals.size());
  auto RecBase = static_cast<std::int64_t>(Acc.Recs.size());
  auto TailBase = static_cast<std::int64_t>(Acc.Tails.size());

  if (ChunkBase == 0) {
    Acc = std::move(S);
    return 0;
  }

  if (!Acc.Vals.tryResize(Acc.Vals.size() + S.Vals.size()).ok() ||
      !Acc.ColIdx.tryResize(Acc.ColIdx.size() + S.ColIdx.size()).ok() ||
      !Acc.Tails.tryReserve(Acc.Tails.size() + S.Tails.size()).ok())
    return -1;
  if (!S.Vals.empty()) {
    std::memcpy(Acc.Vals.data() + ElemBase, S.Vals.data(),
                S.Vals.size() * sizeof(double));
    std::memcpy(Acc.ColIdx.data() + ElemBase, S.ColIdx.data(),
                S.ColIdx.size() * sizeof(std::int32_t));
  }
  Acc.Recs.insert(Acc.Recs.end(), S.Recs.begin(), S.Recs.end());
  Acc.Tails.resize(Acc.Tails.size() + S.Tails.size());
  for (std::size_t K = 0; K < S.Tails.size(); ++K)
    Acc.Tails[TailBase + K] = S.Tails[K];

  for (CvrChunk C : S.Chunks) {
    C.ElemBase += ElemBase;
    C.RecBase += RecBase;
    C.RecEnd += RecBase;
    C.TailBase += TailBase;
    Acc.Chunks.push_back(C);
  }
  return ChunkBase;
}

/// Folds the finished structure into the conversion counters. Reading
/// the built streams after the fact keeps the converter's hot loops
/// untouched: record counts, steal totals, and step balance are all
/// recoverable from what tryFromCsr is about to return anyway.
void recordConvertTelemetry(const CvrMatrix &M) {
  if (!obs::telemetryEnabled())
    return;
  static obs::Counter &Calls = obs::counter("convert.cvr.calls");
  static obs::Counter &Nnz = obs::counter("convert.cvr.nnz");
  static obs::Counter &Chunks = obs::counter("convert.cvr.chunks");
  static obs::Counter &Steps = obs::counter("convert.cvr.steps");
  static obs::Counter &Records = obs::counter("convert.cvr.records");
  static obs::Counter &Steals = obs::counter("convert.cvr.steal_records");
  static obs::Counter &Bands = obs::counter("convert.cvr.bands");
  static obs::Histogram &ChunkSteps =
      obs::histogram("convert.cvr.chunk_steps");
  static obs::Gauge &Imbalance =
      obs::gauge("convert.cvr.last_imbalance_x1000");

  Calls.inc();
  Nnz.add(M.numNonZeros());
  Chunks.add(static_cast<std::int64_t>(M.chunks().size()));
  Bands.add(static_cast<std::int64_t>(M.bands().size()));
  std::int64_t RecordCount = 0, StealCount = 0;
  std::int64_t TotalSteps = 0, MaxSteps = 0;
  const CvrRecord *Recs = M.recs();
  for (const CvrChunk &C : M.chunks()) {
    RecordCount += C.RecEnd - C.RecBase;
    for (std::int64_t R = C.RecBase; R < C.RecEnd; ++R)
      StealCount += Recs[R].Steal ? 1 : 0;
    TotalSteps += C.NumSteps;
    MaxSteps = std::max<std::int64_t>(MaxSteps, C.NumSteps);
    ChunkSteps.observe(C.NumSteps);
  }
  Records.add(RecordCount);
  Steals.add(StealCount);
  Steps.add(TotalSteps);
  if (!M.chunks().empty() && TotalSteps > 0)
    Imbalance.set(MaxSteps * 1000 * static_cast<std::int64_t>(
                                        M.chunks().size()) /
                  TotalSteps);
}

/// True when \p V survives a round trip through fp32 bit for bit and is
/// not an fp32 subnormal: ±0 and ±inf qualify; NaN, values outside the
/// fp32 range and values fp32 cannot hold exactly do not.
bool exactInFp32(double V) {
  if (!(std::fabs(V) <= FLT_MAX))
    return std::isinf(V); // Also rejects NaN; never casts out of range.
  const float F = static_cast<float>(V);
  return static_cast<double>(F) == V && std::fpclassify(F) != FP_SUBNORMAL;
}

} // namespace

const char *valueKindName(ValueKind K) {
  return K == ValueKind::F32x64 ? "f32x64" : "f64";
}

const char *colIndexKindName(ColIndexKind K) {
  return K == ColIndexKind::U16Band ? "u16" : "u32";
}

CvrMatrix CvrMatrix::fromCsr(const CsrMatrix &A, const CvrOptions &Opts) {
  StatusOr<CvrMatrix> R = tryFromCsr(A, Opts);
  if (!R.ok()) {
    // The infallible API has no error channel; failing loudly beats
    // returning a structure a kernel would misindex through.
    std::fprintf(stderr, "cvr: fatal: CVR conversion failed: %s\n",
                 R.status().toString().c_str());
    std::abort();
  }
  return std::move(*R);
}

StatusOr<CvrMatrix> CvrMatrix::tryFromCsr(const CsrMatrix &A,
                                          const CvrOptions &Opts) try {
  if (CVR_FAIL_POINT("convert.cvr.fail"))
    return Status::internal(
        "convert.cvr.fail fail point: simulated pathological conversion");
  if ((Opts.Values && *Opts.Values > ValueKind::F32x64) ||
      (Opts.Indices && *Opts.Indices > ColIndexKind::U16Band))
    return Status::invalidArgument("CvrOptions names an unknown stream kind");
  if (A.numRows() < 0 || A.numCols() < 0)
    return Status::invalidArgument("matrix has negative shape");

  obs::TraceSpan Span("convert/cvr", "convert");
  Span.arg("rows", A.numRows());
  Span.arg("nnz", A.numNonZeros());

  int Threads = Opts.NumThreads > 0 ? Opts.NumThreads : defaultThreadCount();
  int Mult = std::max(1, Opts.ChunkMultiplier);

  detail::ConverterConfig Cfg;
  Cfg.NumThreads = Threads * Mult; // Chunk count (over-decomposition).
  Cfg.EnableStealing = Opts.EnableStealing;
  Cfg.SortFeedRowsByLength = Opts.SortFeedRows;

  CvrMatrix M;
  M.NumRows = A.numRows();
  M.NumCols = A.numCols();
  M.Nnz = A.numNonZeros();
  M.ChunkMult = Mult;

  // Column blocking: band width in columns, one x element = 8 bytes.
  std::int32_t ColsPerBand = 0;
  if (Opts.ColBlockBytes > 0 && A.numCols() > 0) {
    std::int64_t W = std::max<std::int64_t>(lanes(), Opts.ColBlockBytes / 8);
    if (W < A.numCols())
      ColsPerBand = static_cast<std::int32_t>(W);
  }

  if (ColsPerBand == 0) {
    detail::ConvertedStreams S = detail::convertToCvrStreams(A, Cfg);
    if (!S.Ok)
      return Status::resourceExhausted(
          "CVR conversion: stream storage allocation failed");
    M.Vals = std::move(S.Vals);
    M.ColIdx = std::move(S.ColIdx);
    M.Recs = std::move(S.Recs);
    M.Tails = std::move(S.Tails);
    M.Chunks = std::move(S.Chunks);
    M.ZeroRows = std::move(S.ZeroRows);
    if (!M.isValid())
      return Status::internal(
          "CVR conversion produced an inconsistent structure");
    if (Status CS = M.compressStreams(Opts.Values, Opts.Indices); !CS.ok())
      return CS;
    recordConvertTelemetry(M);
    return M;
  }

  // Blocked build: one independent conversion per column band, stitched
  // into the shared streams. The per-band CSR slices keep global column
  // indices, so the kernel gathers from the full x (and the converter's
  // column-0 pads stay in range). Blocked matrices run in accumulate mode:
  // the kernel zeroes all of y up front, so ZeroRows stays empty.
  detail::ConvertedStreams Acc;
  for (std::int32_t C0 = 0; C0 < A.numCols(); C0 += ColsPerBand) {
    std::int32_t C1 = std::min(A.numCols(), C0 + ColsPerBand);
    CsrMatrix Slice = A.columnBand(C0, C1);
    detail::ConvertedStreams S = detail::convertToCvrStreams(Slice, Cfg);
    if (!S.Ok)
      return Status::resourceExhausted(
          "CVR conversion: band stream allocation failed (band at column " +
          std::to_string(C0) + ")");
    std::int32_t ChunkBase = appendStreams(Acc, std::move(S));
    if (ChunkBase < 0)
      return Status::resourceExhausted(
          "CVR conversion: stitching band streams exceeded memory (band at "
          "column " +
          std::to_string(C0) + ")");
    M.Bands.push_back(
        {C0, C1, ChunkBase, static_cast<std::int32_t>(Acc.Chunks.size())});
  }
  M.Vals = std::move(Acc.Vals);
  M.ColIdx = std::move(Acc.ColIdx);
  M.Recs = std::move(Acc.Recs);
  M.Tails = std::move(Acc.Tails);
  M.Chunks = std::move(Acc.Chunks);

  if (!M.isValid())
    return Status::internal(
        "CVR conversion produced an inconsistent blocked structure");
  if (Status CS = M.compressStreams(Opts.Values, Opts.Indices); !CS.ok())
    return CS;
  recordConvertTelemetry(M);
  return M;
} catch (const std::bad_alloc &) {
  // std::vector growth (records, chunk tables, band slices) can still
  // throw; fold it into the same recoverable outcome.
  return Status::resourceExhausted(
      "CVR conversion: auxiliary allocation failed");
}

Status CvrMatrix::rebuildDerived() {
  ChunkColBase.assign(Chunks.size(), 0);
  for (const CvrBand &B : Bands)
    for (std::int32_t C = B.ChunkBegin;
         C < B.ChunkEnd && C < static_cast<std::int32_t>(Chunks.size()); ++C)
      ChunkColBase[static_cast<std::size_t>(C)] = B.ColBegin;

  ChunkMaskBase.clear();
  FinishMasks = AlignedBuffer<std::uint8_t>();
  // One allocation sized to every chunk's NumSteps + 1 bytes: growing the
  // buffer per chunk would copy it repeatedly and strand spare capacity.
  std::size_t Total = 0;
  for (const CvrChunk &C : Chunks)
    Total += static_cast<std::size_t>(C.NumSteps) + 1;
  if (!FinishMasks.tryResize(Total, 0).ok())
    return Status::resourceExhausted("CVR finish mask allocation failed");
  std::size_t Base = 0;
  for (const CvrChunk &C : Chunks) {
    ChunkMaskBase.push_back(static_cast<std::int64_t>(Base));
    for (std::int64_t R = C.RecBase; R < C.RecEnd; ++R) {
      const std::int64_t Pos = Recs[static_cast<std::size_t>(R)].Pos;
      FinishMasks[Base + Pos / lanes()] |=
          static_cast<std::uint8_t>(1U << (Pos % lanes()));
    }
    Base += static_cast<std::size_t>(C.NumSteps) + 1;
  }
  return Status::okStatus();
}

Status CvrMatrix::compressStreams(std::optional<ValueKind> VK,
                                  std::optional<ColIndexKind> IK) {
  if (Status S = rebuildDerived(); !S.ok())
    return S;

  if (IK.value_or(ColIndexKind::U16Band) == ColIndexKind::U16Band) {
    // Eligibility: every band (the whole column range when unblocked)
    // must span <= 65536 columns so band-local deltas fit uint16.
    std::int64_t WidestBand = NumCols;
    if (!Bands.empty()) {
      WidestBand = 0;
      for (const CvrBand &B : Bands)
        WidestBand =
            std::max<std::int64_t>(WidestBand, B.ColEnd - B.ColBegin);
    }
    if (WidestBand > 65536) {
      // Checked fallback: keep 32-bit indices, and say so when U16Band
      // was asked for rather than picked.
      NarrowIdxFallback = IK.has_value();
    } else {
      if (!ColIdx16.tryResize(ColIdx.size()).ok())
        return Status::resourceExhausted(
            "CVR compression: narrow index stream allocation failed");
      for (std::size_t CI = 0; CI < Chunks.size(); ++CI) {
        const CvrChunk &C = Chunks[CI];
        const std::int32_t Base = ChunkColBase[CI];
        for (std::int64_t I = C.ElemBase,
                          E = C.ElemBase + C.NumSteps * lanes();
             I < E; ++I) {
          std::int32_t Col = ColIdx[static_cast<std::size_t>(I)];
          // Pads are (value 0, column 0) in absolute terms; store them as
          // delta 0 so the widened gather hits the band base, in range.
          std::int32_t Delta =
              (Col == 0 && Vals[static_cast<std::size_t>(I)] == 0.0)
                  ? 0
                  : Col - Base;
          assert(Delta >= 0 && Delta <= 65535 &&
                 "band-local column escaped the uint16 range");
          ColIdx16[static_cast<std::size_t>(I)] =
              static_cast<std::uint16_t>(Delta);
        }
      }
      ColIdx = AlignedBuffer<std::int32_t>();
      IKind = ColIndexKind::U16Band;
    }
  }

  // Unset: fp32 exactly when it is lossless for every stored value (pads
  // are 0.0, which always is).
  const bool NarrowVals =
      VK ? *VK == ValueKind::F32x64
         : std::all_of(Vals.data(), Vals.data() + Vals.size(), exactInFp32);
  if (NarrowVals) {
    if (!Vals32.tryResize(Vals.size()).ok())
      return Status::resourceExhausted(
          "CVR compression: fp32 value stream allocation failed");
    for (std::size_t I = 0; I < Vals.size(); ++I)
      Vals32[I] = static_cast<float>(Vals[I]);
    Vals = AlignedBuffer<double>();
    VKind = ValueKind::F32x64;
  }
  return Status::okStatus();
}

int CvrMatrix::runThreads() const {
  std::size_t ChunksPerBand =
      Bands.empty() ? Chunks.size()
                    : static_cast<std::size_t>(Bands[0].ChunkEnd -
                                               Bands[0].ChunkBegin);
  if (ChunksPerBand == 0)
    return 1;
  return std::max(1, static_cast<int>(ChunksPerBand) / std::max(1, ChunkMult));
}

std::size_t CvrMatrix::formatBytes() const {
  return Vals.size() * sizeof(double) + ColIdx.size() * sizeof(std::int32_t) +
         Vals32.size() * sizeof(float) +
         ColIdx16.size() * sizeof(std::uint16_t) +
         Recs.size() * sizeof(CvrRecord) +
         Tails.size() * sizeof(std::int32_t) +
         Chunks.size() * sizeof(CvrChunk) +
         ZeroRows.size() * sizeof(std::int32_t) +
         Bands.size() * sizeof(CvrBand) + FinishMasks.size();
}

bool CvrMatrix::isValid() const {
  if (ChunkMult < 1)
    return false;
  // Exactly one storage per stream, matching the declared kinds.
  const bool NV = VKind == ValueKind::F32x64;
  const bool NI = IKind == ColIndexKind::U16Band;
  if (NV ? !Vals.empty() : !Vals32.empty())
    return false;
  if (NI ? !ColIdx.empty() : !ColIdx16.empty())
    return false;
  std::size_t ValCount = NV ? Vals32.size() : Vals.size();
  std::size_t IdxCount = NI ? ColIdx16.size() : ColIdx.size();
  if (ValCount != IdxCount)
    return false;
  if (!Bands.empty()) {
    // Bands tile both the chunk list and the column range, in order, with
    // one uniform chunk count (one conversion per band).
    if (ZeroRows.size() != 0)
      return false; // Blocked kernels zero all of y; the list is unused.
    std::int32_t PrevCol = 0, PrevChunk = 0;
    std::int32_t PerBand = Bands[0].ChunkEnd - Bands[0].ChunkBegin;
    for (const CvrBand &B : Bands) {
      if (B.ColBegin != PrevCol || B.ColEnd <= B.ColBegin ||
          B.ColEnd > NumCols)
        return false;
      if (B.ChunkBegin != PrevChunk || B.ChunkEnd <= B.ChunkBegin ||
          B.ChunkEnd - B.ChunkBegin != PerBand)
        return false;
      PrevCol = B.ColEnd;
      PrevChunk = B.ChunkEnd;
    }
    if (PrevCol != NumCols ||
        PrevChunk != static_cast<std::int32_t>(Chunks.size()))
      return false;
  }

  std::int64_t RealElems = 0;
  for (std::size_t CI = 0; CI < Chunks.size(); ++CI) {
    const CvrChunk &C = Chunks[CI];
    // The band owning this chunk bounds its real columns; unblocked
    // matrices use the full column range.
    std::int32_t ColLo = 0, ColHi = NumCols;
    for (const CvrBand &B : Bands)
      if (static_cast<std::int32_t>(CI) >= B.ChunkBegin &&
          static_cast<std::int32_t>(CI) < B.ChunkEnd) {
        ColLo = B.ColBegin;
        ColHi = B.ColEnd;
        break;
      }
    if (C.NumSteps % 2 != 0)
      return false;
    std::int64_t Prev = -1;
    for (std::int64_t R = C.RecBase; R < C.RecEnd; ++R) {
      const CvrRecord &Rec = Recs[R];
      // One record per lane and step, in position order, none past the
      // trailing step: each maps to its own finish-mask bit.
      if (Rec.Pos <= Prev || Rec.Pos >= (C.NumSteps + 1) * lanes())
        return false;
      Prev = Rec.Pos;
      if (Rec.Steal) {
        if (Rec.Wb < 0 || Rec.Wb >= lanes())
          return false;
        if (Tails[C.TailBase + Rec.Wb] < 0)
          return false; // Steal slot without a tail row.
      } else if (Rec.Wb < 0 || Rec.Wb >= NumRows) {
        return false;
      }
    }
    for (std::int64_t I = C.ElemBase, E = C.ElemBase + C.NumSteps * lanes();
         I < E; ++I) {
      // Pads are (value 0, raw column 0) — raw is the absolute column for
      // U32 and the band-local delta for U16Band; count everything else.
      std::int32_t Raw = rawColAt(I);
      double V = valueAt(I);
      if (Raw != 0 || V != 0.0) {
        std::int32_t Col = NI ? ColLo + Raw : Raw;
        if (Col < ColLo || Col >= ColHi)
          return false; // Real element escaped its column band.
        ++RealElems;
      }
    }
  }
  // Every nonzero appears exactly once, except that genuine (0, col 0)
  // entries are indistinguishable from pads, so allow RealElems <= Nnz.
  return RealElems <= Nnz;
}

} // namespace cvr
