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
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace cvr {

namespace {

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

  detail::ConverterConfig Cfg;
  Cfg.NumThreads =
      Opts.NumThreads > 0 ? Opts.NumThreads : defaultThreadCount();
  Cfg.EnableStealing = Opts.EnableStealing;
  Cfg.SortFeedRowsByLength = Opts.SortFeedRows;

  // Column blocking: band width in columns, one x element = 8 bytes.
  std::int32_t ColsPerBand = 0;
  if (Opts.ColBlockBytes > 0 && A.numCols() > 0) {
    std::int64_t W = std::max<std::int64_t>(lanes(), Opts.ColBlockBytes / 8);
    if (W < A.numCols())
      ColsPerBand = static_cast<std::int32_t>(W);
  }
  const std::int64_t NumBands =
      ColsPerBand > 0 ? (A.numCols() + std::int64_t{ColsPerBand} - 1) /
                            ColsPerBand
                      : 1;
  if (NumBands * Cfg.NumThreads > std::numeric_limits<std::int32_t>::max())
    return Status::invalidArgument(
        "CvrOptions: column bands times chunks exceed the chunk table");

  // Both stream kinds follow from the input, so they are chosen — or an
  // explicit kind refused — before any work. Band-local deltas fit uint16
  // when every band (the whole column range when unblocked) spans <= 65536
  // columns; fp32 holds the stream exactly when it holds every CSR value,
  // since the stream stores each value once plus 0.0 pads.
  const std::int64_t WidestBand = ColsPerBand > 0 ? ColsPerBand : A.numCols();
  const bool NarrowIdx =
      Opts.Indices != ColIndexKind::U32 && WidestBand <= 65536;
  if (Opts.Indices == ColIndexKind::U16Band && !NarrowIdx)
    return Status::invalidArgument(
        "CvrOptions asks for U16Band indices, but a column band spans " +
        std::to_string(WidestBand) + " > 65536 columns");
  const bool NarrowVals =
      Opts.Values != ValueKind::F64 &&
      std::all_of(A.vals(), A.vals() + A.numNonZeros(), exactInFp32);
  if (Opts.Values == ValueKind::F32x64 && !NarrowVals)
    return Status::invalidArgument(
        "CvrOptions asks for F32x64 values, but a value is not exact in fp32");

  CvrMatrix M;
  M.NumRows = A.numRows();
  M.NumCols = A.numCols();
  M.Nnz = A.numNonZeros();
  M.VKind = NarrowVals ? ValueKind::F32x64 : ValueKind::F64;
  M.IKind = NarrowIdx ? ColIndexKind::U16Band : ColIndexKind::U32;

  std::vector<detail::BandRows> Bands;
  if (ColsPerBand > 0) {
    // Blocked matrices run in accumulate mode: the kernel zeroes all of y
    // up front, so ZeroRows stays empty.
    Bands = detail::splitIntoBands(A, ColsPerBand);
    for (std::size_t B = 0; B < Bands.size(); ++B)
      M.Bands.push_back({Bands[B].ColBegin, Bands[B].ColEnd,
                         static_cast<std::int32_t>(B) * Cfg.NumThreads,
                         static_cast<std::int32_t>(B + 1) * Cfg.NumThreads});
  } else {
    Bands.resize(1);
    Bands[0].ColEnd = A.numCols();
    Bands[0].NumRows = A.numRows();
    Bands[0].Ptr = A.rowPtr();
  }

  const auto Convert =
      NarrowVals ? (NarrowIdx ? detail::convertBands<float, std::uint16_t>
                              : detail::convertBands<float, std::int32_t>)
                 : (NarrowIdx ? detail::convertBands<double, std::uint16_t>
                              : detail::convertBands<double, std::int32_t>);
  if (!Convert(A, Bands, Cfg, M.fields()))
    return Status::resourceExhausted(
        "CVR conversion: stream storage allocation failed");

  if (ColsPerBand == 0) {
    // Rows the kernel must pre-zero: empty rows (never fed anywhere) and
    // every chunk boundary row (accumulated with += across chunks).
    for (std::int32_t R = 0; R < A.numRows(); ++R)
      if (A.rowLength(R) == 0)
        M.ZeroRows.push_back(R);
    for (const CvrChunk &C : M.Chunks) {
      if (C.FirstRow >= 0)
        M.ZeroRows.push_back(C.FirstRow);
      if (C.LastRow >= 0 && C.LastRow != C.FirstRow)
        M.ZeroRows.push_back(C.LastRow);
    }
    std::sort(M.ZeroRows.begin(), M.ZeroRows.end());
    M.ZeroRows.erase(std::unique(M.ZeroRows.begin(), M.ZeroRows.end()),
                     M.ZeroRows.end());
  }

  std::vector<Violation> Vs;
  M.checkStructure(Vs, 1);
  if (!Vs.empty())
    return Status::internal(
        "CVR conversion produced an inconsistent structure: " +
        Vs[0].toString());
  if (Status S = M.rebuildDerived(); !S.ok())
    return S;
  recordConvertTelemetry(M);
  return M;
} catch (const std::bad_alloc &) {
  // std::vector growth (records, chunk tables, band pieces) can still
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

namespace {

std::string num(std::int64_t V) { return std::to_string(V); }

std::string chunkAt(std::int64_t C, const char *What = nullptr,
                    std::int64_t I = 0) {
  return "chunk " + num(C) + (What ? ", " + (What + (" " + num(I))) : "");
}

/// Element slots [Begin, End) of one stream kind: adds the real (non-pad)
/// ones to \p Real and returns true when some slot's column leaves
/// [0, Cols) or a real one leaves its band [Lo, Hi). A pad is (value 0,
/// raw index 0); a raw index is absolute (\p Base 0) or a band-local delta
/// (\p Base Lo). Columns compare unsigned, so a negative one is out of
/// range too.
template <typename V, typename I>
bool anyColumnOutOfRange(const V *Vals, const I *Idx, std::int64_t Begin,
                         std::int64_t End, std::uint32_t Base,
                         std::uint32_t Lo, std::uint32_t Hi,
                         std::uint32_t Cols, std::int64_t &Real) {
  // Unsigned flags and counts rather than bools: the loop vectorizes.
  unsigned Bad = 0;
  std::uint64_t Count = 0;
  for (std::int64_t K = Begin; K < End; ++K) {
    const std::uint32_t Col = Base + static_cast<std::uint32_t>(Idx[K]);
    const unsigned IsReal = (Idx[K] != 0) | (Vals[K] != 0);
    Count += IsReal;
    Bad |= (Col >= Cols) | (IsReal & (Col - Lo >= Hi - Lo));
  }
  Real += static_cast<std::int64_t>(Count);
  return Bad != 0;
}

} // namespace

bool CvrMatrix::checkStructure(std::vector<Violation> &Out,
                               std::size_t Cap) const {
  // Records one violation; true once Out is full and the walk must stop.
  // Sites build a location and a message only after their rule fires.
  const auto Fail = [&](const char *Rule, std::string Where,
                        std::string Msg) {
    if (Out.size() < Cap)
      Out.push_back({Rule, std::move(Where), std::move(Msg)});
    return Out.size() >= Cap;
  };
  if (Out.size() >= Cap)
    return false;
  constexpr int L = lanes();
  const bool NV = VKind == ValueKind::F32x64;
  const bool NI = IKind == ColIndexKind::U16Band;
  const std::size_t ValCount = NV ? Vals32.size() : Vals.size();
  const std::size_t IdxCount = NI ? ColIdx16.size() : ColIdx.size();
  const auto NumChunks = static_cast<std::int64_t>(Chunks.size());
  const auto NumRecs = static_cast<std::int64_t>(Recs.size());
  const auto NumTails = static_cast<std::int64_t>(Tails.size());

  // -- Streams: one storage per stream, of the declared kind (a populated
  // shadow would desynchronize from the one the kernels run), one length,
  // nonempty when there are nonzeros, one tail slot per chunk lane.
  if ((NV ? !Vals.empty() : !Vals32.empty()) &&
      Fail("cvr.value.precision", "matrix", "stray value stream"))
    return false;
  if ((NI ? !ColIdx.empty() : !ColIdx16.empty()) &&
      Fail("cvr.index.narrow", "matrix", "stray column-index stream"))
    return false;
  if ((ValCount != IdxCount || (ValCount == 0 && Nnz != 0)) &&
      Fail("cvr.stream.sizes", "matrix",
           num(ValCount) + " values and " + num(IdxCount) + " indices for " +
               num(Nnz) + " nonzeros"))
    return false;
  if (NumTails != NumChunks * L &&
      Fail("cvr.tail.size", "matrix",
           "tails length " + num(NumTails) + ", expected " +
               num(NumChunks * L)))
    return false;

  // -- Bands tile the columns and the chunk list in order, one chunk count
  // per band; an unblocked matrix is one implicit band. The chunk walk
  // indexes through the tiling, so a broken one ends the walk.
  std::vector<CvrBand> Tiles(Bands);
  if (Tiles.empty())
    Tiles.push_back({0, NumCols, 0, static_cast<std::int32_t>(NumChunks)});
  const std::int64_t PerBand =
      std::int64_t{Tiles[0].ChunkEnd} - Tiles[0].ChunkBegin;
  std::int64_t PrevCol = 0, PrevChunk = 0, Widest = 0;
  std::size_t B = 0;
  for (; B < Tiles.size(); ++B) {
    const CvrBand &T = Tiles[B];
    if (!Bands.empty() &&
        (T.ColBegin != PrevCol || T.ColEnd <= T.ColBegin ||
         T.ChunkBegin != PrevChunk || T.ChunkEnd <= T.ChunkBegin ||
         T.ChunkEnd - T.ChunkBegin != PerBand))
      break;
    PrevCol = T.ColEnd;
    PrevChunk = T.ChunkEnd;
    Widest = std::max<std::int64_t>(Widest, T.ColEnd - T.ColBegin);
  }
  if (B < Tiles.size() || PrevCol != NumCols || PrevChunk != NumChunks) {
    Fail("cvr.band.tiling", "band " + num(B),
         "the bands before it tile cols [0, " + num(PrevCol) +
             ") and chunks [0, " + num(PrevChunk) + ") of " + num(NumCols) +
             " and " + num(NumChunks) + ", in equal chunk counts");
    return false;
  }
  // Narrow indices are band-local u16 deltas.
  if (NI && Widest > 65536 &&
      Fail("cvr.index.narrow", "matrix",
           "u16 indices in a band " + num(Widest) + " columns wide"))
    return false;

  const auto Elems = static_cast<std::int64_t>(std::min(ValCount, IdxCount));
  std::int64_t ElemCursor = 0, RecCursor = 0, Real = 0;
  std::vector<std::int32_t> Finished;
  std::vector<std::uint64_t> Seen;
  for (const CvrBand &T : Tiles) {
    // Row order restarts with every band: each sweeps the rows again.
    std::int32_t PrevLastRow = -1;
    for (std::int64_t C = T.ChunkBegin; C < T.ChunkEnd; ++C) {
      const CvrChunk &Ch = Chunks[static_cast<std::size_t>(C)];

      // -- Layout: element, record and tail ranges contiguous from 0 and
      // inside their streams. Everything below indexes through them.
      if (Ch.ElemBase != ElemCursor || Ch.NumSteps < 0 ||
          Ch.NumSteps > (Elems - ElemCursor) / L || Ch.RecBase != RecCursor ||
          Ch.RecEnd < Ch.RecBase || Ch.RecEnd > NumRecs ||
          Ch.TailBase != C * L || Ch.TailBase + L > NumTails) {
        Fail("cvr.chunk.layout", chunkAt(C),
             "elements " + num(Ch.ElemBase) + " + " + num(Ch.NumSteps) +
                 " steps, records [" + num(Ch.RecBase) + ", " +
                 num(Ch.RecEnd) + "), tails at " + num(Ch.TailBase) +
                 ": not contiguous inside the streams");
        return false;
      }
      if (Ch.NumSteps % 2 != 0 &&
          Fail("cvr.chunk.steps-even", chunkAt(C),
               "odd step count " + num(Ch.NumSteps)))
        return false;

      // -- Row span: both -1 (no rows) or an ordered range inside the
      // matrix, not before the previous chunk's last row.
      const bool NoRows = Ch.FirstRow == -1 && Ch.LastRow == -1;
      if (!NoRows && (Ch.FirstRow < 0 || Ch.FirstRow > Ch.LastRow ||
                      Ch.LastRow >= NumRows || Ch.FirstRow < PrevLastRow) &&
          Fail("cvr.chunk.rows", chunkAt(C),
               "row span [" + num(Ch.FirstRow) + ", " + num(Ch.LastRow) +
                   "] after row " + num(PrevLastRow)))
        return false;
      PrevLastRow = NoRows ? PrevLastRow : Ch.LastRow;

      // -- Columns: every slot inside the matrix, every real one inside
      // its band. One pass per stream kind; a second pass names the slot.
      const std::int64_t E = Ch.ElemBase + Ch.NumSteps * L;
      const std::int64_t Base = NI ? T.ColBegin : 0;
      const auto Scan = [&](const auto *V, const auto *Ix) {
        const auto U = [](std::int64_t X) {
          return static_cast<std::uint32_t>(X);
        };
        return anyColumnOutOfRange(V, Ix, Ch.ElemBase, E, U(Base),
                                   U(T.ColBegin), U(T.ColEnd), U(NumCols),
                                   Real);
      };
      const bool BadCols =
          NV ? (NI ? Scan(Vals32.data(), ColIdx16.data())
                   : Scan(Vals32.data(), ColIdx.data()))
             : (NI ? Scan(Vals.data(), ColIdx16.data())
                   : Scan(Vals.data(), ColIdx.data()));
      for (std::int64_t I = Ch.ElemBase; BadCols && I < E; ++I) {
        // A pad's column only has to lie inside the matrix.
        const std::int64_t Col = Base + rawColAt(I);
        const bool IsReal = rawColAt(I) != 0 || valueAt(I) != 0.0;
        const std::int64_t Lo = IsReal ? T.ColBegin : 0;
        const std::int64_t Hi = IsReal ? T.ColEnd : NumCols;
        if ((Col < Lo || Col >= Hi) &&
            Fail("cvr.col.range", chunkAt(C, "elem", I),
                 "column " + num(Col) + " outside [" + num(Lo) + ", " +
                     num(Hi) + ")"))
          return false;
      }

      // -- Records: strictly increasing positions below the trailing step
      // (each owns one finish-mask bit); steal records target a t_result
      // slot the tail maps to a row, feed records a row of y.
      Finished.clear();
      const std::int64_t PosLimit = (Ch.NumSteps + 1) * L;
      std::int64_t PrevPos = -1;
      for (std::int64_t I = Ch.RecBase; I < Ch.RecEnd; ++I) {
        const CvrRecord &Rec = Recs[static_cast<std::size_t>(I)];
        if (Rec.Pos < 0 || Rec.Pos >= PosLimit || Rec.Pos <= PrevPos) {
          if (Fail(Rec.Pos < 0 || Rec.Pos >= PosLimit ? "cvr.rec.pos-range"
                                                      : "cvr.rec.pos-order",
                   chunkAt(C, "rec", I),
                   "position " + num(Rec.Pos) + " after " + num(PrevPos) +
                       "; positions must strictly increase below " +
                       num(PosLimit)))
            return false;
        }
        PrevPos = Rec.Pos;
        const bool Steal = Rec.Steal != 0;
        if (Steal ? Rec.Wb < 0 || Rec.Wb >= L ||
                        Tails[Ch.TailBase + Rec.Wb] < 0
                  : Rec.Wb < 0 || Rec.Wb >= NumRows) {
          if (Fail(Steal ? "cvr.rec.steal.slot" : "cvr.rec.feed.row",
                   chunkAt(C, "rec", I),
                   (Steal ? "t_result slot " : "destination row ") +
                       num(Rec.Wb) + (Steal ? " names no tail row"
                                            : " outside the matrix")))
            return false;
        } else if (!Steal) {
          Finished.push_back(Rec.Wb);
        }
      }

      // -- Tails: each slot maps to a row of y or to -1 (unused).
      for (int K = 0; K < L; ++K) {
        const std::int32_t Row = Tails[Ch.TailBase + K];
        if ((Row < -1 || Row >= NumRows) &&
            Fail("cvr.tail.row-range", chunkAt(C, "tail slot", K),
                 "row " + num(Row) + " outside [-1, " + num(NumRows) + ")"))
          return false;
        if (Row >= 0 && Row < NumRows)
          Finished.push_back(Row);
      }

      // -- Each row finishes once per chunk, by a feed record or a tail
      // slot: a bitmap over the rows' span when they are dense, else a
      // sort, so a hostile span commissions no memory.
      if (Finished.size() > 1) {
        const auto [Lo, Hi] =
            std::minmax_element(Finished.begin(), Finished.end());
        const std::int32_t Min = *Lo;
        const auto Words = static_cast<std::size_t>(*Hi - Min) / 64 + 1;
        const bool Dense = Words <= Finished.size();
        Seen.assign(Dense ? Words : 0, 0);
        if (!Dense)
          std::sort(Finished.begin(), Finished.end());
        for (std::size_t I = 0; I < Finished.size(); ++I) {
          const auto Bit = static_cast<std::size_t>(Finished[I] - Min);
          const std::uint64_t Mask = std::uint64_t{1} << (Bit % 64);
          const bool Again = Dense ? (Seen[Bit / 64] & Mask) != 0
                                   : I > 0 && Finished[I] == Finished[I - 1];
          if (Dense)
            Seen[Bit / 64] |= Mask;
          if (Again && Fail("cvr.row.finish-once", chunkAt(C),
                            "row " + num(Finished[I]) +
                                " finished more than once"))
            return false;
        }
      }
      ElemCursor = E;
      RecCursor = Ch.RecEnd;
    }
  }
  if ((ElemCursor != static_cast<std::int64_t>(ValCount) ||
       RecCursor != NumRecs) &&
      Fail("cvr.stream.sizes", "matrix",
           "chunks cover " + num(ElemCursor) + " of " + num(ValCount) +
               " stream slots and " + num(RecCursor) + " of " +
               num(NumRecs) + " records"))
    return false;

  // -- Zero rows: sorted, unique and inside the matrix; none when blocked,
  // since the blocked kernel zeroes all of y.
  if (!Bands.empty() && !ZeroRows.empty() &&
      Fail("cvr.zero-rows.coverage", "matrix",
           "a blocked matrix carries " + num(ZeroRows.size()) + " zero rows"))
    return false;
  for (std::size_t I = 0; I < ZeroRows.size(); ++I) {
    const bool Range = ZeroRows[I] < 0 || ZeroRows[I] >= NumRows;
    if ((Range || (I > 0 && ZeroRows[I] <= ZeroRows[I - 1])) &&
        Fail(Range ? "cvr.zero-rows.range" : "cvr.zero-rows.order",
             "zeroRows[" + num(I) + "]",
             "row " + num(ZeroRows[I]) + " out of range or order"))
      return false;
  }

  // -- Every nonzero is stored once. A genuine (0.0, raw index 0) entry
  // looks like a pad, so the bound is one-sided.
  if (Real > Nnz && Fail("cvr.elem.count", "matrix",
                         num(Real) + " real stream elements for " +
                             num(Nnz) + " nonzeros"))
    return false;
  return true;
}

} // namespace cvr
