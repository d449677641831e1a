//===- analysis/InvariantChecker.cpp - Format structure validation --------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/InvariantChecker.h"

#include "analysis/Introspect.h"
#include "core/CvrSpmv.h"
#include "formats/Csr5.h"
#include "formats/Esb.h"
#include "formats/Vhcc.h"
#include "matrix/Csr.h"
#include "parallel/Partition.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace cvr {
namespace analysis {

namespace {

/// Violation sink with the per-call cap applied.
class Reporter {
public:
  explicit Reporter(std::vector<Violation> &Out) : Out(Out) {}

  bool full() const { return Out.size() >= InvariantChecker::MaxViolations; }

  void add(const char *Rule, std::string Location, std::string Message) {
    if (!full())
      Out.push_back({Rule, std::move(Location), std::move(Message)});
  }

private:
  std::vector<Violation> &Out;
};

std::string loc(const char *Fmt, long long A, long long B = -1) {
  char Buf[96];
  if (B >= 0)
    std::snprintf(Buf, sizeof(Buf), Fmt, A, B);
  else
    std::snprintf(Buf, sizeof(Buf), Fmt, A);
  return Buf;
}

std::string num(long long V) { return std::to_string(V); }

/// Row containing nonzero index \p I (same lookup the converters use).
std::int32_t rowOfNnz(const CsrMatrix &A, std::int64_t I) {
  const std::int64_t *RowPtr = A.rowPtr();
  const std::int64_t *It =
      std::upper_bound(RowPtr, RowPtr + A.numRows() + 1, I);
  return static_cast<std::int32_t>(It - RowPtr) - 1;
}

} // namespace

std::string formatViolations(const std::vector<Violation> &Vs) {
  std::string S;
  for (const Violation &V : Vs)
    S += V.toString() + '\n';
  return S;
}

//===----------------------------------------------------------------------===//
// CSR
//===----------------------------------------------------------------------===//

std::vector<Violation> InvariantChecker::checkCsr(const CsrMatrix &A) {
  std::vector<Violation> Vs;
  Reporter R(Vs);
  const std::int64_t *RowPtr = A.rowPtr();
  const std::int32_t *Ci = A.colIdx();
  std::int32_t Rows = A.numRows();
  std::int32_t Cols = A.numCols();

  if (Rows < 0 || Cols < 0) {
    R.add("csr.shape", "matrix", "negative dimension " + num(Rows) + "x" +
                                     num(Cols));
    return Vs;
  }
  if (Rows == 0)
    return Vs;
  if (RowPtr[0] != 0)
    R.add("csr.rowptr.base", "row 0",
          "rowPtr[0] = " + num(RowPtr[0]) + ", expected 0");
  for (std::int32_t Row = 0; Row < Rows && !R.full(); ++Row) {
    if (RowPtr[Row + 1] < RowPtr[Row]) {
      R.add("csr.rowptr.monotone", loc("row %lld", Row),
            "rowPtr decreases: " + num(RowPtr[Row]) + " -> " +
                num(RowPtr[Row + 1]));
      continue; // The element range below would be nonsense.
    }
    std::int32_t Prev = -1;
    for (std::int64_t I = RowPtr[Row]; I < RowPtr[Row + 1] && !R.full();
         ++I) {
      if (Ci[I] < 0 || Ci[I] >= Cols)
        R.add("csr.col.range", loc("row %lld, nnz %lld", Row, I),
              "column " + num(Ci[I]) + " outside [0, " + num(Cols) + ")");
      else if (Ci[I] <= Prev)
        R.add("csr.col.order", loc("row %lld, nnz %lld", Row, I),
              "column " + num(Ci[I]) + " after " + num(Prev) +
                  " (must be strictly increasing)");
      Prev = Ci[I];
    }
  }
  return Vs;
}

//===----------------------------------------------------------------------===//
// CVR
//===----------------------------------------------------------------------===//

std::vector<Violation> InvariantChecker::checkCvr(const CvrMatrix &M,
                                                  const CsrMatrix *Origin) {
  std::vector<Violation> Vs;
  // The rules every reader shares. The cross checks below index through
  // the chunk ranges, so they run only once the walk has vouched for them.
  if (!M.checkStructure(Vs, MaxViolations) || !Origin)
    return Vs;
  Reporter R(Vs);
  constexpr int Lanes = CvrMatrix::lanes();
  const std::int32_t Rows = M.numRows();
  const std::vector<CvrChunk> &Chunks = M.chunks();
  const CvrRecord *Recs = M.recs();
  const std::int32_t *Tails = M.tails();

  std::vector<CvrBand> Bands(M.bands());
  if (Bands.empty())
    Bands.push_back(
        {0, M.numCols(), 0, static_cast<std::int32_t>(Chunks.size())});
  for (const CvrBand &Band : Bands) {
    // Recompute the nnz partition the converter used for this band — on
    // the band's column slice of the origin — so the per-chunk checks can
    // clip rows exactly as the conversion did.
    CsrMatrix SliceStorage;
    const CsrMatrix *Src = Origin;
    if (M.isBlocked()) {
      SliceStorage = Origin->columnBand(Band.ColBegin, Band.ColEnd);
      Src = &SliceStorage;
    }
    const std::vector<NnzChunk> Parts =
        partitionByNnz(*Src, Band.ChunkEnd - Band.ChunkBegin);
    const std::int64_t *RowPtr = Src->rowPtr();
    for (std::size_t PC = 0; PC < Parts.size() && !R.full(); ++PC) {
      const std::size_t C = static_cast<std::size_t>(Band.ChunkBegin) + PC;
      const CvrChunk &Ch = Chunks[C];
      const NnzChunk &P = Parts[PC];
      std::string Where = loc("chunk %lld", static_cast<long long>(C));

      if (Ch.FirstRow != P.FirstRow || Ch.LastRow != P.LastRow)
        R.add("cvr.chunk.partition", Where,
              "row span [" + num(Ch.FirstRow) + ", " + num(Ch.LastRow) +
                  "] differs from the nnz partition's [" + num(P.FirstRow) +
                  ", " + num(P.LastRow) + "]");

      // Every row with nonzeros inside this chunk must be finished (by a
      // feed record or a tail slot); no other row may be.
      std::vector<std::int32_t> Finished;
      for (int K = 0; K < Lanes; ++K)
        if (Tails[Ch.TailBase + K] >= 0 && Tails[Ch.TailBase + K] < Rows)
          Finished.push_back(Tails[Ch.TailBase + K]);
      for (std::int64_t I = Ch.RecBase; I < Ch.RecEnd; ++I)
        if (!Recs[I].Steal && Recs[I].Wb >= 0 && Recs[I].Wb < Rows)
          Finished.push_back(Recs[I].Wb);
      std::sort(Finished.begin(), Finished.end());
      Finished.erase(std::unique(Finished.begin(), Finished.end()),
                     Finished.end());
      std::vector<std::int32_t> Expected;
      if (!P.empty())
        for (std::int32_t Row = P.FirstRow; Row <= P.LastRow; ++Row) {
          std::int64_t Lo = std::max(RowPtr[Row], P.NnzStart);
          std::int64_t Hi = std::min(RowPtr[Row + 1], P.NnzEnd);
          if (Hi > Lo)
            Expected.push_back(Row);
        }
      if (Finished != Expected) {
        std::vector<std::int32_t> Missing, Extra;
        std::set_difference(Expected.begin(), Expected.end(),
                            Finished.begin(), Finished.end(),
                            std::back_inserter(Missing));
        std::set_difference(Finished.begin(), Finished.end(),
                            Expected.begin(), Expected.end(),
                            std::back_inserter(Extra));
        for (std::int32_t Row : Missing)
          R.add("cvr.row.unfinished", Where,
                "row " + num(Row) + " has nonzeros here but is never "
                                    "written back");
        for (std::int32_t Row : Extra)
          R.add("cvr.row.spurious-finish", Where,
                "row " + num(Row) + " written back without nonzeros here");
      }

      // Element accounting: the dense steps x omega stream must hold the
      // chunk's nonzeros exactly once, with zero-value pads (raw column 0:
      // absolute 0 for u32, the band base for u16 deltas) covering the
      // slack (steps * omega - chunk nnz). Every stored value is exact, so
      // the source compares as it is.
      struct Slot {
        std::int32_t Col;
        double Val;
        bool PadShaped;
        bool operator<(const Slot &O) const {
          return Col != O.Col ? Col < O.Col : Val < O.Val;
        }
      };
      std::vector<Slot> Stream;
      std::vector<std::pair<std::int32_t, double>> Source;
      Stream.reserve(static_cast<std::size_t>(Ch.NumSteps * Lanes));
      for (std::int64_t I = Ch.ElemBase; I < Ch.ElemBase + Ch.NumSteps * Lanes;
           ++I) {
        const double V = M.valueAt(I);
        Stream.push_back({M.colAt(I, Band.ColBegin), V,
                          M.rawColAt(I) == 0 && V == 0.0});
      }
      Source.reserve(static_cast<std::size_t>(P.size()));
      for (std::int64_t I = P.NnzStart; I < P.NnzEnd; ++I)
        Source.emplace_back(Src->colIdx()[I], Src->vals()[I]);
      std::sort(Stream.begin(), Stream.end());
      std::sort(Source.begin(), Source.end());
      std::size_t SI = 0;
      std::int64_t Pads = 0;
      for (const Slot &E : Stream) {
        if (SI < Source.size() && Source[SI].first == E.Col &&
            Source[SI].second == E.Val) {
          ++SI;
        } else if (E.PadShaped) {
          ++Pads;
        } else if (!R.full()) {
          R.add("cvr.elem.spurious", Where,
                "stream slot (col " + num(E.Col) + ", val " +
                    std::to_string(E.Val) +
                    ") matches no source nonzero and is not a pad");
        }
      }
      if (SI < Source.size())
        R.add("cvr.elem.missing", Where,
              num(Source.size() - SI) +
                  " source nonzeros absent from the stream (first col " +
                  num(Source[SI].first) + ")");
      else if (Pads != Ch.NumSteps * Lanes - P.size())
        R.add("cvr.elem.padding", Where,
              "pad count " + num(Pads) + ", expected " +
                  num(Ch.NumSteps * Lanes - P.size()) +
                  " (= steps*omega - chunk nnz)");
    }
  }

  // Zero rows of an unblocked matrix: exactly the empty rows plus every
  // chunk boundary row (the walk already holds a blocked list empty).
  if (!M.isBlocked() && !R.full()) {
    std::vector<std::int32_t> Expected;
    for (std::int32_t Row = 0; Row < Rows; ++Row)
      if (Origin->rowLength(Row) == 0)
        Expected.push_back(Row);
    for (const CvrChunk &Ch : Chunks) {
      if (Ch.FirstRow >= 0)
        Expected.push_back(Ch.FirstRow);
      if (Ch.LastRow >= 0)
        Expected.push_back(Ch.LastRow);
    }
    std::sort(Expected.begin(), Expected.end());
    Expected.erase(std::unique(Expected.begin(), Expected.end()),
                   Expected.end());
    if (M.zeroRows() != Expected)
      R.add("cvr.zero-rows.coverage", "matrix",
            "zeroRows does not equal {empty rows} + {chunk boundary rows}");
  }
  return Vs;
}

//===----------------------------------------------------------------------===//
// CSR5
//===----------------------------------------------------------------------===//

std::vector<Violation> InvariantChecker::checkCsr5(const Csr5 &K,
                                                   const CsrMatrix &A) {
  std::vector<Violation> Vs;
  Reporter R(Vs);
  Csr5View V = Introspect::csr5(K);
  const std::int64_t TileElems =
      static_cast<std::int64_t>(V.Omega) * V.Sigma;

  if (V.NumRows != A.numRows() || V.Nnz != A.numNonZeros()) {
    R.add("csr5.shape", "kernel", "prepared shape does not match the matrix");
    return Vs;
  }
  if (V.Sigma < 1) {
    R.add("csr5.shape", "kernel", "sigma " + num(V.Sigma));
    return Vs;
  }
  if (V.NumTiles != V.Nnz / TileElems || V.TailStart != V.NumTiles * TileElems)
    R.add("csr5.shape", "kernel",
          "tile count " + num(V.NumTiles) + " / tail start " +
              num(V.TailStart) + " inconsistent with nnz " + num(V.Nnz));
  std::int32_t WantTailRow =
      V.TailStart < V.Nnz ? rowOfNnz(A, V.TailStart) : V.NumRows;
  if (V.TailFirstRow != WantTailRow)
    R.add("csr5.tail.first-row", "kernel",
          "tail first row " + num(V.TailFirstRow) + ", expected " +
              num(WantTailRow));

  const std::int64_t *RowPtr = A.rowPtr();
  const std::int32_t *Ci = A.colIdx();
  const double *Va = A.vals();

  // Row-start bitmap over the tiled prefix, recomputed from the row
  // pointers (the ground truth the descriptors must encode).
  std::vector<std::uint8_t> IsRowStart(
      static_cast<std::size_t>(V.TailStart), 0);
  for (std::int32_t Row = 0; Row < V.NumRows; ++Row) {
    std::int64_t P = RowPtr[Row];
    if (P < V.TailStart && P < RowPtr[Row + 1])
      IsRowStart[static_cast<std::size_t>(P)] = 1;
  }

  std::int64_t ExpectFlushes = 0;
  for (std::int64_t T = 0; T < V.NumTiles && !R.full(); ++T) {
    std::int64_t Base = T * TileElems;
    for (int Lane = 0; Lane < V.Omega && !R.full(); ++Lane) {
      std::int64_t LaneBase = Base + static_cast<std::int64_t>(Lane) * V.Sigma;
      std::string LWhere = loc("tile %lld, lane %lld", T, Lane);
      if (V.LaneFirstRow[T * V.Omega + Lane] != rowOfNnz(A, LaneBase))
        R.add("csr5.lane.first-row", LWhere,
              "laneFirstRow " + num(V.LaneFirstRow[T * V.Omega + Lane]) +
                  ", expected " + num(rowOfNnz(A, LaneBase)));
      if (V.FlushStart[T * V.Omega + Lane] != ExpectFlushes)
        R.add("csr5.flush.offsets", LWhere,
              "flushStart " + num(V.FlushStart[T * V.Omega + Lane]) +
                  ", expected " + num(ExpectFlushes));
      std::int32_t Cur = rowOfNnz(A, LaneBase);
      for (int J = 0; J < V.Sigma && !R.full(); ++J) {
        std::int64_t Src = LaneBase + J;
        std::int64_t Slot = Base + static_cast<std::int64_t>(J) * V.Omega +
                            Lane;
        std::string EWhere =
            loc("tile %lld, slot %lld", T, Slot - Base);
        if (V.TCols[Slot] < 0 || V.TCols[Slot] >= A.numCols())
          R.add("csr5.col.range", EWhere,
                "column " + num(V.TCols[Slot]) + " outside [0, " +
                    num(A.numCols()) + ")");
        else if (V.TCols[Slot] != Ci[Src] || V.TVals[Slot] != Va[Src])
          R.add("csr5.tile.mismatch", EWhere,
                "transposed element differs from source nonzero " + num(Src));
        bool Flag =
            (V.BitFlag[T * V.Sigma + J] >> Lane) & 1U;
        bool Want = J > 0 && IsRowStart[static_cast<std::size_t>(Src)];
        if (Flag != Want)
          R.add("csr5.bitflag.mismatch", EWhere,
                Want ? "row start not flagged in the tile descriptor"
                     : "descriptor flags a row start where none exists");
        if (Want) {
          while (RowPtr[Cur + 1] <= Src)
            ++Cur;
          if (ExpectFlushes < V.NumFlushRows &&
              V.FlushRows[ExpectFlushes] != Cur)
            R.add("csr5.flush.rows", EWhere,
                  "flush row " + num(V.FlushRows[ExpectFlushes]) +
                      ", expected " + num(Cur));
          ++ExpectFlushes;
        }
      }
    }
  }
  if (!R.full() && V.NumFlushRows != ExpectFlushes)
    R.add("csr5.flush.size", "kernel",
          "flushRows holds " + num(V.NumFlushRows) + " entries, descriptors "
                                                     "require " +
              num(ExpectFlushes));
  if (!R.full() &&
      V.FlushStart[V.NumTiles * V.Omega] != ExpectFlushes)
    R.add("csr5.flush.offsets", "kernel",
          "final flushStart " + num(V.FlushStart[V.NumTiles * V.Omega]) +
              ", expected " + num(ExpectFlushes));

  const std::vector<std::int64_t> &TT = *V.ThreadTile;
  for (std::size_t T = 0; T + 1 < TT.size() && !R.full(); ++T)
    if (TT[T] < 0 || TT[T] > TT[T + 1] || TT[T + 1] > V.NumTiles)
      R.add("csr5.thread.tiles", loc("thread %lld", T),
            "tile range [" + num(TT[T]) + ", " + num(TT[T + 1]) +
                ") not a monotone partition of " + num(V.NumTiles));
  return Vs;
}

//===----------------------------------------------------------------------===//
// ESB
//===----------------------------------------------------------------------===//

std::vector<Violation> InvariantChecker::checkEsb(const Esb &K,
                                                  const CsrMatrix &A) {
  std::vector<Violation> Vs;
  Reporter R(Vs);
  EsbView V = Introspect::esb(K);
  const int W = V.SliceRows;

  if (V.NumRows != A.numRows() || V.Nnz != A.numNonZeros()) {
    R.add("esb.shape", "kernel", "prepared shape does not match the matrix");
    return Vs;
  }
  const std::int64_t NumSlices =
      (static_cast<std::int64_t>(V.NumRows) + W - 1) / W;

  // Perm must be a permutation of the rows.
  if (static_cast<std::int64_t>(V.Perm->size()) != V.NumRows) {
    R.add("esb.perm.permutation", "kernel",
          "permutation holds " + num(V.Perm->size()) + " rows of " +
              num(V.NumRows));
    return Vs;
  }
  std::vector<std::uint8_t> Seen(static_cast<std::size_t>(V.NumRows), 0);
  for (std::int32_t I = 0; I < V.NumRows && !R.full(); ++I) {
    std::int32_t Row = (*V.Perm)[static_cast<std::size_t>(I)];
    if (Row < 0 || Row >= V.NumRows)
      R.add("esb.perm.permutation", loc("perm[%lld]", I),
            "row " + num(Row) + " outside [0, " + num(V.NumRows) + ")");
    else if (Seen[static_cast<std::size_t>(Row)]++)
      R.add("esb.perm.permutation", loc("perm[%lld]", I),
            "row " + num(Row) + " appears twice");
  }
  if (R.full())
    return Vs;

  if (static_cast<std::int64_t>(V.SliceOff->size()) != NumSlices + 1 ||
      (*V.SliceOff)[0] != 0) {
    R.add("esb.slice.offsets", "kernel", "slice offset table malformed");
    return Vs;
  }

  const std::int64_t *RowPtr = A.rowPtr();
  const std::int32_t *Ci = A.colIdx();
  const double *Va = A.vals();
  for (std::int64_t S = 0; S < NumSlices && !R.full(); ++S) {
    std::int64_t Base = (*V.SliceOff)[static_cast<std::size_t>(S)];
    std::int64_t End = (*V.SliceOff)[static_cast<std::size_t>(S + 1)];
    std::string SWhere = loc("slice %lld", S);
    if (End < Base || (End - Base) % W != 0 || End > V.NumSlots) {
      R.add("esb.slice.offsets", SWhere,
            "slice range [" + num(Base) + ", " + num(End) +
                ") not a multiple of " + num(W) + " inside the streams");
      continue;
    }
    std::int64_t Width = (End - Base) / W;
    std::int64_t WantWidth = 0;
    for (int Lane = 0; Lane < W; ++Lane) {
      std::int64_t PR = S * W + Lane;
      if (PR < V.NumRows)
        WantWidth = std::max<std::int64_t>(
            WantWidth, A.rowLength((*V.Perm)[static_cast<std::size_t>(PR)]));
    }
    if (Width != WantWidth)
      R.add("esb.slice.width", SWhere,
            "width " + num(Width) + ", longest member row has " +
                num(WantWidth));

    for (int Lane = 0; Lane < W && !R.full(); ++Lane) {
      std::int64_t PR = S * W + Lane;
      std::int32_t Row =
          PR < V.NumRows ? (*V.Perm)[static_cast<std::size_t>(PR)] : -1;
      std::int64_t Len = Row >= 0 ? A.rowLength(Row) : 0;
      for (std::int64_t J = 0; J < Width && !R.full(); ++J) {
        std::int64_t Slot = Base + J * W + Lane;
        bool Bit = (V.Mask[Slot / W] >> Lane) & 1U;
        std::string EWhere = loc("slice %lld, slot %lld", S, Slot - Base);
        if (Bit != (J < Len)) {
          R.add("esb.mask.mismatch", EWhere,
                Bit ? "mask claims an element beyond the row's length"
                    : "mask drops a stored element");
          continue;
        }
        if (J < Len) {
          if (V.ColIdx[Slot] < 0 || V.ColIdx[Slot] >= A.numCols())
            R.add("esb.col.range", EWhere,
                  "column " + num(V.ColIdx[Slot]) + " outside [0, " +
                      num(A.numCols()) + ")");
          else if (V.ColIdx[Slot] != Ci[RowPtr[Row] + J] ||
                   V.Vals[Slot] != Va[RowPtr[Row] + J])
            R.add("esb.elem.mismatch", EWhere,
                  "slot differs from source nonzero " +
                      num(RowPtr[Row] + J) + " of row " + num(Row));
        } else if (V.ColIdx[Slot] != 0 || V.Vals[Slot] != 0.0) {
          R.add("esb.pad.nonzero", EWhere,
                "masked-out slot holds (col " + num(V.ColIdx[Slot]) +
                    ", val " + std::to_string(V.Vals[Slot]) +
                    "), must be zero");
        }
      }
    }
  }

  if (!R.full() && V.Nnz > 0) {
    double Want = static_cast<double>(
                      (*V.SliceOff)[static_cast<std::size_t>(NumSlices)]) /
                  static_cast<double>(V.Nnz);
    if (V.PaddingRatio < Want - 1e-9 || V.PaddingRatio > Want + 1e-9)
      R.add("esb.padding-ratio", "kernel",
            "stored ratio " + std::to_string(V.PaddingRatio) +
                " != slots/nnz " + std::to_string(Want));
  }

  const std::vector<std::int32_t> &TS = *V.ThreadSlice;
  for (std::size_t T = 0; T + 1 < TS.size() && !R.full(); ++T)
    if (TS[T] < 0 || TS[T] > TS[T + 1] ||
        static_cast<std::int64_t>(TS[T + 1]) > NumSlices)
      R.add("esb.thread.slices", loc("thread %lld", T),
            "slice range [" + num(TS[T]) + ", " + num(TS[T + 1]) +
                ") not a monotone partition of " + num(NumSlices));
  return Vs;
}

//===----------------------------------------------------------------------===//
// VHCC
//===----------------------------------------------------------------------===//

std::vector<Violation> InvariantChecker::checkVhcc(const Vhcc &K,
                                                   const CsrMatrix &A) {
  std::vector<Violation> Vs;
  Reporter R(Vs);
  VhccView V = Introspect::vhcc(K);

  if (V.NumRows != A.numRows() || V.Nnz != A.numNonZeros()) {
    R.add("vhcc.shape", "kernel", "prepared shape does not match the matrix");
    return Vs;
  }
  const std::vector<std::int64_t> &POff = *V.PanelOff;
  if (static_cast<int>(POff.size()) != V.NumPanels + 1 || POff[0] != 0 ||
      POff[static_cast<std::size_t>(V.NumPanels)] != V.Nnz) {
    R.add("vhcc.panel.offsets", "kernel",
          "panel offsets are not a partition of " + num(V.Nnz) +
              " nonzeros");
    return Vs;
  }
  for (int P = 0; P < V.NumPanels && !R.full(); ++P)
    if (POff[P + 1] < POff[P])
      R.add("vhcc.panel.offsets", loc("panel %lld", P),
            "offset decreases: " + num(POff[P]) + " -> " + num(POff[P + 1]));

  // Panels own disjoint, ordered column ranges; local rows are dense and
  // non-decreasing (the segmented sum depends on it).
  const std::vector<std::int64_t> &PartOff = *V.PartialOff;
  std::int32_t PrevMaxCol = -1;
  for (int P = 0; P < V.NumPanels && !R.full(); ++P) {
    std::string PWhere = loc("panel %lld", P);
    std::int32_t MinCol = A.numCols(), MaxCol = -1;
    std::int64_t Partials = PartOff[P + 1] - PartOff[P];
    std::int32_t PrevLocal = -1;
    for (std::int64_t I = POff[P]; I < POff[P + 1] && !R.full(); ++I) {
      std::string EWhere = loc("panel %lld, elem %lld", P, I);
      if (V.ColIdx[I] < 0 || V.ColIdx[I] >= A.numCols()) {
        R.add("vhcc.col.range", EWhere,
              "column " + num(V.ColIdx[I]) + " outside [0, " +
                  num(A.numCols()) + ")");
        continue;
      }
      MinCol = std::min(MinCol, V.ColIdx[I]);
      MaxCol = std::max(MaxCol, V.ColIdx[I]);
      std::int32_t L = V.LocalRow[I];
      if (L < 0 || L >= Partials)
        R.add("vhcc.localrow.range", EWhere,
              "local row " + num(L) + " outside [0, " + num(Partials) + ")");
      else if (L < PrevLocal || L > PrevLocal + 1)
        R.add("vhcc.localrow.dense", EWhere,
              "local row jumps " + num(PrevLocal) + " -> " + num(L) +
                  " (must be non-decreasing, +1 at row changes)");
      PrevLocal = std::max(PrevLocal, L);
    }
    if (POff[P + 1] > POff[P]) {
      if (!R.full() && PrevLocal + 1 != Partials)
        R.add("vhcc.partials.size", PWhere,
              "panel uses " + num(PrevLocal + 1) + " partial slots, layout "
                                                   "reserves " +
                  num(Partials));
      if (!R.full() && PrevMaxCol >= 0 && MinCol <= PrevMaxCol)
        R.add("vhcc.panel.col-overlap", PWhere,
              "column " + num(MinCol) +
                  " overlaps the previous panel's range ending at " +
                  num(PrevMaxCol));
      if (MaxCol >= 0)
        PrevMaxCol = MaxCol;
    } else if (!R.full() && Partials != 0) {
      R.add("vhcc.partials.size", PWhere,
            "empty panel reserves " + num(Partials) + " partial slots");
    }
  }

  // Merge plan: a permutation of the partial slots, grouped by row.
  const std::vector<std::int64_t> &MPtr = *V.MergePtr;
  const std::vector<std::int64_t> &MIdx = *V.MergeIdx;
  std::int64_t TotalPartials = PartOff[static_cast<std::size_t>(V.NumPanels)];
  if (static_cast<std::int64_t>(MPtr.size()) != V.NumRows + 1 ||
      MPtr[0] != 0 ||
      MPtr[static_cast<std::size_t>(V.NumRows)] != TotalPartials ||
      static_cast<std::int64_t>(MIdx.size()) != TotalPartials) {
    R.add("vhcc.merge.shape", "kernel",
          "merge plan does not cover the " + num(TotalPartials) +
              " partial slots");
    return Vs;
  }
  std::vector<std::int32_t> RowOfSlot(
      static_cast<std::size_t>(TotalPartials), -1);
  for (std::int32_t Row = 0; Row < V.NumRows && !R.full(); ++Row) {
    if (MPtr[Row + 1] < MPtr[Row]) {
      R.add("vhcc.merge.shape", loc("row %lld", Row), "mergePtr decreases");
      return Vs;
    }
    for (std::int64_t I = MPtr[Row]; I < MPtr[Row + 1] && !R.full(); ++I) {
      std::int64_t Slot = MIdx[static_cast<std::size_t>(I)];
      if (Slot < 0 || Slot >= TotalPartials)
        R.add("vhcc.merge.permutation", loc("row %lld, merge %lld", Row, I),
              "slot " + num(Slot) + " outside [0, " + num(TotalPartials) +
                  ")");
      else if (RowOfSlot[static_cast<std::size_t>(Slot)] != -1)
        R.add("vhcc.merge.permutation", loc("row %lld, merge %lld", Row, I),
              "slot " + num(Slot) + " merged twice");
      else
        RowOfSlot[static_cast<std::size_t>(Slot)] = Row;
    }
  }
  if (R.full())
    return Vs;

  // Element accounting: panel element + merge plan must reproduce exactly
  // the source triples (row, col, value).
  using Triple = std::pair<std::pair<std::int32_t, std::int32_t>, double>;
  std::vector<Triple> Got, Want;
  Got.reserve(static_cast<std::size_t>(V.Nnz));
  Want.reserve(static_cast<std::size_t>(V.Nnz));
  bool Bounded = true;
  for (int P = 0; P < V.NumPanels && Bounded; ++P)
    for (std::int64_t I = POff[P]; I < POff[P + 1]; ++I) {
      std::int64_t Slot = PartOff[P] + V.LocalRow[I];
      if (V.LocalRow[I] < 0 || Slot >= PartOff[P + 1]) {
        Bounded = false; // Already reported by the local-row checks.
        break;
      }
      Got.push_back({{RowOfSlot[static_cast<std::size_t>(Slot)], V.ColIdx[I]},
                     V.Vals[I]});
    }
  if (Bounded) {
    const std::int64_t *RowPtr = A.rowPtr();
    for (std::int32_t Row = 0; Row < V.NumRows; ++Row)
      for (std::int64_t I = RowPtr[Row]; I < RowPtr[Row + 1]; ++I)
        Want.push_back({{Row, A.colIdx()[I]}, A.vals()[I]});
    std::sort(Got.begin(), Got.end());
    std::sort(Want.begin(), Want.end());
    if (Got != Want)
      R.add("vhcc.elem.mismatch", "kernel",
            "panel elements routed through the merge plan do not reproduce "
            "the source nonzeros");
  }
  return Vs;
}

//===----------------------------------------------------------------------===//
// Kernel dispatch
//===----------------------------------------------------------------------===//

std::vector<Violation> InvariantChecker::checkKernel(const SpmvKernel &K,
                                                     const CsrMatrix &A) {
  if (const auto *Cvr = dynamic_cast<const CvrMatrixSource *>(&K))
    return checkCvr(Cvr->cvrMatrix(), &A);
  if (const auto *C5 = dynamic_cast<const Csr5 *>(&K))
    return checkCsr5(*C5, A);
  if (const auto *E = dynamic_cast<const Esb *>(&K))
    return checkEsb(*E, A);
  if (const auto *V = dynamic_cast<const Vhcc *>(&K))
    return checkVhcc(*V, A);
  // CSR-backed baselines (MKL stand-in, CSR(I)) run directly off the input
  // matrix; validating that input is the meaningful structural check.
  return checkCsr(A);
}

//===----------------------------------------------------------------------===//
// Serialized blob validation
//===----------------------------------------------------------------------===//

namespace {

/// Decode errors embed their rule as a leading "[cvr.blob.xxx] " bracket;
/// lift it out so the violation is attributed like every other rule. A
/// structural failure, "[cvr.blob.integrity] <rule> @ <where>: <detail>",
/// is attributed to the inner structure rule and its location.
Violation liftBlobViolation(const Status &S) {
  const std::string &Msg = S.message();
  std::string Rule = "cvr.blob.read";
  std::string Where = "blob";
  std::string Detail = Msg;
  std::size_t Open = Msg.find('[');
  std::size_t Close = Msg.find(']');
  if (Open != std::string::npos && Close != std::string::npos &&
      Close > Open + 1 && Msg.compare(Open + 1, 9, "cvr.blob.") == 0) {
    Rule = Msg.substr(Open + 1, Close - Open - 1);
    Detail = Msg.substr(std::min(Msg.size(), Close + 2));
  }
  const std::size_t At = Detail.find(" @ ");
  const std::size_t Colon = Detail.find(": ", At);
  if (Rule == "cvr.blob.integrity" && At != std::string::npos &&
      Colon != std::string::npos) {
    Rule = Detail.substr(0, At);
    Where = Detail.substr(At + 3, Colon - At - 3);
    Detail = Detail.substr(Colon + 2);
  }
  return {std::move(Rule), std::move(Where),
          statusCodeName(S.code()) + std::string(": ") + Detail};
}

} // namespace

std::vector<Violation> InvariantChecker::checkBlob(std::istream &IS) {
  StatusOr<CvrMatrix> R = CvrMatrix::readBlob(IS);
  if (!R.ok())
    return {liftBlobViolation(R.status())};
  return {};
}

std::vector<Violation> InvariantChecker::checkBlob(const void *Data,
                                                   std::size_t Bytes,
                                                   CvrMatrix *Decoded) {
  StatusOr<CvrMatrix> R = CvrMatrix::mapBlob(Data, Bytes);
  if (!R.ok())
    return {liftBlobViolation(R.status())};
  if (Decoded)
    *Decoded = std::move(*R);
  return {};
}

} // namespace analysis
} // namespace cvr
