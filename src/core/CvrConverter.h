//===- core/CvrConverter.h - The one-pass CVR conversion --------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracker-based CVR conversion (Section 4.2 / Algorithm 3). The caller
/// picks both stream kinds from the CSR input before converting; every
/// (column band, nnz chunk) item then converts in one parallel region,
/// writing its values and column indices directly in those kinds (fp32
/// values, band-local uint16 deltas) and its tails into their final place.
/// This header is private to core/ — include CvrFormat.h instead.
///
/// The engine turns one nnz chunk of a band into a dense `steps x lanes`
/// stream: trackers *feed* on the next non-empty row when a lane drains,
/// *steal* the head of the fullest lane once rows run out, and every finish
/// event appends a `(pos, wb)` record. See CvrFormat.h for the full
/// data-model description.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_CORE_CVRCONVERTER_H
#define CVR_CORE_CVRCONVERTER_H

#include "core/CvrFormat.h"
#include "matrix/Csr.h"
#include "parallel/Partition.h"
#include "support/AlignedBuffer.h"
#include "support/ParallelFor.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <type_traits>
#include <vector>

namespace cvr {
namespace detail {

/// Engine knobs (the conversion subset of CvrOptions).
struct ConverterConfig {
  int NumThreads = 1;
  bool EnableStealing = true;
  /// Feed rows longest-first instead of in matrix order (the sort-first
  /// ablation; the paper deliberately keeps matrix order for O(nnz)
  /// preprocessing and x-locality between adjacent rows).
  bool SortFeedRowsByLength = false;
};

/// The rows of one column band as its chunks stream them. Unblocked, they
/// are the matrix's own rows (Ptr is rowPtr(), Begin and Row are empty). A
/// blocked band lists only the rows with a nonzero in its columns: band
/// row K is matrix row Row[K], whose piece of the band starts at CSR index
/// Begin[K] and holds Ptr[K + 1] - Ptr[K] nonzeros. Ptr counts band-local
/// nonzeros, so partitionByNnz splits a band as it would a CSR slice.
struct BandRows {
  std::int32_t ColBegin = 0;
  std::int32_t ColEnd = 0;
  std::int32_t NumRows = 0;
  const std::int64_t *Ptr = nullptr;
  std::vector<std::int64_t> PtrStore{0};
  std::vector<std::int64_t> Begin;
  std::vector<std::int32_t> Row;

  /// Matrix row of band row \p K.
  std::int32_t row(std::int32_t K) const { return Row.empty() ? K : Row[K]; }
};

/// Splits \p A's columns into bands of \p ColsPerBand and every row into
/// its per-band pieces, in one walk of each row's sorted columns.
inline std::vector<BandRows> splitIntoBands(const CsrMatrix &A,
                                            std::int32_t ColsPerBand) {
  const std::int64_t NumBands =
      (static_cast<std::int64_t>(A.numCols()) + ColsPerBand - 1) / ColsPerBand;
  std::vector<BandRows> Bands(static_cast<std::size_t>(NumBands));
  for (std::int64_t B = 0; B < NumBands; ++B) {
    Bands[B].ColBegin = static_cast<std::int32_t>(B * ColsPerBand);
    Bands[B].ColEnd = static_cast<std::int32_t>(
        std::min<std::int64_t>(A.numCols(), (B + 1) * ColsPerBand));
  }
  const std::int64_t *RowPtr = A.rowPtr();
  const std::int32_t *Col = A.colIdx();
  for (std::int32_t R = 0; R < A.numRows(); ++R)
    for (std::int64_t I = RowPtr[R], E = RowPtr[R + 1]; I < E;) {
      BandRows &Band = Bands[static_cast<std::size_t>(Col[I] / ColsPerBand)];
      std::int64_t J = I + 1;
      while (J < E && Col[J] < Band.ColEnd)
        ++J;
      Band.Row.push_back(R);
      Band.Begin.push_back(I);
      Band.PtrStore.push_back(Band.PtrStore.back() + (J - I));
      I = J;
    }
  for (BandRows &Band : Bands) {
    Band.NumRows = static_cast<std::int32_t>(Band.Row.size());
    Band.Ptr = Band.PtrStore.data();
  }
  return Bands;
}

/// One item's conversion output, already in the final stream kinds.
/// `Ok == false` means an allocation failed (real OOM or the
/// `alloc.aligned-buffer` fail point); the streams are then incomplete.
/// Cache-line aligned: items sit side by side and convert on different
/// threads, each updating its own record vector.
template <typename ValT, typename IdxT> struct alignas(64) ItemStreams {
  AlignedBuffer<ValT> Vals;
  AlignedBuffer<IdxT> ColIdx;
  std::vector<CvrRecord> Recs;
  std::int64_t NumSteps = 0;
  bool Ok = true;
};

/// One tracker (the paper's rowID/valID/count triple) plus the bookkeeping
/// this implementation adds: the result slot a stolen piece belongs to.
struct Tracker {
  std::int32_t CurRow = -1; ///< Band row being streamed (-1: no piece).
  std::int64_t ValId = 0;   ///< Next CSR element index of the piece.
  std::int64_t Count = 0;   ///< Elements left in the piece.
  std::int32_t Slot = -1;   ///< t_result slot (-1 while in feed phase).
  bool Dead = false;        ///< No work left for this lane.
};

template <typename ValT, typename IdxT> class ChunkConverter {
public:
  /// \p Tails receives the chunk's lanes() tail rows in place.
  ChunkConverter(const CsrMatrix &A, const BandRows &Rows,
                 const NnzChunk &Chunk, const ConverterConfig &Cfg,
                 ItemStreams<ValT, IdxT> &Out, std::int32_t *Tails)
      : A(A), Ptr(Rows.Ptr),
        Begin(Rows.Begin.empty() ? nullptr : Rows.Begin.data()),
        RowOf(Rows.Row.empty() ? nullptr : Rows.Row.data()),
        IdxBase(std::is_same_v<IdxT, std::uint16_t> ? Rows.ColBegin : 0),
        Chunk(Chunk), Cfg(Cfg), Out(Out), Tails(Tails), Trackers(Lanes) {}

  void convert() {
    if (Chunk.empty())
      return;
    NextRow = Chunk.FirstRow;

    if (Cfg.SortFeedRowsByLength) {
      // Sort-first ablation: feed the chunk's non-empty rows by descending
      // clipped length. This is the extra preprocessing the paper avoids.
      for (std::int32_t R = Chunk.FirstRow; R <= Chunk.LastRow; ++R)
        if (clippedLength(R) > 0)
          FeedList.push_back(R);
      std::stable_sort(FeedList.begin(), FeedList.end(),
                       [&](std::int32_t L, std::int32_t R) {
                         return clippedLength(L) > clippedLength(R);
                       });
    }

    // Size for the common case (steps ~= nnz/lanes); the stream only
    // exceeds this when lanes idle near the chunk end.
    if (!resizeStreams(((Chunk.size() + Lanes - 1) / Lanes + 4) * Lanes))
      return;
    Out.Recs.reserve(static_cast<std::size_t>(Chunk.LastRow -
                                              Chunk.FirstRow + 1 + 2 * Lanes));

    // Once every lane is dead, an odd step count gets one step of pads:
    // the kernel loads the column indices of two steps as one 16-index
    // vector.
    std::int64_t Steps = 0;
    std::int64_t Run;
    while ((Run = refillLanes(Steps)) > 0 || Steps % 2 != 0)
      if (!emitRun(Steps, std::max<std::int64_t>(Run, 1)))
        return;
    if (resizeStreams(Steps * Lanes))
      Out.NumSteps = Steps;
  }

private:
  /// Nonzeros of band row \p Row inside the chunk (<= 0: none).
  std::int64_t clippedLength(std::int32_t Row) const {
    return std::min(Ptr[Row + 1], Chunk.NnzEnd) -
           std::max(Ptr[Row], Chunk.NnzStart);
  }
  /// CSR index of band row \p Row's first nonzero inside the chunk.
  std::int64_t clippedBegin(std::int32_t Row) const {
    const std::int64_t I = std::max(Ptr[Row], Chunk.NnzStart);
    return Begin ? Begin[Row] + (I - Ptr[Row]) : I;
  }
  /// Matrix row of band row \p Row.
  std::int32_t matrixRow(std::int32_t Row) const {
    return RowOf ? RowOf[Row] : Row;
  }

  /// Feeds the next non-empty row into lane \p Em; false when rows are
  /// exhausted.
  bool feed(int Em) {
    std::int32_t Row;
    if (Cfg.SortFeedRowsByLength) {
      if (FeedCursor >= FeedList.size())
        return false;
      Row = FeedList[FeedCursor++];
    } else {
      while (NextRow <= Chunk.LastRow && clippedLength(NextRow) <= 0)
        ++NextRow;
      if (NextRow > Chunk.LastRow)
        return false;
      Row = NextRow++;
    }
    Tracker &T = Trackers[Em];
    T.CurRow = Row;
    T.ValId = clippedBegin(Row);
    T.Count = clippedLength(Row);
    T.Slot = -1;
    return true;
  }

  /// Records the finish of lane \p Em's current piece at stream position
  /// \p Pos (the paper's "Recording", Algorithm 3 l.13-14 / l.37-38).
  void recordFinish(int Em, std::int64_t Pos) {
    Tracker &T = Trackers[Em];
    if (T.CurRow < 0 && T.Slot < 0)
      return; // Lane never held a piece (initialization path).
    CvrRecord R;
    R.Pos = Pos;
    if (T.Slot < 0) {
      // Feed phase: the whole row finished inside this lane.
      R.Wb = matrixRow(T.CurRow);
      R.Steal = 0;
      R.Shared = static_cast<std::uint8_t>(T.CurRow == Chunk.FirstRow ||
                                           T.CurRow == Chunk.LastRow);
    } else {
      // Steal phase: the partial belongs to a t_result slot.
      R.Wb = T.Slot;
      R.Steal = 1;
      R.Shared = 0;
    }
    Out.Recs.push_back(R);
    T.CurRow = -1;
    T.Slot = -1;
  }

  /// Enters the steal phase: every lane still holding an unfinished row
  /// gets a t_result slot, and `tail` remembers which row each slot holds
  /// (the paper's tail vector, Algorithm 3 l.22-24).
  void snapshotTails() {
    assert(!TailsTaken && "tails must be snapshot exactly once");
    TailsTaken = true;
    for (int K = 0; K < Lanes; ++K) {
      Tracker &T = Trackers[K];
      if (T.Count > 0) {
        T.Slot = K;
        Tails[K] = matrixRow(T.CurRow);
      }
    }
  }

  /// Steals work for lane \p Em from the fullest lane (Algorithm 3
  /// l.29-44); false if no lane has elements to spare.
  bool steal(int Em) {
    if (!Cfg.EnableStealing)
      return false;
    int Candi = -1;
    std::int64_t Total = 0;
    for (int K = 0; K < Lanes; ++K) {
      Total += Trackers[K].Count;
      if (Candi < 0 || Trackers[K].Count > Trackers[Candi].Count)
        Candi = K;
    }
    if (Candi < 0 || Trackers[Candi].Count <= 1)
      return false;
    std::int64_t Average = std::max<std::int64_t>(1, Total / Lanes);
    std::int64_t Take = std::min(Average, Trackers[Candi].Count - 1);
    Tracker &T = Trackers[Em];
    Tracker &C = Trackers[Candi];
    T.ValId = C.ValId;
    T.Count = Take;
    T.Slot = C.Slot;
    T.CurRow = C.CurRow;
    C.ValId += Take;
    C.Count -= Take;
    return true;
  }

  /// Processes every lane whose piece finished: record, then feed or steal
  /// a replacement (the `!vector_reduceAnd(count)` branch of Algorithm 3).
  /// Returns the next run length — the smallest live count, i.e. the
  /// number of steps until the next finish event — or 0 when all lanes are
  /// done.
  std::int64_t refillLanes(std::int64_t Steps) {
    std::int64_t Run = 0;
    for (int Em = 0; Em < Lanes; ++Em) {
      Tracker &T = Trackers[Em];
      if (T.Count == 0) {
        if (T.Dead)
          continue;
        std::int64_t Pos = Steps * Lanes + Em;
        recordFinish(Em, Pos);
        if (!feed(Em)) {
          if (!TailsTaken)
            snapshotTails();
          if (!steal(Em)) {
            T.Dead = true;
            continue;
          }
          // Stealing may have shrunk an earlier lane's count below the
          // running minimum; recompute conservatively.
          Run = 0;
          Em = -1;
          continue;
        }
      }
      if (Run == 0 || T.Count < Run)
        Run = T.Count;
    }
    return Run;
  }

  /// Emits a run of steps in one go: until the next finish event, which by
  /// construction is min(count) = \p Run steps away, every live lane
  /// streams consecutive elements (the gather/store of Algorithm 3
  /// l.56-60, batched) and dead lanes emit pads (value 0, raw index 0).
  /// Returns false when the stream storage cannot grow.
  bool emitRun(std::int64_t &Steps, std::int64_t Run) {
    assert(Run >= 1 && "emitRun requires at least one step");

    const std::int64_t Base = Steps * Lanes;
    const std::int64_t Need = Base + Run * Lanes;
    const auto Have = static_cast<std::int64_t>(Out.Vals.size());
    if (Need > Have && !resizeStreams(std::max(Need, Have + Have / 2)))
      return false;

    // Blocked over steps so the lane-strided stores stay inside L1 even
    // for very long runs (a single pass per lane over a multi-hundred-KB
    // region would re-fetch every output line `Lanes` times).
    constexpr std::int64_t BlockSteps = 128;
    for (std::int64_t J0 = 0; J0 < Run; J0 += BlockSteps) {
      std::int64_t J1 = std::min(Run, J0 + BlockSteps);
      ValT *VOut = Out.Vals.data() + Base + J0 * Lanes;
      IdxT *COut = Out.ColIdx.data() + Base + J0 * Lanes;
      for (int K = 0; K < Lanes; ++K) {
        Tracker &T = Trackers[K];
        if (T.Count > 0) {
          const double *VIn = A.vals() + T.ValId + J0;
          const std::int32_t *CIn = A.colIdx() + T.ValId + J0;
          for (std::int64_t J = 0; J < J1 - J0; ++J) {
            VOut[J * Lanes + K] = static_cast<ValT>(VIn[J]);
            COut[J * Lanes + K] = static_cast<IdxT>(CIn[J] - IdxBase);
          }
        } else {
          for (std::int64_t J = 0; J < J1 - J0; ++J) {
            VOut[J * Lanes + K] = 0;
            COut[J * Lanes + K] = 0;
          }
        }
      }
    }
    for (Tracker &T : Trackers) {
      if (T.Count > 0) {
        T.ValId += Run;
        T.Count -= Run;
      }
    }
    Steps += Run;
    return true;
  }

  /// Sets both streams' length to \p Elems: the stream so far plus room
  /// to emit into, trimmed to the emitted steps at the end. False, marking
  /// the output failed, when the storage cannot grow.
  bool resizeStreams(std::int64_t Elems) {
    const auto N = static_cast<std::size_t>(Elems);
    Out.Ok = Out.Vals.tryResize(N).ok() && Out.ColIdx.tryResize(N).ok();
    return Out.Ok;
  }

  const CsrMatrix &A;
  const std::int64_t *Ptr;
  const std::int64_t *Begin; ///< Null: CSR index == band-local index.
  const std::int32_t *RowOf; ///< Null: band row == matrix row.
  /// U16Band stores deltas from the band's first column; U32 absolute ones.
  const std::int32_t IdxBase;
  const NnzChunk &Chunk;
  const ConverterConfig &Cfg;
  ItemStreams<ValT, IdxT> &Out;
  std::int32_t *Tails;
  static constexpr int Lanes = CvrMatrix::lanes();
  std::vector<Tracker> Trackers;
  std::int32_t NextRow = 0;
  std::vector<std::int32_t> FeedList; ///< Sort-first ablation feed order.
  std::size_t FeedCursor = 0;
  bool TailsTaken = false;
};

/// The stream of \p F that holds elements of type T.
template <typename T> AlignedBuffer<T> &stream(CvrMatrix::BlobFields F) {
  if constexpr (std::is_same_v<T, double>)
    return *F.Vals;
  else if constexpr (std::is_same_v<T, float>)
    return *F.Vals32;
  else if constexpr (std::is_same_v<T, std::int32_t>)
    return *F.ColIdx;
  else
    return *F.ColIdx16;
}

/// Converts \p A into \p F's streams, in the kinds ValT/IdxT: every
/// (band, chunk) item of \p Bands converts in one parallel region into
/// its own buffers, which a second parallel region copies into the shared
/// streams once every item's size is known (a single item moves its
/// buffers instead). Fills F's streams, records, tails and chunk table;
/// false when an allocation fails.
template <typename ValT, typename IdxT>
bool convertBands(const CsrMatrix &A, const std::vector<BandRows> &Bands,
                  const ConverterConfig &Cfg, CvrMatrix::BlobFields F) {
  constexpr int Lanes = CvrMatrix::lanes();
  const int PerBand = Cfg.NumThreads;
  const int NumItems = static_cast<int>(Bands.size()) * PerBand;
  std::vector<NnzChunk> Parts;
  Parts.reserve(static_cast<std::size_t>(NumItems));
  for (const BandRows &B : Bands) {
    std::vector<NnzChunk> P = partitionByNnz(B.Ptr, B.NumRows, PerBand);
    Parts.insert(Parts.end(), P.begin(), P.end());
  }
  if (!F.Tails->tryResize(static_cast<std::size_t>(NumItems) * Lanes, -1)
           .ok())
    return false;

  // Thread T handles chunk T of every band: the chunks split each band's
  // nonzeros evenly, so the threads' shares are even too.
  auto ForEachItem = [&](auto &&Body) {
    ompParallelFor(PerBand, PerBand, [&](int T) {
      for (std::size_t B = 0; B < Bands.size(); ++B)
        Body(static_cast<int>(B) * PerBand + T);
    });
  };

  // Each item converts independently (the paper converts per-thread in
  // parallel; the chunks are also what makes the conversion scalable).
  // std::vector growth inside an item can still throw bad_alloc; it must
  // not escape the parallel region, so it lands in the item's Ok flag.
  std::vector<ItemStreams<ValT, IdxT>> Items(Parts.size());
  ForEachItem([&](int I) {
    try {
      ChunkConverter<ValT, IdxT>(A, Bands[I / PerBand], Parts[I], Cfg,
                                 Items[I],
                                 F.Tails->data() +
                                     static_cast<std::size_t>(I) * Lanes)
          .convert();
    } catch (const std::bad_alloc &) {
      Items[I].Ok = false;
    }
  });

  std::int64_t Elems = 0, Recs = 0;
  F.Chunks->resize(Items.size());
  for (int I = 0; I < NumItems; ++I) {
    const ItemStreams<ValT, IdxT> &S = Items[I];
    if (!S.Ok)
      return false;
    const NnzChunk &P = Parts[I];
    const BandRows &B = Bands[I / PerBand];
    CvrChunk &C = (*F.Chunks)[I];
    C.ElemBase = Elems;
    C.NumSteps = S.NumSteps;
    C.RecBase = Recs;
    C.RecEnd = Recs + static_cast<std::int64_t>(S.Recs.size());
    C.TailBase = static_cast<std::int64_t>(I) * Lanes;
    C.FirstRow = P.empty() ? -1 : B.row(P.FirstRow);
    C.LastRow = P.empty() ? -1 : B.row(P.LastRow);
    Elems += static_cast<std::int64_t>(S.Vals.size());
    Recs = C.RecEnd;
  }

  AlignedBuffer<ValT> &Vals = stream<ValT>(F);
  AlignedBuffer<IdxT> &ColIdx = stream<IdxT>(F);
  if (NumItems == 1) {
    Vals = std::move(Items[0].Vals);
    ColIdx = std::move(Items[0].ColIdx);
    *F.Recs = std::move(Items[0].Recs);
  } else {
    if (!Vals.tryResize(static_cast<std::size_t>(Elems)).ok() ||
        !ColIdx.tryResize(static_cast<std::size_t>(Elems)).ok())
      return false;
    F.Recs->resize(static_cast<std::size_t>(Recs));
    ForEachItem([&](int I) {
      const ItemStreams<ValT, IdxT> &S = Items[I];
      const CvrChunk &C = (*F.Chunks)[I];
      if (!S.Vals.empty()) {
        std::memcpy(Vals.data() + C.ElemBase, S.Vals.data(),
                    S.Vals.size() * sizeof(ValT));
        std::memcpy(ColIdx.data() + C.ElemBase, S.ColIdx.data(),
                    S.ColIdx.size() * sizeof(IdxT));
      }
      if (!S.Recs.empty())
        std::memcpy(F.Recs->data() + C.RecBase, S.Recs.data(),
                    S.Recs.size() * sizeof(CvrRecord));
    });
  }

  return true;
}

} // namespace detail
} // namespace cvr

#endif // CVR_CORE_CVRCONVERTER_H
