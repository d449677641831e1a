//===- core/CvrConverter.h - Shared CVR conversion engine -------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracker-based CVR conversion (Section 4.2 / Algorithm 3). It always
/// emits f64 value streams; CvrMatrix::compressStreams narrows them to the
/// f32 value kind afterwards. This header is private to core/ — include
/// CvrFormat.h instead.
///
/// The engine turns one nnz chunk of a CSR matrix into a dense
/// `steps x lanes` stream: trackers *feed* on the next non-empty row when a
/// lane drains, *steal* the head of the fullest lane once rows run out, and
/// every finish event appends a `(pos, wb)` record. See CvrFormat.h for the
/// full data-model description.
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
#include <vector>

namespace cvr {
namespace detail {

/// Engine knobs (the conversion subset of CvrOptions).
struct ConverterConfig {
  int NumThreads = 0;
  bool EnableStealing = true;
  /// Feed rows longest-first instead of in matrix order (the sort-first
  /// ablation; the paper deliberately keeps matrix order for O(nnz)
  /// preprocessing and x-locality between adjacent rows).
  bool SortFeedRowsByLength = false;
};

/// Conversion output for one matrix: everything a CvrMatrix stores.
/// `Ok == false` means an allocation failed mid-conversion (real OOM or
/// the `alloc.aligned-buffer` fail point); the streams are then
/// incomplete and must be discarded — CvrMatrix::tryFromCsr turns this
/// into a RESOURCE_EXHAUSTED Status.
struct ConvertedStreams {
  AlignedBuffer<double> Vals;
  AlignedBuffer<std::int32_t> ColIdx;
  std::vector<CvrRecord> Recs;
  AlignedBuffer<std::int32_t> Tails;
  std::vector<CvrChunk> Chunks;
  std::vector<std::int32_t> ZeroRows;
  bool Ok = true;
};

/// Per-chunk conversion output built locally by each thread and stitched
/// into the shared streams afterwards.
struct ChunkBuild {
  AlignedBuffer<double> Vals;         // Uninitialized growth: every slot is
  AlignedBuffer<std::int32_t> ColIdx; // overwritten by the emit loop.
  std::vector<CvrRecord> Recs;
  std::vector<std::int32_t> Tails;
  std::int64_t NumSteps = 0;
  bool Ok = true; ///< False: allocation failed; streams are incomplete.
};

/// One tracker (the paper's rowID/valID/count triple) plus the bookkeeping
/// this implementation adds: the result slot a stolen piece belongs to.
struct Tracker {
  std::int32_t CurRow = -1; ///< Row being streamed (-1: no piece).
  std::int64_t ValId = 0;   ///< Next CSR element index of the piece.
  std::int64_t Count = 0;   ///< Elements left in the piece.
  std::int32_t Slot = -1;   ///< t_result slot (-1 while in feed phase).
  bool Dead = false;        ///< No work left for this lane.
};

class ChunkConverter {
public:
  ChunkConverter(const CsrMatrix &A, const NnzChunk &Chunk,
                 const ConverterConfig &Cfg, ChunkBuild &Out)
      : A(A), Chunk(Chunk), Cfg(Cfg), Out(Out), Trackers(Lanes) {}

  void convert() {
    if (Chunk.empty())
      return;
    NextRow = Chunk.FirstRow;
    Out.Tails.assign(Lanes, -1);

    if (Cfg.SortFeedRowsByLength) {
      // Sort-first ablation: feed the chunk's non-empty rows by descending
      // clipped length. This is the extra preprocessing the paper avoids.
      for (std::int32_t R = Chunk.FirstRow; R <= Chunk.LastRow; ++R)
        if (rowEnd(R) - rowBegin(R) > 0)
          FeedList.push_back(R);
      std::stable_sort(FeedList.begin(), FeedList.end(),
                       [&](std::int32_t L, std::int32_t R) {
                         return rowEnd(L) - rowBegin(L) >
                                rowEnd(R) - rowBegin(R);
                       });
    }

    // Preallocate for the common case (steps ~= nnz/lanes); the stream
    // only exceeds this when lanes idle near the chunk end. Allocation
    // failure (real or injected) marks the build failed instead of
    // terminating — the caller surfaces it as a Status.
    std::int64_t Estimate = ((Chunk.size() + Lanes - 1) / Lanes + 4) * Lanes;
    if (!Out.Vals.tryReserve(static_cast<std::size_t>(Estimate)).ok() ||
        !Out.ColIdx.tryReserve(static_cast<std::size_t>(Estimate)).ok()) {
      Out.Ok = false;
      return;
    }
    Out.Recs.reserve(static_cast<std::size_t>(Chunk.LastRow -
                                              Chunk.FirstRow + 1 + 2 * Lanes));

    std::int64_t Steps = 0;
    std::int64_t Run;
    while ((Run = refillLanes(Steps)) > 0)
      if (!emitRun(Steps, Run)) {
        Out.Ok = false;
        return;
      }
    // Pad to an even step count: the kernel loads the column indices
    // of two steps as one 16-index vector.
    if (Steps % 2 != 0) {
      if (!emitPadStep()) {
        Out.Ok = false;
        return;
      }
      ++Steps;
    }
    Out.NumSteps = Steps;
  }

private:
  /// Effective nnz range of \p Row clipped to the chunk.
  std::int64_t rowBegin(std::int32_t Row) const {
    return std::max(A.rowPtr()[Row], Chunk.NnzStart);
  }
  std::int64_t rowEnd(std::int32_t Row) const {
    return std::min(A.rowPtr()[Row + 1], Chunk.NnzEnd);
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
      while (NextRow <= Chunk.LastRow &&
             rowEnd(NextRow) - rowBegin(NextRow) <= 0)
        ++NextRow;
      if (NextRow > Chunk.LastRow)
        return false;
      Row = NextRow++;
    }
    Tracker &T = Trackers[Em];
    T.CurRow = Row;
    T.ValId = rowBegin(Row);
    T.Count = rowEnd(Row) - T.ValId;
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
      R.Wb = T.CurRow;
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
        Out.Tails[K] = T.CurRow;
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
  /// l.56-60, batched). Dead lanes emit zero pads. Returns false when the
  /// stream storage cannot grow.
  bool emitRun(std::int64_t &Steps, std::int64_t Run) {
    assert(Run >= 1 && "emitRun requires at least one live lane");

    std::size_t Base = Out.Vals.size();
    if (!Out.Vals.tryResize(Base + static_cast<std::size_t>(Run) * Lanes)
             .ok() ||
        !Out.ColIdx.tryResize(Base + static_cast<std::size_t>(Run) * Lanes)
             .ok())
      return false;

    // Blocked over steps so the lane-strided stores stay inside L1 even
    // for very long runs (a single pass per lane over a multi-hundred-KB
    // region would re-fetch every output line `Lanes` times).
    constexpr std::int64_t BlockSteps = 128;
    for (std::int64_t J0 = 0; J0 < Run; J0 += BlockSteps) {
      std::int64_t J1 = std::min(Run, J0 + BlockSteps);
      double *VOut = Out.Vals.data() + Base + J0 * Lanes;
      std::int32_t *COut = Out.ColIdx.data() + Base + J0 * Lanes;
      for (int K = 0; K < Lanes; ++K) {
        Tracker &T = Trackers[K];
        if (T.Count > 0) {
          assert(T.ValId + (J1 - J0) <= Chunk.NnzEnd &&
                 "tracker escaped its chunk");
          const double *VIn = A.vals() + T.ValId + J0;
          const std::int32_t *CIn = A.colIdx() + T.ValId + J0;
          for (std::int64_t J = 0; J < J1 - J0; ++J) {
            VOut[J * Lanes + K] = VIn[J];
            COut[J * Lanes + K] = CIn[J];
          }
        } else {
          for (std::int64_t J = 0; J < J1 - J0; ++J) {
            VOut[J * Lanes + K] = 0.0;
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

  bool emitPadStep() {
    std::size_t Need = Out.Vals.size() + static_cast<std::size_t>(Lanes);
    if (!Out.Vals.tryReserve(Need).ok() || !Out.ColIdx.tryReserve(Need).ok())
      return false;
    for (int K = 0; K < Lanes; ++K) {
      Out.Vals.push_back(0.0);
      Out.ColIdx.push_back(0);
    }
    return true;
  }

  const CsrMatrix &A;
  const NnzChunk &Chunk;
  const ConverterConfig &Cfg;
  ChunkBuild &Out;
  static constexpr int Lanes = CvrMatrix::lanes();
  std::vector<Tracker> Trackers;
  std::int32_t NextRow = 0;
  std::vector<std::int32_t> FeedList; ///< Sort-first ablation feed order.
  std::size_t FeedCursor = 0;
  bool TailsTaken = false;
};

/// Converts all chunks of \p A in parallel and stitches the results.
inline ConvertedStreams convertToCvrStreams(const CsrMatrix &A,
                                            const ConverterConfig &Cfg) {
  int NumThreads = Cfg.NumThreads > 0 ? Cfg.NumThreads : defaultThreadCount();

  ConvertedStreams S;
  std::vector<NnzChunk> Parts = partitionByNnz(A, NumThreads);
  std::vector<ChunkBuild> Builds(Parts.size());

  // Each chunk converts independently (the paper converts per-thread in
  // parallel; the chunks are also what makes the conversion scalable).
  // std::vector growth inside a chunk can still throw bad_alloc; it must
  // not escape the parallel region, so it lands in the same Ok flag the
  // AlignedBuffer try-paths use.
  ompParallelFor(static_cast<int>(Parts.size()), NumThreads, [&](int T) {
    try {
      ChunkConverter Conv(A, Parts[T], Cfg, Builds[T]);
      Conv.convert();
    } catch (const std::bad_alloc &) {
      Builds[T].Ok = false;
    }
  });
  for (const ChunkBuild &B : Builds)
    if (!B.Ok) {
      S.Ok = false;
      return S;
    }

  // Stitch the per-chunk outputs into contiguous shared streams. With a
  // single chunk the buffers move without a copy.
  if (!S.Tails.tryResize(Parts.size() * CvrMatrix::lanes()).ok()) {
    S.Ok = false;
    return S;
  }
  S.Tails.fill(-1);
  S.Chunks.resize(Parts.size());

  if (Parts.size() == 1) {
    ChunkBuild &B = Builds[0];
    CvrChunk &C = S.Chunks[0];
    C.NumSteps = B.NumSteps;
    C.RecEnd = static_cast<std::int64_t>(B.Recs.size());
    C.FirstRow = Parts[0].FirstRow;
    C.LastRow = Parts[0].LastRow;
    S.Vals = std::move(B.Vals);
    S.ColIdx = std::move(B.ColIdx);
    S.Recs = std::move(B.Recs);
    for (std::size_t K = 0; K < B.Tails.size(); ++K)
      S.Tails[K] = B.Tails[K];
  } else {
    std::int64_t TotalElems = 0, TotalRecs = 0;
    for (const ChunkBuild &B : Builds) {
      TotalElems += static_cast<std::int64_t>(B.Vals.size());
      TotalRecs += static_cast<std::int64_t>(B.Recs.size());
    }
    if (!S.Vals.tryResize(static_cast<std::size_t>(TotalElems)).ok() ||
        !S.ColIdx.tryResize(static_cast<std::size_t>(TotalElems)).ok()) {
      S.Ok = false;
      return S;
    }
    S.Recs.resize(static_cast<std::size_t>(TotalRecs));

    std::int64_t ElemCursor = 0, RecCursor = 0;
    for (std::size_t T = 0; T < Parts.size(); ++T) {
      ChunkBuild &B = Builds[T];
      CvrChunk &C = S.Chunks[T];
      C.ElemBase = ElemCursor;
      C.NumSteps = B.NumSteps;
      C.RecBase = RecCursor;
      C.RecEnd = RecCursor + static_cast<std::int64_t>(B.Recs.size());
      C.TailBase = static_cast<std::int64_t>(T) * CvrMatrix::lanes();
      C.FirstRow = Parts[T].FirstRow;
      C.LastRow = Parts[T].LastRow;
      if (!B.Vals.empty()) {
        std::memcpy(S.Vals.data() + ElemCursor, B.Vals.data(),
                    B.Vals.size() * sizeof(double));
        std::memcpy(S.ColIdx.data() + ElemCursor, B.ColIdx.data(),
                    B.ColIdx.size() * sizeof(std::int32_t));
      }
      if (!B.Recs.empty())
        std::memcpy(S.Recs.data() + RecCursor, B.Recs.data(),
                    B.Recs.size() * sizeof(CvrRecord));
      for (std::size_t K = 0; K < B.Tails.size(); ++K)
        S.Tails[C.TailBase + K] = B.Tails[K];
      ElemCursor += static_cast<std::int64_t>(B.Vals.size());
      RecCursor += static_cast<std::int64_t>(B.Recs.size());
    }
  }

  // Rows the kernel must pre-zero: empty rows (never fed anywhere) and
  // every chunk boundary row (accumulated with += across chunks).
  for (std::int32_t R = 0; R < A.numRows(); ++R)
    if (A.rowLength(R) == 0)
      S.ZeroRows.push_back(R);
  for (const CvrChunk &C : S.Chunks) {
    if (C.FirstRow >= 0)
      S.ZeroRows.push_back(C.FirstRow);
    if (C.LastRow >= 0 && C.LastRow != C.FirstRow)
      S.ZeroRows.push_back(C.LastRow);
  }
  std::sort(S.ZeroRows.begin(), S.ZeroRows.end());
  S.ZeroRows.erase(std::unique(S.ZeroRows.begin(), S.ZeroRows.end()),
                   S.ZeroRows.end());
  return S;
}

} // namespace detail
} // namespace cvr

#endif // CVR_CORE_CVRCONVERTER_H
