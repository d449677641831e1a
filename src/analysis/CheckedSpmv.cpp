//===- analysis/CheckedSpmv.cpp - Bounds-checked CVR SpMV -----------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckedSpmv.h"

#include "analysis/Introspect.h"
#include "core/CvrChunkLoop.h"
#include "formats/SpmvKernel.h"

#include <algorithm>
#include <string>
#include <vector>

namespace cvr {
namespace analysis {

namespace {

/// "<What> <Bad> outside [<Lo>, <Hi>)".
std::string outside(const char *What, std::int64_t Bad, std::int64_t Lo,
                    std::int64_t Hi) {
  return std::string(What) + " " + std::to_string(Bad) + " outside [" +
         std::to_string(Lo) + ", " + std::to_string(Hi) + ")";
}

/// The bounds guard: the observer under which checked mode runs the pass
/// (core/CvrChunkLoop.h), for SpMV and SpMM alike. It vets each reference
/// before the loop makes it, reports a bad one as a checked.cvr.* Violation
/// and vetoes it: a bad zero row is not cleared, a bad chunk is skipped
/// entirely (nothing it references can be trusted), a bad column lane
/// contributes 0 and is never dereferenced, a drain that would run past
/// the chunk's records is dropped, a retired value whose record is bad, or
/// was staged from another position, is dropped, and a bad tail row is not
/// written. The stream loads and row finishes need no vetting
/// of their own, so those hooks stay NoObserver's.
class BoundsGuard : public detail::NoObserver {
public:
  explicit BoundsGuard(std::vector<Violation> &Out) : Out(&Out) {}

  /// Capped report against the current chunk (-1 before the first one:
  /// the y prologue).
  void report(const char *Rule, std::int64_t Where, std::string Msg) {
    if (Out->size() >= InvariantChecker::MaxViolations)
      return;
    Out->push_back({Rule,
                    "chunk " + std::to_string(Chunk) + ", offset " +
                        std::to_string(Where),
                    std::move(Msg)});
  }

  /// A row of y the prologue clears must exist.
  template <class WriteBack>
  bool zero(const CvrMatrix &M, const WriteBack &, std::int32_t Row) {
    if (Row >= 0 && Row < M.numRows())
      return true;
    report("checked.cvr.zero-row", Row,
           outside("zeroed row", Row, 0, M.numRows()));
    return false;
  }

  /// Validates the chunk's stream/mask/record/tail extents before the loop
  /// walks them. The element range must fit the shorter of the value and
  /// index streams; steps run in pairs, so an odd count reads one more.
  bool chunk(const CvrMatrix &M, const CvrChunk &C) {
    Chunk = static_cast<int>(&C - M.chunks().data());
    Rows = M.numRows();
    Cols = M.numCols();
    NumSteps = C.NumSteps;
    PosLimit = (C.NumSteps + 1) * W;
    Recs = M.recs();
    RecEnd = C.RecEnd;
    Pending.clear();
    const std::int64_t NumElems = static_cast<std::int64_t>(std::min(
        M.valueKind() == ValueKind::F32x64 ? Introspect::vals32(M).size()
                                           : Introspect::vals(M).size(),
        M.colIndexKind() == ColIndexKind::U16Band
            ? Introspect::colIdx16(M).size()
            : Introspect::colIdx(M).size()));
    const std::int64_t NumRecs =
        static_cast<std::int64_t>(Introspect::recs(M).size());
    const std::int64_t NumTails =
        static_cast<std::int64_t>(Introspect::tails(M).size());
    const AlignedBuffer<std::uint8_t> &Masks = Introspect::finishMasks(M);
    const std::uint8_t *First = M.finishMasks(static_cast<std::size_t>(Chunk));
    const std::int64_t ElemEnd = C.ElemBase + (C.NumSteps + C.NumSteps % 2) * W;
    const std::int64_t MaskEnd =
        First ? First - Masks.data() + C.NumSteps + 1 : -1;
    bool Ok = true;
    if (C.ElemBase < 0 || C.NumSteps < 0 || ElemEnd > NumElems) {
      report("checked.cvr.chunk", 0,
             outside("element range end", ElemEnd, 0, NumElems + 1));
      Ok = false;
    }
    const auto NumMasks = static_cast<std::int64_t>(Masks.size());
    if (MaskEnd < 0 || MaskEnd > NumMasks) {
      report("checked.cvr.chunk", 0,
             outside("finish-mask range end", MaskEnd, 0, NumMasks + 1));
      Ok = false;
    }
    if (C.RecBase < 0 || C.RecEnd < C.RecBase || C.RecEnd > NumRecs) {
      report("checked.cvr.chunk", 0,
             outside("record range end", C.RecEnd, 0, NumRecs + 1));
      Ok = false;
    }
    if (C.TailBase < 0 || C.TailBase + W > NumTails) {
      report("checked.cvr.chunk", 0,
             outside("tail base", C.TailBase, 0, NumTails - W + 1));
      Ok = false;
    }
    return Ok;
  }

  /// Remembers the stream position each staged lane finishes at, in the
  /// order the loop stages them.
  void retire(std::int64_t I, unsigned Mask) {
    Trailing = I == NumSteps;
    for (int K = 0; K < W; ++K)
      if (Mask & (1U << K))
        Pending.push_back(I * W + K);
  }

  /// Drops (and reports) each lane whose column falls outside x.
  unsigned gather(simd::VecI8 Idx, std::int64_t Elem) {
    std::int32_t Col[W];
    Idx.storeu(Col);
    unsigned Live = simd::AllLanes;
    for (int K = 0; K < W; ++K)
      if (Col[K] < 0 || Col[K] >= Cols) {
        report("checked.cvr.gather", Elem + K,
               outside("gather column", Col[K], 0, Cols));
        Live &= ~(1U << K);
      }
    return Live;
  }

  /// The finish masks stage exactly one value per record: a drain may not
  /// run past the chunk's records, and the trailing drain must consume
  /// the last of them.
  bool drain(const CvrRecord *Next, int Staged) {
    Draining.swap(Pending);
    Pending.clear();
    const std::int64_t From = Next - Recs;
    if (From + Staged > RecEnd) {
      report("checked.cvr.finish-mask", From,
             outside("drain end", From + Staged, 0, RecEnd + 1));
      return false;
    }
    if (Trailing && From + Staged < RecEnd)
      report("checked.cvr.finish-mask", From + Staged,
             std::to_string(RecEnd - From - Staged) +
                 " records left undrained at the chunk end");
    return true;
  }

  /// A record must sit where its staged value finished (a per-record
  /// retire, Slot -1, reads the record's own lane); steal records target
  /// the chunk's t_result slots, feed records rows of y.
  bool record(const CvrRecord &R, int Slot) {
    const std::int64_t RecIdx = &R - Recs;
    const std::int64_t StagedAt =
        Slot < 0 ? R.Pos : Draining[static_cast<std::size_t>(Slot)];
    const std::int64_t WbLimit = R.Steal ? W : Rows;
    if (R.Pos < 0 || R.Pos >= PosLimit) {
      report("checked.cvr.rec-pos", RecIdx,
             outside("record position", R.Pos, 0, PosLimit));
    } else if (R.Pos != StagedAt) {
      report("checked.cvr.finish-mask", RecIdx,
             "record position " + std::to_string(R.Pos) +
                 " drains the value staged at " + std::to_string(StagedAt));
    } else if (R.Wb < 0 || R.Wb >= WbLimit) {
      report(R.Steal ? "checked.cvr.tresult" : "checked.cvr.scatter", RecIdx,
             outside(R.Steal ? "t_result slot" : "feed row", R.Wb, 0,
                     WbLimit));
    } else {
      return true;
    }
    return false;
  }

  /// -1 marks an unused slot; anything else must be a row of y.
  bool tail(const std::int32_t *Slot, int K) {
    if (*Slot >= -1 && *Slot < Rows)
      return true;
    report("checked.cvr.tail", K, outside("tail row", *Slot, -1, Rows));
    return false;
  }

private:
  static constexpr int W = CvrMatrix::lanes();
  std::vector<Violation> *Out;
  int Chunk = -1;
  std::int64_t Rows = 0, Cols = 0, NumSteps = 0, PosLimit = 0, RecEnd = 0;
  const CvrRecord *Recs = nullptr;
  /// Stream positions of the values staged since the last drain, and of
  /// the values the current drain hands out.
  std::vector<std::int64_t> Pending, Draining;
  bool Trailing = false; ///< The last retire staged the trailing records.
};

} // namespace

void cvrSpmvChecked(const CvrMatrix &M, const double *X, double *Y,
                    std::vector<Violation> &Vs) {
  detail::runPass<detail::GatherLanes<0>>(M, X, detail::StoreWriteBack{Y},
                                          detail::AccumulateWriteBack{Y},
                                          BoundsGuard(Vs));
}

Status cvrSpmmChecked(const CvrMatrix &M, const double *X, std::size_t LdX,
                      double *Y, std::size_t LdY, int NumVectors,
                      std::vector<Violation> &Vs) {
  Status S = validatePanelArgs(X, LdX, Y, LdY, NumVectors);
  if (S.ok())
    detail::runPanels(M, X, LdX, Y, LdY, NumVectors, BoundsGuard(Vs));
  return S;
}

} // namespace analysis
} // namespace cvr
