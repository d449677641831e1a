//===- analysis/CheckedSpmv.cpp - Bounds-checked CVR SpMV -----------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckedSpmv.h"

#include "analysis/Introspect.h"
#include "core/CvrChunkLoop.h"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace cvr {
namespace analysis {

namespace {

/// The bounds guard: the observer under which checked mode runs the scalar
/// chunk loop (core/CvrChunkLoop.h). It vets each reference before the loop
/// makes it, reports a bad one as a checked.cvr.* Violation and vetoes it:
/// a bad chunk is skipped entirely (nothing it references can be trusted),
/// a bad record leaves its lane untouched, a bad gather contributes 0 and a
/// bad tail row is not written.
class BoundsGuard {
public:
  explicit BoundsGuard(std::vector<Violation> &Out) : Out(&Out) {}

  /// Capped report against the current chunk (-1 before the first one:
  /// the y prologue).
  void report(const char *Rule, std::int64_t Where, const char *What,
              std::int64_t Bad, std::int64_t Limit) {
    if (Out->size() >= InvariantChecker::MaxViolations)
      return;
    char Loc[64], Msg[128];
    std::snprintf(Loc, sizeof(Loc), "chunk %d, offset %lld", Chunk,
                  static_cast<long long>(Where));
    std::snprintf(Msg, sizeof(Msg), "%s %lld outside [0, %lld)", What,
                  static_cast<long long>(Bad), static_cast<long long>(Limit));
    Out->push_back({Rule, Loc, Msg});
  }

  /// Validates the chunk's stream/record/tail extents before the loop walks
  /// them. The element range must fit the shorter of the value and index
  /// streams.
  bool chunk(const CvrMatrix &M, const CvrChunk &C) {
    Chunk = static_cast<int>(&C - M.chunks().data());
    W = M.lanes();
    Rows = M.numRows();
    Cols = M.numCols();
    PosLimit = (C.NumSteps + 1) * W;
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
    bool Ok = true;
    if (C.ElemBase < 0 || C.NumSteps < 0 ||
        C.ElemBase + C.NumSteps * W > NumElems) {
      report("checked.cvr.chunk", 0, "element range end",
             C.ElemBase + C.NumSteps * W, NumElems);
      Ok = false;
    }
    if (C.RecBase < 0 || C.RecEnd < C.RecBase || C.RecEnd > NumRecs) {
      report("checked.cvr.chunk", 0, "record range end", C.RecEnd, NumRecs);
      Ok = false;
    }
    if (C.TailBase < 0 || C.TailBase + W > NumTails) {
      report("checked.cvr.chunk", 0, "tail base", C.TailBase, NumTails);
      Ok = false;
    }
    return Ok;
  }

  /// Record positions must fall inside the chunk's stream; steal records
  /// target the chunk's t_result slots, feed records rows of y.
  bool record(const CvrRecord &R, std::int64_t RecIdx) {
    if (R.Pos < 0 || R.Pos >= PosLimit) {
      report("checked.cvr.rec-pos", RecIdx, "record position", R.Pos,
             PosLimit);
      return false;
    }
    if (R.Steal && (R.Wb < 0 || R.Wb >= W)) {
      report("checked.cvr.tresult", RecIdx, "t_result slot", R.Wb, W);
      return false;
    }
    if (!R.Steal && (R.Wb < 0 || R.Wb >= Rows)) {
      report("checked.cvr.scatter", RecIdx, "feed row", R.Wb, Rows);
      return false;
    }
    return true;
  }

  bool loads(std::int64_t) { return true; }

  bool gather(const double *, std::int32_t Col, std::int64_t Elem) {
    if (Col >= 0 && Col < Cols)
      return true;
    report("checked.cvr.gather", Elem, "gather column", Col, Cols);
    return false;
  }

  template <class WriteBack>
  bool finish(const WriteBack &, std::int32_t, bool) {
    return true;
  }

  bool tail(const std::int32_t *Slot, int K) {
    if (*Slot < Rows)
      return true;
    report("checked.cvr.tail", K, "tail row", *Slot, Rows);
    return false;
  }

private:
  std::vector<Violation> *Out;
  int Chunk = -1;
  std::int64_t W = 0, Rows = 0, Cols = 0, PosLimit = 0;
};

} // namespace

void cvrSpmvChecked(const CvrMatrix &M, const double *X, double *Y,
                    std::vector<Violation> &Vs) {
  BoundsGuard Guard(Vs);
  // Pre-clear y the way the production kernel does: blocked matrices zero
  // every row (accumulate mode), unblocked matrices only the listed rows.
  if (M.isBlocked()) {
    for (std::int32_t R = 0; R < M.numRows(); ++R)
      Y[R] = 0.0;
  } else {
    for (std::int32_t R : M.zeroRows()) {
      if (R < 0 || R >= M.numRows())
        Guard.report("checked.cvr.zero-row", R, "zeroed row", R, M.numRows());
      else
        Y[R] = 0.0;
    }
  }
  // Serially, chunk by chunk, so the output is bit-deterministic.
  for (const CvrChunk &C : M.chunks()) {
    if (M.isBlocked())
      detail::runChunkGeneric(M, C, X, /*PfDist=*/0,
                              detail::AccumulateWriteBack{Y}, Guard);
    else
      detail::runChunkGeneric(M, C, X, /*PfDist=*/0,
                              detail::StoreWriteBack{Y}, Guard);
  }
}

} // namespace analysis
} // namespace cvr
