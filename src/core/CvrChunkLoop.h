//===- core/CvrChunkLoop.h - The CVR chunk loop -----------------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one CVR chunk loop (Algorithm 4 on the 8-lane vector of simd/Simd.h,
/// AVX-512 or emulated) and the Store/Accumulate write-back policies. This
/// header is private to core/ and analysis/. CvrSpmv.cpp runs and traces
/// SpMV through the loop; checked mode (analysis/CheckedSpmv.cpp) runs it
/// under its bounds guard.
///
/// runChunk is templated on the prefetch distance, the two stream kinds
/// and two policies. The write-back policy decides how a finished row
/// leaves the kernel (finish() and traceFinish()); Store and Accumulate
/// are the only two, since a fused epilogue is a sweep after the loop.
/// The observer sees every memory reference the loop is about to make (see
/// NoObserver for the hooks). Three observers exist:
///
///  - NoObserver (below), for execution: every veto is a constant true
///    (all lanes for the gather), so the loop compiles to the plain kernel.
///  - The trace observer in CvrSpmv.cpp reports each reference to a
///    MemAccessSink (traceRun).
///  - The bounds guard in analysis/CheckedSpmv.cpp reports each
///    out-of-range reference as a checked.cvr.* violation and vetoes it.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_CORE_CVRCHUNKLOOP_H
#define CVR_CORE_CVRCHUNKLOOP_H

#include "core/CvrFormat.h"
#include "simd/Simd.h"
#include "support/Annotations.h"
#include "support/MemSink.h"

#include <algorithm>
#include <cstdint>

namespace cvr {
namespace detail {

/// The Store (Add = false) and Accumulate (Add = true) policies. Every row
/// other than a chunk-boundary row has exactly one writer within a band, so
/// a plain store, or a plain add in accumulate mode, suffices.
template <bool Add> struct RowWriteBack {
  double *Y;

  CVR_HOT void finish(std::int32_t Row, double V, bool Shared) const {
    if (Shared) {
#pragma omp atomic
      Y[Row] += V;
    } else if (Add) {
      Y[Row] += V;
    } else {
      Y[Row] = V;
    }
  }

  void traceFinish(MemAccessSink &Sink, std::int32_t Row, bool Shared) const {
    if (Shared || Add)
      Sink.read(Y + Row, sizeof(double));
    Sink.write(Y + Row, sizeof(double));
  }
};

using StoreWriteBack = RowWriteBack<false>;
using AccumulateWriteBack = RowWriteBack<true>;

/// The execution observer: lets every access through. Its hooks are the
/// observer interface; a hook that can veto returns whether the loop may go
/// ahead. Other observers derive from it and hide the hooks they need.
struct NoObserver {
  /// Entry to chunk \p C; false skips the chunk.
  bool chunk(const CvrMatrix &, const CvrChunk &) { return true; }
  /// Step \p I (the chunk's NumSteps for the trailing records) is about to
  /// stage the lanes set in its finish-mask byte \p Mask.
  void retire(std::int64_t, unsigned) {}
  /// Step \p I is about to load its value vector, and at even I the index
  /// vector of the step pair.
  void loads(std::int64_t) {}
  /// The step whose first stream element is \p Elem is about to gather
  /// x[Idx[k]]; returns the lanes that may gather (the others read 0).
  unsigned gather(const double *, simd::VecI8, std::int64_t) {
    return simd::AllLanes;
  }
  /// \p Staged values are about to drain through the records from \p Next
  /// on; false drops them all.
  bool drain(const CvrRecord *, int) { return true; }
  /// Record \p R is about to take staged value \p Slot of the drain; false
  /// drops the value.
  bool record(const CvrRecord &, int) { return true; }
  /// \p Out is about to finish \p Row.
  template <class WriteBack>
  void finish(const WriteBack &, std::int32_t, bool) {}
  /// Tail slot \p K, at \p Slot, is about to be read; false skips it.
  bool tail(const std::int32_t *, int) { return true; }
};

/// One chunk of the 8-lane kernel (Algorithm 4). PfDist > 0 issues
/// software prefetches of the x gather targets (and the vals/cols streams)
/// PfDist steps ahead, using the already-streamed column indices; the host
/// has no AVX-512PF, so the prefetches are scalar.
///
/// NarrowIdx streams band-local uint16 deltas (widened + rebased onto the
/// chunk's band base at load time) and NarrowVal streams fp32 values
/// (widened to fp64 before the FMA) — the stream-compression axes. The
/// loop structure — one index load per step pair, one value load and one
/// gather per step — is identical across all four combinations; only the
/// load width changes. \p Out is the write-back policy, \p Obs the
/// observer.
///
/// Each step first moves the lanes its finish mask names out of v_out into
/// a staging buffer, then accumulates. After every block of 64 steps the
/// staged values, in record order, leave through the block's records:
/// steal records add to t_result, feed records go through \p Out.finish.
/// The mask byte past the last step stages the trailing records.
///
/// Internal linkage keeps GCC inlining every write-back into the loop, as
/// for a kernel local to its translation unit.
template <int PfDist, bool NarrowIdx, bool NarrowVal, class WriteBack,
          class Observer = NoObserver>
static CVR_HOT void runChunk(const CvrMatrix &M, const CvrChunk &C,
                             const double *X, WriteBack Out,
                             Observer Obs = {}) {
  static_assert(PfDist % 2 == 0, "prefetch pairs with the double-pumped "
                                 "column loads, so the distance stays even");
  constexpr int W = CvrMatrix::lanes();
  static_assert(W == simd::DoubleLanes, "one CVR step fills one VecD8");
  constexpr std::int64_t BlockSteps = 64;
  if (!Obs.chunk(M, C))
    return;
  const auto CI = static_cast<std::size_t>(&C - M.chunks().data());
  const std::int32_t ColBase = M.chunkColBase(CI);
  const std::uint8_t *Masks = M.finishMasks(CI);
  const double *Vals = NarrowVal ? nullptr : M.vals() + C.ElemBase;
  const float *Vals32 = NarrowVal ? M.vals32() + C.ElemBase : nullptr;
  const std::int32_t *Cols = NarrowIdx ? nullptr : M.colIdx() + C.ElemBase;
  const std::uint16_t *ColsN =
      NarrowIdx ? M.colIdx16() + C.ElemBase : nullptr;
  const CvrRecord *Rec = M.recs() + C.RecBase;

  alignas(64) double TResult[W] = {0};
  alignas(64) double Stage[BlockSteps * W];
  int Staged = 0;
  simd::VecD8 VOut = simd::VecD8::zero();

  // Stages and clears the lanes that finish before step I (the lane's dot
  // product is complete just before the step's elements are consumed).
  auto Retire = [&](std::int64_t I) {
    const unsigned F = Masks[I];
    Obs.retire(I, F);
    Staged += VOut.compressStoreu(Stage + Staged, F);
    VOut = VOut.clearLanes(F);
  };
  auto Step = [&](std::int64_t I, simd::VecI8 Idx) {
    Retire(I);
    Obs.loads(I);
    const unsigned Live = Obs.gather(X, Idx, C.ElemBase + I * W);
    simd::VecD8 Xs = Live == simd::AllLanes
                         ? simd::VecD8::gather(X, Idx)
                         : simd::VecD8::maskGather(X, Idx, Live);
    simd::VecD8 Vs = NarrowVal ? simd::VecD8::loadF32Widen(Vals32 + I * W)
                               : simd::VecD8::loadAligned(Vals + I * W);
    VOut = VOut.fmadd(Vs, Xs);
  };
  auto Drain = [&] {
    if (Obs.drain(Rec, Staged)) {
      for (int K = 0; K < Staged; ++K, ++Rec) {
        if (!Obs.record(*Rec, K))
          continue;
        if (Rec->Steal) {
          TResult[Rec->Wb] += Stage[K];
        } else {
          Obs.finish(Out, Rec->Wb, Rec->Shared);
          Out.finish(Rec->Wb, Stage[K], Rec->Shared);
        }
      }
    }
    Staged = 0;
  };

  // NumSteps is even (isValid), so steps run in pairs.
  for (std::int64_t I0 = 0; I0 < C.NumSteps; I0 += BlockSteps) {
    const std::int64_t I1 = std::min(C.NumSteps, I0 + BlockSteps);
    for (std::int64_t I = I0; I < I1; I += 2) {
      if constexpr (PfDist > 0) {
        if (I + PfDist + 1 < C.NumSteps) {
          // Pull the index line two prefetch windows out so the window at
          // PfDist reads cached indices, then touch the 16 x targets for
          // the step pair at PfDist and stream the matching value lines.
          if constexpr (NarrowIdx) {
            __builtin_prefetch(ColsN + (I + 2 * PfDist) * W, 0, 0);
            const std::uint16_t *Pc = ColsN + (I + PfDist) * W;
            for (int K = 0; K < 2 * W; ++K)
              __builtin_prefetch(X + ColBase + Pc[K], 0, 1);
          } else {
            __builtin_prefetch(Cols + (I + 2 * PfDist) * W, 0, 0);
            const std::int32_t *Pc = Cols + (I + PfDist) * W;
            for (int K = 0; K < 2 * W; ++K)
              __builtin_prefetch(X + Pc[K], 0, 1);
          }
          if constexpr (NarrowVal) {
            __builtin_prefetch(Vals32 + (I + PfDist) * W, 0, 0);
            __builtin_prefetch(Vals32 + (I + PfDist + 1) * W, 0, 0);
          } else {
            __builtin_prefetch(Vals + (I + PfDist) * W, 0, 0);
            __builtin_prefetch(Vals + (I + PfDist + 1) * W, 0, 0);
          }
        }
      }

      // Column-index double pumping: one 16-wide load per step pair
      // (int32 direct, or uint16 widened + rebased onto the band).
      const simd::VecI16 Cols16 =
          NarrowIdx ? simd::VecI16::loadU16Widen(ColsN + I * W, ColBase)
                    : simd::VecI16::loadAligned(Cols + I * W);
      Step(I, Cols16.lo());
      Step(I + 1, Cols16.hi());
    }
    Drain();
  }

  // Trailing records (pieces that finish exactly at the stream end).
  Retire(C.NumSteps);
  Drain();

  // Tail flush: t_result slots back to their rows (Algorithm 4 l.31-33).
  const std::int32_t *Tails = M.tails() + C.TailBase;
  for (int K = 0; K < W; ++K) {
    if (!Obs.tail(Tails + K, K))
      continue;
    const std::int32_t Row = Tails[K];
    if (Row < 0)
      continue;
    const bool Shared = Row == C.FirstRow || Row == C.LastRow;
    Obs.finish(Out, Row, Shared);
    Out.finish(Row, TResult[K], Shared);
  }
}

/// Runs chunk \p C through the instantiation that reads \p M's stream
/// kinds.
template <int PfDist, class WriteBack, class Observer = NoObserver>
void runChunkKinds(const CvrMatrix &M, const CvrChunk &C, const double *X,
                   WriteBack Out, Observer Obs = {}) {
  const bool NV = M.valueKind() == ValueKind::F32x64;
  if (M.colIndexKind() == ColIndexKind::U16Band)
    NV ? runChunk<PfDist, true, true>(M, C, X, Out, Obs)
       : runChunk<PfDist, true, false>(M, C, X, Out, Obs);
  else
    NV ? runChunk<PfDist, false, true>(M, C, X, Out, Obs)
       : runChunk<PfDist, false, false>(M, C, X, Out, Obs);
}

} // namespace detail
} // namespace cvr

#endif // CVR_CORE_CVRCHUNKLOOP_H
