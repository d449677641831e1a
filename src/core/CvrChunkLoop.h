//===- core/CvrChunkLoop.h - The scalar CVR chunk loop ----------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generic any-width CVR chunk loop (Algorithm 4 in scalar form) and
/// the Store/Accumulate write-back policies. This header is private to
/// core/ and analysis/. CvrSpmv.cpp runs and traces SpMV through the loop;
/// the checked mode in analysis/CheckedSpmv.cpp instantiates it with its
/// bounds guard.
///
/// runChunkGeneric is templated on two policies. The write-back policy
/// decides how a finished row leaves the kernel (finish() and
/// traceFinish()). This loop checks the record stream at every step; the
/// 8-lane kernel in CvrSpmv.cpp reads the finish masks instead. The
/// observer sees every memory reference the loop is about to make: it is
/// called at chunk entry, per record, for the step's stream loads, per x
/// gather, per row finish and per tail slot, and each hook returns whether
/// the loop may go ahead. Three observers exist:
///
///  - NoObserver (below), for execution: every hook is a constant true, so
///    the loop compiles to the plain kernel.
///  - The trace observer in CvrSpmv.cpp reports each reference to a
///    MemAccessSink (traceRun, traceRunFused).
///  - The bounds guard in analysis/CheckedSpmv.cpp reports each
///    out-of-range reference as a checked.cvr.* violation and vetoes it.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_CORE_CVRCHUNKLOOP_H
#define CVR_CORE_CVRCHUNKLOOP_H

#include "core/CvrFormat.h"
#include "support/Annotations.h"
#include "support/MemSink.h"

#include <cstdint>
#include <vector>

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

/// The execution observer: lets every access through.
struct NoObserver {
  /// Entry to chunk \p C; false skips the chunk.
  bool chunk(const CvrMatrix &, const CvrChunk &) { return true; }
  /// Record \p R (index \p RecIdx) is about to apply; false skips it and
  /// leaves its lane's partial sum in place.
  bool record(const CvrRecord &, std::int64_t) { return true; }
  /// Step \p I is about to load its index and value vectors; false skips
  /// the step.
  bool loads(std::int64_t) { return true; }
  /// Stream element \p Elem is about to gather x[\p Col]; false drops its
  /// product.
  bool gather(const double *, std::int32_t, std::int64_t) { return true; }
  /// \p Out is about to finish \p Row; false drops the row's value.
  template <class WriteBack>
  bool finish(const WriteBack &, std::int32_t, bool) {
    return true;
  }
  /// Tail slot \p K, at \p Slot, is about to be read; false skips it.
  bool tail(const std::int32_t *, int) { return true; }
};

/// Generic any-width kernel (lane-count ablation / non-AVX hosts, tracing
/// and checked mode). The prefetch distance and the stream kinds are
/// runtime parameters here: this path is not performance-critical. The
/// compressed streams decode per element — scalar widening of uint16
/// deltas (plus the chunk's band base) and fp32 values, with fp64
/// accumulation. \p Out is the write-back policy, \p Obs the observer.
template <class WriteBack, class Observer = NoObserver>
void runChunkGeneric(const CvrMatrix &M, const CvrChunk &C, const double *X,
                     int PfDist, WriteBack Out, Observer Obs = {}) {
  if (!Obs.chunk(M, C))
    return;
  const int W = M.lanes();
  const std::int64_t EB = C.ElemBase;
  const std::int32_t Base =
      M.chunkColBase(static_cast<std::size_t>(&C - M.chunks().data()));
  const CvrRecord *Recs = M.recs();
  std::int64_t RecIdx = C.RecBase;
  const std::int64_t RecEnd = C.RecEnd;

  std::vector<double> TResult(W, 0.0);
  std::vector<double> VOut(W, 0.0);

  auto Finish = [&](std::int32_t Row, double V, bool Shared) {
    if (Obs.finish(Out, Row, Shared))
      Out.finish(Row, V, Shared);
  };
  auto ApplyRecord = [&](std::int64_t Idx) {
    const CvrRecord &R = Recs[Idx];
    if (!Obs.record(R, Idx))
      return;
    int Off = static_cast<int>(R.Pos % W);
    if (R.Steal)
      TResult[R.Wb] += VOut[Off];
    else
      Finish(R.Wb, VOut[Off], R.Shared);
    VOut[Off] = 0.0;
  };

  for (std::int64_t I = 0; I < C.NumSteps; ++I) {
    while (RecIdx < RecEnd && Recs[RecIdx].Pos < (I + 1) * W)
      ApplyRecord(RecIdx++);
    if (PfDist > 0 && I + PfDist < C.NumSteps) {
      for (int K = 0; K < W; ++K)
        __builtin_prefetch(X + M.colAt(EB + (I + PfDist) * W + K, Base), 0,
                           1);
    }
    if (!Obs.loads(I))
      continue;
    for (int K = 0; K < W; ++K) {
      const std::int64_t E = EB + I * W + K;
      const std::int32_t Col = M.colAt(E, Base);
      if (Obs.gather(X, Col, E))
        VOut[K] += M.valueAt(E) * X[Col];
    }
  }
  while (RecIdx < RecEnd)
    ApplyRecord(RecIdx++);

  const std::int32_t *Tails = M.tails() + C.TailBase;
  for (int K = 0; K < W; ++K) {
    if (!Obs.tail(Tails + K, K))
      continue;
    std::int32_t Row = Tails[K];
    if (Row < 0)
      continue;
    Finish(Row, TResult[K], Row == C.FirstRow || Row == C.LastRow);
  }
}

} // namespace detail
} // namespace cvr

#endif // CVR_CORE_CVRCHUNKLOOP_H
