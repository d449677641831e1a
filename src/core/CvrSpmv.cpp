//===- core/CvrSpmv.cpp - SpMV over the CVR format ------------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Each chunk loop is written once and templated on a write-back policy. The
// policy decides only how finished lanes leave the kernel:
//
//  - Store: an exclusive row takes one plain store (the plain SpMV).
//  - Accumulate: an exclusive row adds into y. Column-blocked matrices use
//    it; they clear y once and run their bands one after another.
//  - Fused: an exclusive row runs the FusedEpilogue on its finished value
//    and stores the result. The policy carries the chunk's EpilogueAccum.
//
// Under every policy a chunk-boundary row adds atomically, because the
// neighbouring chunk contributes to it too. A policy provides finish() for
// one finished row (a feed record or a tail flush) and traceFinish() for
// the y and operand traffic that finish() causes.
//
// Two loops instantiate the policies: the 8-lane kernel here (also
// templated on prefetch distance and stream kinds) and the generic
// any-width kernel in CvrChunkLoop.h, which also holds Store and
// Accumulate so that checked mode can use them. The 8-lane kernel, on
// AVX-512 or the emulated vector of simd/Simd.h, writes back without a
// per-step branch: each step compresses the lanes the matrix's derived
// finish mask names (one byte per step, nnz/8 bytes, never serialized)
// into a stack staging buffer, and once per 64-step block the staged
// values go through finish() in record order.
//
// The generic loop takes a second, observer policy: the trace observer
// below turns it into the serial sweep behind traceRun and traceRunFused,
// and analysis/CheckedSpmv.cpp runs it under a bounds guard for checked
// mode. CvrSpmm.cpp applies the same scheme to its panel kernel. Chunk
// over-decomposition runs more chunks than threads under a dynamic
// schedule. All variants compute the same y; the autotuner in src/engine
// picks among them per matrix.
//
//===----------------------------------------------------------------------===//

#include "core/CvrSpmv.h"

#include "core/CvrChunkLoop.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "simd/Simd.h"
#include "support/Annotations.h"
#include "support/MemSink.h"
#include "support/ParallelFor.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace cvr {

namespace {

using detail::AccumulateWriteBack;
using detail::runChunkGeneric;
using detail::StoreWriteBack;

/// The Fused policy (no accumulate mode: blocked matrices compose instead).
/// An exclusive row stores what the epilogue returns. A boundary row adds
/// its raw partial atomically; cvrSpmvFused's sequential cleanup pass
/// applies the epilogue to it.
struct FusedWriteBack {
  double *Y;
  const FusedEpilogue *E;
  const double *X;
  EpilogueAccum *Acc;

  CVR_HOT void finish(std::int32_t Row, double V, bool Shared) const {
    if (Shared) {
#pragma omp atomic
      Y[Row] += V;
    } else {
      Y[Row] = fusedRowApply(*E, X, Row, V, *Acc);
    }
  }

  /// An exclusive row takes the epilogue on the register-resident value:
  /// the operand traffic plus one y store. A boundary row is a
  /// read-modify-write of its raw partial.
  void traceFinish(MemAccessSink &Sink, std::int32_t Row, bool Shared) const {
    if (Shared)
      Sink.read(Y + Row, sizeof(double));
    else
      traceFusedRowOperands(Sink, *E, X, Row);
    Sink.write(Y + Row, sizeof(double));
  }
};

/// One chunk of the vectorized 8-lane kernel (Algorithm 4). PfDist > 0
/// issues software prefetches of the x gather targets (and the vals/cols
/// streams) PfDist steps ahead, using the already-streamed column indices;
/// the host has no AVX-512PF, so the prefetches are scalar.
///
/// NarrowIdx streams band-local uint16 deltas (widened + rebased onto the
/// chunk's band base at load time) and NarrowVal streams fp32 values
/// (widened to fp64 before the FMA) — the stream-compression axes. The
/// loop structure — one index load per step pair, one value load and one
/// gather per step — is identical across all four combinations; only the
/// load width changes. \p Out is the write-back policy.
///
/// Each step first moves the lanes its finish mask names out of v_out into
/// a staging buffer, then accumulates. After every block of 64 steps the
/// staged values, in record order, leave through the block's records:
/// steal records add to t_result, feed records go through \p Out.finish.
/// The mask byte past the last step stages the trailing records.
template <int PfDist, bool NarrowIdx, bool NarrowVal, class WriteBack>
CVR_HOT void runChunkAvx(const CvrMatrix &M, const CvrChunk &C,
                         const double *X, WriteBack Out) {
  static_assert(PfDist % 2 == 0, "prefetch pairs with the double-pumped "
                                 "column loads, so the distance stays even");
  constexpr int W = 8;
  constexpr std::int64_t BlockSteps = 64;
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
    Staged += VOut.compressStoreu(Stage + Staged, F);
    VOut = VOut.clearLanes(F);
  };
  auto Step = [&](std::int64_t I, simd::VecI8 Idx) {
    Retire(I);
    simd::VecD8 Xs = simd::VecD8::gather(X, Idx);
    simd::VecD8 Vs = NarrowVal ? simd::VecD8::loadF32Widen(Vals32 + I * W)
                               : simd::VecD8::loadAligned(Vals + I * W);
    VOut = VOut.fmadd(Vs, Xs);
  };
  auto Drain = [&] {
    for (int K = 0; K < Staged; ++K, ++Rec) {
      if (Rec->Steal)
        TResult[Rec->Wb] += Stage[K];
      else
        Out.finish(Rec->Wb, Stage[K], Rec->Shared);
    }
    Staged = 0;
  };

  // NumSteps is even for 8 lanes (isValid), so steps run in pairs.
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
    std::int32_t Row = Tails[K];
    if (Row < 0)
      continue;
    Out.finish(Row, TResult[K], Row == C.FirstRow || Row == C.LastRow);
  }
}

/// Prefetch-distance dispatch for one kind-resolved instantiation.
template <bool NarrowIdx, bool NarrowVal, class WriteBack>
void runChunkAvxPf(const CvrMatrix &M, const CvrChunk &C, const double *X,
                   int PfDist, WriteBack Out) {
  switch (PfDist) {
  case 2:
    runChunkAvx<2, NarrowIdx, NarrowVal>(M, C, X, Out);
    break;
  case 4:
    runChunkAvx<4, NarrowIdx, NarrowVal>(M, C, X, Out);
    break;
  case 8:
    runChunkAvx<8, NarrowIdx, NarrowVal>(M, C, X, Out);
    break;
  default:
    runChunkAvx<0, NarrowIdx, NarrowVal>(M, C, X, Out);
    break;
  }
}

/// Dispatches one chunk to the right kernel instantiation. The prefetch
/// distance is snapped to the supported set by the callers.
template <class WriteBack>
void runChunk(const CvrMatrix &M, const CvrChunk &C, const double *X,
              int PfDist, bool UseAvx, WriteBack Out) {
  if (!UseAvx) {
    runChunkGeneric(M, C, X, PfDist, Out);
    return;
  }
  const bool NI = M.colIndexKind() == ColIndexKind::U16Band;
  const bool NV = M.valueKind() == ValueKind::F32x64;
  if (NI) {
    if (NV)
      runChunkAvxPf<true, true>(M, C, X, PfDist, Out);
    else
      runChunkAvxPf<true, false>(M, C, X, PfDist, Out);
  } else {
    if (NV)
      runChunkAvxPf<false, true>(M, C, X, PfDist, Out);
    else
      runChunkAvxPf<false, false>(M, C, X, PfDist, Out);
  }
}

/// Runs the chunks [Begin, End) across M.runThreads() threads. With more
/// chunks than threads (over-decomposition) the schedule turns dynamic so
/// a thread that drew a light chunk picks up the next one. \p MakeOut maps
/// a chunk index to that chunk's write-back policy.
template <class MakeWriteBack>
void runChunkRange(const CvrMatrix &M, int Begin, int End, const double *X,
                   int PfDist, MakeWriteBack MakeOut) {
  const std::vector<CvrChunk> &Chunks = M.chunks();
  int N = End - Begin;
  int Threads = std::min(M.runThreads(), N);
  bool UseAvx = M.lanes() == simd::DoubleLanes && !M.forcesGenericKernel();

  auto Body = [&](int T) {
    runChunk(M, Chunks[Begin + T], X, PfDist, UseAvx, MakeOut(Begin + T));
  };
  if (N > Threads)
    ompParallelForDynamic(N, Threads, Body);
  else
    ompParallelFor(N, Threads, Body);
}

/// The trace observer: runChunkGeneric under it replays a chunk serially
/// and reports every memory reference to the sink, under the same
/// write-back policy and in the same finalize order as the executing
/// kernels. Stream element widths follow the kinds: the compressed streams
/// read 2-byte index deltas and 4-byte fp32 values, which is exactly the
/// traffic reduction the roofline model predicts.
class TraceObserver {
public:
  explicit TraceObserver(MemAccessSink &Sink) : Sink(&Sink) {}

  bool chunk(const CvrMatrix &M, const CvrChunk &C) {
    W = M.lanes();
    IdxB = M.indexBytes();
    ValB = M.valueBytes();
    ColsP = M.colIndexKind() == ColIndexKind::U16Band
                ? reinterpret_cast<const char *>(M.colIdx16() + C.ElemBase)
                : reinterpret_cast<const char *>(M.colIdx() + C.ElemBase);
    ValsP = M.valueKind() == ValueKind::F32x64
                ? reinterpret_cast<const char *>(M.vals32() + C.ElemBase)
                : reinterpret_cast<const char *>(M.vals() + C.ElemBase);
    // The 8-lane kernel reads one finish-mask byte per step, plus the
    // trailing one after its last step.
    MaskP = M.finishMasks(static_cast<std::size_t>(&C - M.chunks().data()));
    if (MaskP)
      Sink->read(MaskP + C.NumSteps, 1);
    return true;
  }

  /// A steal record's t_result slot lives in registers/stack: the record
  /// read is its only traffic.
  bool record(const CvrRecord &R, std::int64_t) {
    Sink->read(&R, sizeof(CvrRecord));
    return true;
  }

  bool loads(std::int64_t I) {
    // Column indices are double-pumped at width 8: one load of 16 indices
    // per two steps (the step count is padded even, so both steps exist).
    if (W == 8) {
      if ((I & 1) == 0)
        Sink->read(ColsP + I * W * IdxB, 16 * IdxB);
    } else {
      Sink->read(ColsP + I * W * IdxB, W * IdxB);
    }
    Sink->read(ValsP + I * W * ValB, W * ValB);
    if (MaskP)
      Sink->read(MaskP + I, 1);
    return true;
  }

  bool gather(const double *X, std::int32_t Col, std::int64_t) {
    Sink->read(X + Col, sizeof(double));
    return true;
  }

  template <class WriteBack>
  bool finish(const WriteBack &Out, std::int32_t Row, bool Shared) {
    Out.traceFinish(*Sink, Row, Shared);
    return true;
  }

  bool tail(const std::int32_t *Slot, int) {
    Sink->read(Slot, sizeof(std::int32_t));
    return true;
  }

private:
  MemAccessSink *Sink;
  std::int64_t W = 0;
  std::size_t IdxB = 0, ValB = 0;
  const char *ColsP = nullptr, *ValsP = nullptr;
  const std::uint8_t *MaskP = nullptr;
};

/// The traced counterpart of runChunkRange: every chunk in index order, on
/// one thread.
template <class MakeWriteBack>
void traceChunks(const CvrMatrix &M, MemAccessSink &Sink, const double *X,
                 MakeWriteBack MakeOut) {
  for (int T = 0; T < M.numChunks(); ++T)
    runChunkGeneric(M, M.chunks()[T], X, /*PfDist=*/0, MakeOut(T),
                    TraceObserver(Sink));
}

} // namespace

int snapPrefetchDistance(int D) {
  if (D <= 0)
    return 0;
  if (D <= 2)
    return 2;
  if (D <= 4)
    return 4;
  return 8;
}

namespace {

/// Per-run execution counters, derived from the chunk table rather than
/// the SIMD loops: the step count (and with it the number of gathered x
/// elements) is fixed by the structure, so one O(chunks) sweep per call
/// observes what the hot loops did without touching them.
void recordCvrRunTelemetry(const CvrMatrix &M, bool Fused, bool CountRun) {
  if (!obs::telemetryEnabled())
    return;
  static obs::Counter &Runs = obs::counter("spmv.cvr.runs");
  static obs::Counter &Steps = obs::counter("spmv.cvr.steps");
  static obs::Counter &Gathers = obs::counter("spmv.cvr.gathered_elems");
  static obs::Counter &FusedRuns = obs::counter("spmv.cvr.fused_runs");
  static obs::Counter &FusedRows =
      obs::counter("spmv.cvr.fused_epilogue_rows");
  if (CountRun) {
    std::int64_t TotalSteps = 0;
    for (const CvrChunk &C : M.chunks())
      TotalSteps += C.NumSteps;
    Runs.inc();
    Steps.add(TotalSteps);
    Gathers.add(TotalSteps * M.lanes());
  }
  if (Fused) {
    FusedRuns.inc();
    FusedRows.add(M.numRows());
  }
}

} // namespace

void cvrSpmv(const CvrMatrix &M, const double *X, double *Y,
             int PrefetchDistance) {
  obs::TraceSpan Span("execute/spmv", "execute");
  recordCvrRunTelemetry(M, /*Fused=*/false, /*CountRun=*/true);
  int PfDist = snapPrefetchDistance(PrefetchDistance);

  if (M.isBlocked()) {
    // Accumulate mode: clear all of y once, then add each band's partial
    // products. Bands run sequentially so x's working set stays one band
    // wide; chunks within a band run in parallel.
    std::memset(Y, 0, sizeof(double) * static_cast<std::size_t>(M.numRows()));
    for (const CvrBand &B : M.bands())
      runChunkRange(M, B.ChunkBegin, B.ChunkEnd, X, PfDist,
                    [Y](int) { return AccumulateWriteBack{Y}; });
    return;
  }

  // Pre-zero the rows that accumulate (boundary rows) or are never written
  // (empty rows); all other rows receive exactly one plain store.
  for (std::int32_t R : M.zeroRows())
    Y[R] = 0.0;
  runChunkRange(M, 0, M.numChunks(), X, PfDist,
                [Y](int) { return StoreWriteBack{Y}; });
}

void cvrSpmvFused(const CvrMatrix &M, const double *X, double *Y,
                  FusedEpilogue &E, int PrefetchDistance) {
  if (E.Op == EpilogueOp::None) {
    cvrSpmv(M, X, Y, PrefetchDistance);
    E.Acc1 = E.Acc2 = E.Acc3 = 0.0;
    return;
  }
  if (M.isBlocked()) {
    // Accumulate mode finishes no row until the last band; compose.
    obs::TraceSpan Span("execute/fused-epilogue", "execute");
    recordCvrRunTelemetry(M, /*Fused=*/true, /*CountRun=*/false);
    cvrSpmv(M, X, Y, PrefetchDistance);
    applyEpilogueScalar(E, X, Y, M.numRows());
    return;
  }
  assert((!E.WantXDotY || M.numRows() == M.numCols()) &&
         "x.y fusion gathers the run input at output rows; needs square A");

  obs::TraceSpan Span("execute/fused-epilogue", "execute");
  recordCvrRunTelemetry(M, /*Fused=*/true, /*CountRun=*/true);
  int PfDist = snapPrefetchDistance(PrefetchDistance);
  // Boundary rows accumulate raw partials during the chunk sweep; the
  // cleanup pass below applies the epilogue to them (and to empty rows)
  // exactly once. zeroRows is precisely that set.
  for (std::int32_t R : M.zeroRows())
    Y[R] = 0.0;

  // Per-chunk partial accumulators, merged in chunk index order below so
  // the reduction is deterministic however the chunks were scheduled.
  // Stack storage keeps solver iterations allocation-free; matrices split
  // into more chunks than the cap (heavy over-decomposition) spill to the
  // heap once per call.
  const int N = M.numChunks();
  constexpr int MaxStackChunks = 512;
  EpilogueAccum StackAccs[MaxStackChunks];
  std::vector<EpilogueAccum> HeapAccs;
  EpilogueAccum *Accs = StackAccs;
  if (N > MaxStackChunks) {
    HeapAccs.resize(static_cast<std::size_t>(N));
    Accs = HeapAccs.data();
  }

  runChunkRange(M, 0, N, X, PfDist, [&](int T) {
    Accs[T] = EpilogueAccum{};
    return FusedWriteBack{Y, &E, X, &Accs[T]};
  });

  EpilogueAccum Total;
  for (int T = 0; T < N; ++T)
    mergeAccum(E, Total, Accs[T]);

  // Sequential cleanup: boundary + empty rows, in zero-row (ascending)
  // order, merged last.
  EpilogueAccum Cleanup;
  for (std::int32_t R : M.zeroRows())
    Y[R] = fusedRowApply(E, X, R, Y[R], Cleanup);
  mergeAccum(E, Total, Cleanup);
  storeAccum(E, Total);
}

CvrKernel::CvrKernel(CvrOptions Opts) : Opts(Opts) {}

void CvrKernel::prepare(const CsrMatrix &A) {
  M = CvrMatrix::fromCsr(A, Opts);
}

Status CvrKernel::prepareStatus(const CsrMatrix &A) {
  StatusOr<CvrMatrix> R = CvrMatrix::tryFromCsr(A, Opts);
  if (!R.ok())
    return R.status().withContext("CVR prepare");
  M = std::move(*R);
  return Status::okStatus();
}

void CvrKernel::run(const double *X, double *Y) const {
  cvrSpmv(M, X, Y, Opts.PrefetchDistance);
}

void CvrKernel::runFused(const double *X, double *Y,
                         FusedEpilogue &E) const {
  cvrSpmvFused(M, X, Y, E, Opts.PrefetchDistance);
}

std::size_t CvrKernel::formatBytes() const { return M.formatBytes(); }

bool CvrKernel::traceRun(MemAccessSink &Sink, const double *X,
                         double *Y) const {
  if (M.isBlocked()) {
    // The blocked kernel clears all of y before the bands accumulate.
    for (std::int32_t R = 0; R < M.numRows(); ++R) {
      Sink.write(Y + R, sizeof(double));
      Y[R] = 0.0;
    }
    traceChunks(M, Sink, X, [Y](int) { return AccumulateWriteBack{Y}; });
    return true;
  }
  for (std::int32_t R : M.zeroRows()) {
    Sink.write(Y + R, sizeof(double));
    Y[R] = 0.0;
  }
  traceChunks(M, Sink, X, [Y](int) { return StoreWriteBack{Y}; });
  return true;
}

bool CvrKernel::traceRunFused(MemAccessSink &Sink, const double *X,
                              double *Y, FusedEpilogue &E) const {
  if (E.Op == EpilogueOp::None) {
    E.Acc1 = E.Acc2 = E.Acc3 = 0.0;
    return traceRun(Sink, X, Y);
  }
  if (M.isBlocked()) {
    // Matches runFused's composed path for blocked matrices.
    if (!traceRun(Sink, X, Y))
      return false;
    traceEpilogueScalar(Sink, E, X, Y, M.numRows());
    return true;
  }

  for (std::int32_t R : M.zeroRows()) {
    Sink.write(Y + R, sizeof(double));
    Y[R] = 0.0;
  }
  // Per-chunk accumulators merged in chunk order, as cvrSpmvFused does, so
  // the traced accumulators match runFused bit for bit.
  std::vector<EpilogueAccum> Accs(M.chunks().size());
  traceChunks(M, Sink, X,
              [&](int T) { return FusedWriteBack{Y, &E, X, &Accs[T]}; });
  EpilogueAccum Total;
  for (const EpilogueAccum &A : Accs)
    mergeAccum(E, Total, A);

  // Cleanup pass: the boundary/empty rows genuinely re-read y (their raw
  // partials left the registers when the chunks finished).
  EpilogueAccum Cleanup;
  for (std::int32_t R : M.zeroRows()) {
    Sink.read(Y + R, sizeof(double));
    traceFusedRowOperands(Sink, E, X, R);
    Sink.write(Y + R, sizeof(double));
    Y[R] = fusedRowApply(E, X, R, Y[R], Cleanup);
  }
  mergeAccum(E, Total, Cleanup);
  storeAccum(E, Total);
  return true;
}

} // namespace cvr
