//===- core/CvrSpmv.cpp - SpMV over the CVR format ------------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The CVR chunk loop (core/CvrChunkLoop.h) is written once and templated
// on a write-back policy. The policy decides only how finished lanes leave
// the kernel:
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
// CvrChunkLoop.h holds Store and Accumulate next to the loop so that
// checked mode can use them; Fused lives here. The loop is also templated
// on prefetch distance and stream kinds. On AVX-512 or the emulated vector
// of simd/Simd.h it writes back without a per-step branch: each step
// compresses the lanes the matrix's derived finish mask names (one byte
// per step, nnz/8 bytes, never serialized) into a stack staging buffer,
// and once per 64-step block the staged values go through finish() in
// record order.
//
// The loop takes a second, observer policy: the trace observer below turns
// it into the serial sweep behind traceRun and traceRunFused, and
// analysis/CheckedSpmv.cpp runs it under a bounds guard for checked mode.
// CvrSpmm.cpp applies the same scheme to its panel kernel. Chunk
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
using detail::runChunkKinds;
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

/// Runs one chunk at the prefetch distance \p PfDist, which the callers
/// snap to the supported set.
template <class WriteBack>
void runChunkPf(const CvrMatrix &M, const CvrChunk &C, const double *X,
                int PfDist, WriteBack Out) {
  switch (PfDist) {
  case 2:
    runChunkKinds<2>(M, C, X, Out);
    break;
  case 4:
    runChunkKinds<4>(M, C, X, Out);
    break;
  case 8:
    runChunkKinds<8>(M, C, X, Out);
    break;
  default:
    runChunkKinds<0>(M, C, X, Out);
    break;
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

  auto Body = [&](int T) {
    runChunkPf(M, Chunks[Begin + T], X, PfDist, MakeOut(Begin + T));
  };
  if (N > Threads)
    ompParallelForDynamic(N, Threads, Body);
  else
    ompParallelFor(N, Threads, Body);
}

/// The trace observer: the chunk loop under it replays a chunk serially
/// and reports every memory reference to the sink, under the same
/// write-back policy and in the same finalize order as the executing
/// kernel. Records are reported as the drain reads them. Stream element
/// widths follow the kinds: the compressed streams read 2-byte index
/// deltas and 4-byte fp32 values, which is exactly the traffic reduction
/// the roofline model predicts. Drains need no report of their own.
///
/// The hooks stay out of line: inlined, they would swell the traced
/// instantiations enough to change how GCC inlines the executing kernels in
/// this file, and tracing must leave the production code as it is.
class TraceObserver : public detail::NoObserver {
public:
  explicit TraceObserver(MemAccessSink &Sink) : Sink(&Sink) {}

  [[gnu::noinline]] bool chunk(const CvrMatrix &M, const CvrChunk &C) {
    IdxB = M.indexBytes();
    ValB = M.valueBytes();
    ColsP = M.colIndexKind() == ColIndexKind::U16Band
                ? reinterpret_cast<const char *>(M.colIdx16() + C.ElemBase)
                : reinterpret_cast<const char *>(M.colIdx() + C.ElemBase);
    ValsP = M.valueKind() == ValueKind::F32x64
                ? reinterpret_cast<const char *>(M.vals32() + C.ElemBase)
                : reinterpret_cast<const char *>(M.vals() + C.ElemBase);
    MaskP = M.finishMasks(static_cast<std::size_t>(&C - M.chunks().data()));
    return true;
  }

  /// One finish-mask byte per step, plus the trailing one.
  [[gnu::noinline]] void retire(std::int64_t I, unsigned) {
    Sink->read(MaskP + I, 1);
  }

  [[gnu::noinline]] void loads(std::int64_t I) {
    // Column indices are double-pumped: one load of 16 indices per two
    // steps (the step count is padded even, so both steps exist).
    if ((I & 1) == 0)
      Sink->read(ColsP + I * W * IdxB, 16 * IdxB);
    Sink->read(ValsP + I * W * ValB, W * ValB);
  }

  [[gnu::noinline]] unsigned gather(const double *X, simd::VecI8 Idx,
                                    std::int64_t) {
    std::int32_t Cols[W];
    Idx.storeu(Cols);
    for (std::int32_t Col : Cols)
      Sink->read(X + Col, sizeof(double));
    return simd::AllLanes;
  }

  /// A steal record's t_result slot lives in registers/stack: the record
  /// read is its only traffic.
  [[gnu::noinline]] bool record(const CvrRecord &R, int) {
    Sink->read(&R, sizeof(CvrRecord));
    return true;
  }

  template <class WriteBack>
  [[gnu::noinline]] void finish(const WriteBack &Out, std::int32_t Row,
                                bool Shared) {
    Out.traceFinish(*Sink, Row, Shared);
  }

  [[gnu::noinline]] bool tail(const std::int32_t *Slot, int) {
    Sink->read(Slot, sizeof(std::int32_t));
    return true;
  }

private:
  static constexpr std::int64_t W = CvrMatrix::lanes();
  MemAccessSink *Sink;
  std::size_t IdxB = 0, ValB = 0;
  const char *ColsP = nullptr, *ValsP = nullptr;
  const std::uint8_t *MaskP = nullptr;
};

/// The traced counterpart of runChunkRange: every chunk in index order, on
/// one thread, without prefetches.
template <class MakeWriteBack>
void traceChunks(const CvrMatrix &M, MemAccessSink &Sink, const double *X,
                 MakeWriteBack MakeOut) {
  for (int T = 0; T < M.numChunks(); ++T)
    runChunkKinds<0>(M, M.chunks()[T], X, MakeOut(T), TraceObserver(Sink));
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
