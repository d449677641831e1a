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
//
// Under both policies a chunk-boundary row adds atomically, because the
// neighbouring chunk contributes to it too. A policy provides finish() for
// one finished row (a feed record or a tail flush) and traceFinish() for
// the y traffic that finish() causes. Fused epilogues are not a policy:
// CvrKernel inherits SpmvKernel::runFused, which composes cvrSpmv with one
// scalar epilogue sweep (DESIGN.md section 12).
//
// The loop is also templated on prefetch distance and stream kinds. On
// AVX-512 or the emulated vector of simd/Simd.h it writes back without a
// per-step branch: each step compresses the lanes the matrix's derived
// finish mask names (one byte per step, nnz/8 bytes, never serialized)
// into a stack staging buffer, and once per 64-step block the staged
// values go through finish() in record order.
//
// The loop takes a second, observer policy: the trace observer below turns
// it into the serial sweep behind traceRun, and analysis/CheckedSpmv.cpp
// runs it under a bounds guard for checked mode. CvrSpmm.cpp applies the
// same scheme to its panel kernel. Chunk over-decomposition runs more
// chunks than threads under a dynamic schedule. All variants compute the
// same y; the serving daemon picks the prefetch distance per matrix
// (serve::Fleet::tuneExec).
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
/// a thread that drew a light chunk picks up the next one. Every chunk
/// writes back through \p Out.
template <class WriteBack>
void runChunkRange(const CvrMatrix &M, int Begin, int End, const double *X,
                   int PfDist, WriteBack Out) {
  const std::vector<CvrChunk> &Chunks = M.chunks();
  int N = End - Begin;
  int Threads = std::min(M.runThreads(), N);

  auto Body = [&](int T) {
    runChunkPf(M, Chunks[Begin + T], X, PfDist, Out);
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
template <class WriteBack>
void traceChunks(const CvrMatrix &M, MemAccessSink &Sink, const double *X,
                 WriteBack Out) {
  for (const CvrChunk &C : M.chunks())
    runChunkKinds<0>(M, C, X, Out, TraceObserver(Sink));
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
void recordCvrRunTelemetry(const CvrMatrix &M) {
  if (!obs::telemetryEnabled())
    return;
  static obs::Counter &Runs = obs::counter("spmv.cvr.runs");
  static obs::Counter &Steps = obs::counter("spmv.cvr.steps");
  static obs::Counter &Gathers = obs::counter("spmv.cvr.gathered_elems");
  std::int64_t TotalSteps = 0;
  for (const CvrChunk &C : M.chunks())
    TotalSteps += C.NumSteps;
  Runs.inc();
  Steps.add(TotalSteps);
  Gathers.add(TotalSteps * M.lanes());
}

} // namespace

void cvrSpmv(const CvrMatrix &M, const double *X, double *Y,
             int PrefetchDistance) {
  obs::TraceSpan Span("execute/spmv", "execute");
  recordCvrRunTelemetry(M);
  int PfDist = snapPrefetchDistance(PrefetchDistance);

  if (M.isBlocked()) {
    // Accumulate mode: clear all of y once, then add each band's partial
    // products. Bands run sequentially so x's working set stays one band
    // wide; chunks within a band run in parallel.
    std::memset(Y, 0, sizeof(double) * static_cast<std::size_t>(M.numRows()));
    for (const CvrBand &B : M.bands())
      runChunkRange(M, B.ChunkBegin, B.ChunkEnd, X, PfDist,
                    AccumulateWriteBack{Y});
    return;
  }

  // Pre-zero the rows that accumulate (boundary rows) or are never written
  // (empty rows); all other rows receive exactly one plain store.
  for (std::int32_t R : M.zeroRows())
    Y[R] = 0.0;
  runChunkRange(M, 0, M.numChunks(), X, PfDist, StoreWriteBack{Y});
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

std::size_t CvrKernel::formatBytes() const { return M.formatBytes(); }

bool CvrKernel::traceRun(MemAccessSink &Sink, const double *X,
                         double *Y) const {
  if (M.isBlocked()) {
    // The blocked kernel clears all of y before the bands accumulate.
    for (std::int32_t R = 0; R < M.numRows(); ++R) {
      Sink.write(Y + R, sizeof(double));
      Y[R] = 0.0;
    }
    traceChunks(M, Sink, X, AccumulateWriteBack{Y});
    return true;
  }
  for (std::int32_t R : M.zeroRows()) {
    Sink.write(Y + R, sizeof(double));
    Y[R] = 0.0;
  }
  traceChunks(M, Sink, X, StoreWriteBack{Y});
  return true;
}

} // namespace cvr
