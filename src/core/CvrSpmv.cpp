//===- core/CvrSpmv.cpp - SpMV over the CVR format ------------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// SpMV is one pass of the CVR chunk loop (core/CvrChunkLoop.h) under the
// gather lane policy, with the Store write-back (one plain store per
// exclusive row) or, for column-blocked matrices, Accumulate (an add; y is
// cleared once and the bands run one after another). A chunk-boundary row
// adds atomically under both, because the neighbouring chunk contributes
// to it too. Fused epilogues are not a policy: CvrKernel inherits
// SpmvKernel::runFused, which composes cvrSpmv with one scalar epilogue
// sweep (DESIGN.md section 12).
//
// The gather policy is templated on the prefetch distance, and the loop on
// the stream kinds. It writes back without a per-step branch: each step
// compresses the lanes the matrix's derived finish mask names (one byte
// per step, never serialized) into a stack staging buffer, and once per
// 64-step block the staged values leave in record order. The trace
// observer below turns the same pass into the serial sweep behind
// traceRun. All variants compute the same y; the serving daemon picks the
// prefetch distance per matrix (serve::Fleet::tuneExec).
//
//===----------------------------------------------------------------------===//

#include "core/CvrSpmv.h"

#include "core/CvrChunkLoop.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"

namespace cvr {

namespace {

using detail::AccumulateWriteBack;
using detail::GatherLanes;
using detail::runPass;
using detail::StoreWriteBack;

/// The trace observer: the chunk loop under it replays a chunk serially
/// and reports every memory reference to the sink, under the same
/// write-back policy and in the same finalize order as the executing
/// kernel. Records are reported as the drain reads them. Stream element
/// widths follow the kinds: the compressed streams read 2-byte index
/// deltas and 4-byte fp32 values, which is exactly the traffic reduction
/// the roofline model predicts.
///
/// The hooks stay out of line: inlined, they would swell the traced
/// instantiations enough to change how GCC inlines the executing kernels in
/// this file, and tracing must leave the production code as it is.
class TraceObserver : public detail::NoObserver {
public:
  TraceObserver(MemAccessSink &Sink, const double *X) : Sink(&Sink), X(X) {}

  /// The prologue's clear of y.
  template <class WriteBack>
  [[gnu::noinline]] void zero(const CvrMatrix &, const WriteBack &Out,
                              std::int32_t Row) {
    Sink->write(Out.Y + Row, sizeof(double));
  }

  [[gnu::noinline]] void chunk(const CvrMatrix &M, const CvrChunk &C) {
    IdxB = M.indexBytes();
    ValB = M.valueBytes();
    ColsP = M.colIndexKind() == ColIndexKind::U16Band
                ? reinterpret_cast<const char *>(M.colIdx16() + C.ElemBase)
                : reinterpret_cast<const char *>(M.colIdx() + C.ElemBase);
    ValsP = M.valueKind() == ValueKind::F32x64
                ? reinterpret_cast<const char *>(M.vals32() + C.ElemBase)
                : reinterpret_cast<const char *>(M.vals() + C.ElemBase);
    MaskP = M.finishMasks(static_cast<std::size_t>(&C - M.chunks().data()));
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

  [[gnu::noinline]] void gather(simd::VecI8 Idx, std::int64_t) {
    std::int32_t Cols[W];
    Idx.storeu(Cols);
    for (std::int32_t Col : Cols)
      Sink->read(X + Col, sizeof(double));
  }

  /// A steal record's t_result slot lives in registers/stack: the record
  /// read is its only traffic.
  [[gnu::noinline]] void record(const CvrRecord &R, int) {
    Sink->read(&R, sizeof(CvrRecord));
  }

  template <class WriteBack>
  [[gnu::noinline]] void finish(const WriteBack &Out, std::int32_t Row,
                                bool Shared) {
    Out.traceFinish(*Sink, Row, Shared);
  }

  [[gnu::noinline]] void tail(const std::int32_t *Slot, int) {
    Sink->read(Slot, sizeof(std::int32_t));
  }

private:
  static constexpr std::int64_t W = CvrMatrix::lanes();
  MemAccessSink *Sink;
  const double *X;
  std::size_t IdxB = 0, ValB = 0;
  const char *ColsP = nullptr, *ValsP = nullptr;
  const std::uint8_t *MaskP = nullptr;
};

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
  switch (snapPrefetchDistance(PrefetchDistance)) {
  case 2:
    runPass<GatherLanes<2>>(M, X, StoreWriteBack{Y}, AccumulateWriteBack{Y});
    break;
  case 4:
    runPass<GatherLanes<4>>(M, X, StoreWriteBack{Y}, AccumulateWriteBack{Y});
    break;
  case 8:
    runPass<GatherLanes<8>>(M, X, StoreWriteBack{Y}, AccumulateWriteBack{Y});
    break;
  default:
    runPass<GatherLanes<0>>(M, X, StoreWriteBack{Y}, AccumulateWriteBack{Y});
    break;
  }
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
  // The pass without prefetches, serially, every reference reported.
  runPass<GatherLanes<0>>(M, X, StoreWriteBack{Y}, AccumulateWriteBack{Y},
                          TraceObserver(Sink, X));
  return true;
}

} // namespace cvr
