//===- core/CvrSpmm.cpp - Batched multi-RHS SpMM over CVR -----------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// SpMM is the CVR chunk loop (core/CvrChunkLoop.h) under the panel lane
// policy, one pass per register block of up to eight columns (runPanels).
// A fused batch epilogue is one sweep after the kernel: CvrKernel inherits
// SpmvKernel::runBatchFused.
//
//===----------------------------------------------------------------------===//

#include "core/CvrSpmm.h"

#include "core/CvrChunkLoop.h"
#include "core/CvrSpmv.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"

namespace cvr {

namespace {

/// Per-call SpMM counters: one structural sweep, never inside the hot
/// loops.
void recordCvrSpmmTelemetry(int NumVectors, int Passes) {
  if (!obs::telemetryEnabled())
    return;
  static obs::Counter &Runs = obs::counter("spmv.cvr.spmm_runs");
  static obs::Counter &Cols = obs::counter("spmv.cvr.spmm_cols");
  static obs::Counter &PassCount = obs::counter("spmv.cvr.spmm_passes");
  Runs.inc();
  Cols.add(NumVectors);
  PassCount.add(Passes);
}

} // namespace

Status cvrSpmm(const CvrMatrix &M, const double *X, std::size_t LdX,
               double *Y, std::size_t LdY, int NumVectors) {
  Status S = validatePanelArgs(X, LdX, Y, LdY, NumVectors);
  if (!S.ok())
    return S;
  obs::TraceSpan Span("execute/spmm", "execute");
  Span.arg("cols", NumVectors);
  recordCvrSpmmTelemetry(NumVectors,
                         detail::runPanels(M, X, LdX, Y, LdY, NumVectors));
  return Status::okStatus();
}

Status CvrKernel::runBatch(const double *X, std::size_t LdX, double *Y,
                           std::size_t LdY, int NumVectors) const {
  return cvrSpmm(M, X, LdX, Y, LdY, NumVectors);
}

} // namespace cvr
