//===- engine/TunedKernel.cpp - Autotuned CVR SpmvKernel ------------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/TunedKernel.h"

namespace cvr {

TunedCvrKernel::TunedCvrKernel(AutotuneOptions Opts) : Opts(Opts) {}

void TunedCvrKernel::prepare(const CsrMatrix &A) {
  Result = autotuneCvr(A, Opts);
  // Rebuild the inner kernel under the winning plan; its options carry the
  // prefetch distance, so run()/traceRun() need no extra plumbing.
  Inner = CvrKernel(Result.Plan.toOptions(Opts.NumThreads));
  Inner.prepare(A);
}

Status TunedCvrKernel::prepareStatus(const CsrMatrix &A) {
  StatusOr<AutotuneResult> R = tryAutotuneCvr(A, Opts);
  if (!R.ok())
    return R.status().withContext("CVR+tuned prepare");
  Result = std::move(*R);
  Inner = CvrKernel(Result.Plan.toOptions(Opts.NumThreads));
  return Inner.prepareStatus(A);
}

void TunedCvrKernel::run(const double *X, double *Y) const {
  Inner.run(X, Y);
}

bool TunedCvrKernel::traceRun(MemAccessSink &Sink, const double *X,
                              double *Y) const {
  return Inner.traceRun(Sink, X, Y);
}

std::size_t TunedCvrKernel::formatBytes() const {
  return Inner.formatBytes();
}

} // namespace cvr
