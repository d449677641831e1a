//===- engine/TunedKernel.h - Autotuned CVR SpmvKernel ----------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "CVR+tuned": the SpmvKernel that runs the autotuner at prepare() time
/// and then executes CVR under the winning plan. It wraps a plain
/// CvrKernel, so tracing, formatBytes, and the checked-execution plumbing
/// (via CvrMatrixSource) all see the tuned matrix exactly as run() does.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_ENGINE_TUNEDKERNEL_H
#define CVR_ENGINE_TUNEDKERNEL_H

#include "core/CvrSpmv.h"
#include "engine/Autotune.h"

namespace cvr {

/// CVR with a per-matrix execution plan chosen by autotuneCvr().
class TunedCvrKernel : public SpmvKernel, public CvrMatrixSource {
public:
  explicit TunedCvrKernel(AutotuneOptions Opts = {});

  std::string name() const override { return "CVR+tuned"; }

  /// Tunes (or fetches the cached plan), then converts under that plan.
  /// The search cost lands here, mirroring where the paper accounts
  /// preprocessing time.
  void prepare(const CsrMatrix &A) override;

  /// Recoverable variant: a tuner DEADLINE_EXCEEDED (budget expired, hung
  /// probe simulated by the `tune.timeout` fail point) or conversion
  /// failure surfaces here instead of silently falling back, so the
  /// degradation ladder can record the reason and step down explicitly.
  [[nodiscard]] Status prepareStatus(const CsrMatrix &A) override;

  void run(const double *X, double *Y) const override;

  std::int64_t preparedRows() const override {
    return Inner.preparedRows();
  }

  std::int64_t preparedCols() const override {
    return Inner.preparedCols();
  }

  /// Batched execution under the tuned SpMV plan: the inner CvrKernel
  /// carries the plan's conversion and prefetch distance. SpMM has no
  /// tuning leg of its own; its one register-block width needs none.
  [[nodiscard]] Status runBatch(const double *X, std::size_t LdX, double *Y,
                                std::size_t LdY,
                                int NumVectors) const override {
    return Inner.runBatch(X, LdX, Y, LdY, NumVectors);
  }

  bool traceRun(MemAccessSink &Sink, const double *X,
                double *Y) const override;

  std::size_t formatBytes() const override;

  /// The plan prepare() settled on (default plan before prepare()).
  const CvrPlan &plan() const { return Result.Plan; }

  /// Full tuning telemetry (iterations spent, cache hit, timings).
  const AutotuneResult &tuneResult() const { return Result; }

  const CvrMatrix &cvrMatrix() const override { return Inner.matrix(); }
  int cvrPrefetchDistance() const override {
    return Result.Plan.PrefetchDistance;
  }

private:
  AutotuneOptions Opts;
  AutotuneResult Result;
  CvrKernel Inner;
};

} // namespace cvr

#endif // CVR_ENGINE_TUNEDKERNEL_H
