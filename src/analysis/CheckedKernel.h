//===- analysis/CheckedKernel.h - Registry-pluggable checked mode -*-C++-*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CVR_CHECKED execution mode: a SpmvKernel decorator that validates a
/// format's structure right after prepare() (InvariantChecker) and routes
/// CVR execution through the bounds-guarded chunk loop (cvrSpmvChecked for
/// SpMV, cvrSpmmChecked for SpMM).
/// checkedVariantsOf() mirrors the Registry's variant lists with every
/// factory wrapped, so tests and `cvr_tool validate` can run any format
/// configuration through checked mode by name.
///
/// validateMatrix() is the one-call driver: every variant of every format
/// is prepared, structurally checked, executed in checked mode, and
/// differentially compared against the scalar reference.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_ANALYSIS_CHECKEDKERNEL_H
#define CVR_ANALYSIS_CHECKEDKERNEL_H

#include "analysis/InvariantChecker.h"
#include "formats/Registry.h"

#include <memory>

namespace cvr {
namespace analysis {

/// Decorator running any kernel in checked mode. Violations found by the
/// structural check (at prepare()) and the checked shadows (at run())
/// accumulate in violations().
class CheckedKernel final : public SpmvKernel {
public:
  explicit CheckedKernel(std::unique_ptr<SpmvKernel> Inner);
  ~CheckedKernel() override;

  std::string name() const override;

  /// Prepares the inner kernel, then structurally validates what it built.
  void prepare(const CsrMatrix &A) override;

  /// CVR runs through cvrSpmvChecked; other formats run their production
  /// kernels (their structure was vetted in prepare()).
  void run(const double *X, double *Y) const override;

  std::int64_t preparedRows() const override {
    return Inner->preparedRows();
  }

  std::int64_t preparedCols() const override {
    return Inner->preparedCols();
  }

  /// Differentially verified SpMM: the path under test runs for real (for
  /// CVR the bounds-guarded panel loop, cvrSpmmChecked; otherwise the inner
  /// kernel's runBatch), then every panel column is recomputed through the
  /// checked single-vector path (cvrSpmvChecked for CVR) and compared.
  /// Mismatches beyond the reassociation tolerance surface as
  /// "checked.spmm.y" violations located by row and column.
  [[nodiscard]] Status runBatch(const double *X, std::size_t LdX, double *Y,
                                std::size_t LdY,
                                int NumVectors) const override;

  /// Differentially verified fusion: the inner kernel's runFused runs for
  /// real, then a reference — the checked run (cvrSpmvChecked for CVR)
  /// composed with the epilogue sweep — recomputes y, the accumulators,
  /// and the side outputs into scratch. On CVR this is where the native
  /// cvrSpmv run is compared against the bounds-checked shadow. Mismatches
  /// beyond the reassociation tolerance surface as "checked.fused.*"
  /// violations.
  void runFused(const double *X, double *Y,
                FusedEpilogue &E) const override;

  bool traceRun(MemAccessSink &Sink, const double *X,
                double *Y) const override;

  std::size_t formatBytes() const override;

  const SpmvKernel &inner() const { return *Inner; }

  const std::vector<Violation> &violations() const { return Vs; }
  void clearViolations() { Vs.clear(); }

private:
  std::unique_ptr<SpmvKernel> Inner;
  mutable std::vector<Violation> Vs;
};

/// The Registry's variants for \p F with every factory wrapped in a
/// CheckedKernel ("CVR" becomes "CVR+checked", ...).
std::vector<KernelVariant> checkedVariantsOf(FormatId F, int NumThreads = 0);

/// Canonical checked kernel of \p F (first variant).
std::unique_ptr<SpmvKernel> makeCheckedKernel(FormatId F, int NumThreads = 0);

/// True when the CVR_CHECKED environment variable opts the process into
/// checked mode ("0" / "" / unset mean off, anything else on).
bool checkedModeRequested();

/// variantsOf(F) normally; checkedVariantsOf(F) when CVR_CHECKED is set in
/// the environment. Drivers that want the opt-in call this instead of the
/// Registry directly.
std::vector<KernelVariant> variantsRespectingEnv(FormatId F,
                                                 int NumThreads = 0);

/// Result of running one variant through checked mode.
struct VariantReport {
  std::string Variant;              ///< e.g. "ESB/windowed+checked".
  std::vector<Violation> Structure; ///< From the post-prepare check.
  std::vector<Violation> Runtime;   ///< From the checked execution.
  double MaxRelDiff = 0.0;          ///< vs. the scalar reference SpMV.
  bool DiffOk = false;

  bool ok() const { return Structure.empty() && Runtime.empty() && DiffOk; }
};

/// Full checked-mode sweep over \p A: every variant of every format (or
/// just \p Only when non-null) is prepared, structurally checked, run in
/// checked mode on a deterministic x, and compared to the reference.
/// \p Tol bounds the acceptable max relative difference.
std::vector<VariantReport> validateMatrix(const CsrMatrix &A,
                                          const FormatId *Only = nullptr,
                                          int NumThreads = 0,
                                          double Tol = 1e-10);

} // namespace analysis
} // namespace cvr

#endif // CVR_ANALYSIS_CHECKEDKERNEL_H
