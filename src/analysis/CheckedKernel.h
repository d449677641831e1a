//===- analysis/CheckedKernel.h - Registry-pluggable checked mode -*-C++-*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checked mode: a SpmvKernel decorator that validates a format's structure
/// right after prepare() (InvariantChecker), and for CVR again before every
/// run: the production kernel reads and writes through the records and
/// tails blind, so a CVR matrix runs only once CvrMatrix::checkStructure,
/// the one walk conversion and the blob decoder share, finds it sound. A
/// broken one is reported and y is left untouched. Batched and fused runs
/// are then compared against a per-column or unfused composition of the
/// inner kernel's run.
/// checkedVariantsOf() mirrors the Registry's variant lists with every
/// factory wrapped, so tests and `cvr_tool validate` can run any format
/// configuration through checked mode by name.
///
/// validateMatrix() is the one-call driver: every variant of every format
/// is prepared, structurally checked, executed, and differentially compared
/// against the scalar reference.
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
/// structural checks (at prepare(), and for CVR at every run) and the
/// differential compares accumulate in violations().
class CheckedKernel final : public SpmvKernel {
public:
  explicit CheckedKernel(std::unique_ptr<SpmvKernel> Inner);
  ~CheckedKernel() override;

  std::string name() const override;

  /// Prepares the inner kernel, then structurally validates what it built.
  void prepare(const CsrMatrix &A) override;

  /// Runs the inner kernel; CVR only once its structure passes.
  void run(const double *X, double *Y) const override;

  std::int64_t preparedRows() const override {
    return Inner->preparedRows();
  }

  std::int64_t preparedCols() const override {
    return Inner->preparedCols();
  }

  /// Differentially verified SpMM: the inner kernel's runBatch runs for
  /// real (CVR only once its structure passes), then every panel column is
  /// recomputed through the inner kernel's run and compared. Mismatches
  /// beyond the reassociation tolerance surface as "checked.spmm.y"
  /// violations located by row and column.
  [[nodiscard]] Status runBatch(const double *X, std::size_t LdX, double *Y,
                                std::size_t LdY,
                                int NumVectors) const override;

  /// Differentially verified fusion: the inner kernel's runFused runs for
  /// real (CVR only once its structure passes), then a reference — the
  /// inner kernel's run composed with the scalar epilogue sweep —
  /// recomputes y, the accumulators, and the side outputs into scratch.
  /// Mismatches beyond the reassociation tolerance surface as
  /// "checked.fused.*" violations.
  void runFused(const double *X, double *Y,
                FusedEpilogue &E) const override;

  bool traceRun(MemAccessSink &Sink, const double *X,
                double *Y) const override;

  std::size_t formatBytes() const override;

  const SpmvKernel &inner() const { return *Inner; }

  const std::vector<Violation> &violations() const { return Vs; }
  void clearViolations() { Vs.clear(); }

private:
  /// For a CVR inner kernel, the structure walk its run relies on: appends
  /// what it finds and returns false when it found anything. True for
  /// other formats.
  bool structureSound() const;

  std::unique_ptr<SpmvKernel> Inner;
  mutable std::vector<Violation> Vs;
};

/// The Registry's variants for \p F with every factory wrapped in a
/// CheckedKernel ("CVR" becomes "CVR+checked", ...).
std::vector<KernelVariant> checkedVariantsOf(FormatId F, int NumThreads = 0);

/// Canonical checked kernel of \p F (first variant).
std::unique_ptr<SpmvKernel> makeCheckedKernel(FormatId F, int NumThreads = 0);

/// Result of running one variant through checked mode.
struct VariantReport {
  std::string Variant;              ///< e.g. "ESB/windowed+checked".
  std::vector<Violation> Structure; ///< From the post-prepare check.
  double MaxRelDiff = 0.0;          ///< vs. the scalar reference SpMV.
  bool DiffOk = false;

  bool ok() const { return Structure.empty() && DiffOk; }
};

/// Full checked-mode sweep over \p A: every variant of every format (or
/// just \p Only when non-null) is prepared, structurally checked, run on a
/// deterministic x, and compared to the reference.
/// \p Tol bounds the acceptable max relative difference.
std::vector<VariantReport> validateMatrix(const CsrMatrix &A,
                                          const FormatId *Only = nullptr,
                                          int NumThreads = 0,
                                          double Tol = 1e-10);

} // namespace analysis
} // namespace cvr

#endif // CVR_ANALYSIS_CHECKEDKERNEL_H
