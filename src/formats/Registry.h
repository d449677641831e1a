//===- formats/Registry.h - Kernel factory registry -------------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Name-based factory over every SpMV implementation in the project, plus
/// the per-format variant lists the harness sweeps (schedule policies for
/// CSR(I) and ESB, panel counts for VHCC) to reproduce the paper's
/// best-of-configuration methodology (Section 6.2).
///
//===----------------------------------------------------------------------===//

#ifndef CVR_FORMATS_REGISTRY_H
#define CVR_FORMATS_REGISTRY_H

#include "formats/SpmvKernel.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cvr {

/// The six formats of the paper's evaluation, in its presentation order.
enum class FormatId { Mkl, CsrI, Esb, Vhcc, Csr5, Cvr };

/// Paper-facing format name ("MKL", "CSR(I)", "ESB", "VHCC", "CSR5",
/// "CVR").
const char *formatName(FormatId F);

/// All six formats in presentation order.
const std::vector<FormatId> &allFormats();

/// One concrete configuration of a format.
struct KernelVariant {
  FormatId Format;
  std::string VariantName; ///< e.g. "CSR(I)/dynamic", "VHCC/p8".
  std::function<std::unique_ptr<SpmvKernel>()> Make;
};

/// Every variant of \p F (one entry for parameterless formats; one per
/// schedule policy / panel count otherwise). \p NumThreads <= 0 selects the
/// OpenMP default.
std::vector<KernelVariant> variantsOf(FormatId F, int NumThreads = 0);

/// Convenience: the canonical single variant of \p F (first entry).
std::unique_ptr<SpmvKernel> makeKernel(FormatId F, int NumThreads = 0);

/// Knobs for prepareKernel's degradation ladder.
struct PrepareOptions {
  int NumThreads = 0; ///< <= 0 selects the OpenMP default.
};

/// One recorded step down the ladder: \p FromVariant failed to prepare
/// with \p Reason, so \p ToVariant was tried next.
struct DowngradeStep {
  std::string FromVariant;
  std::string ToVariant;
  Status Reason;
};

/// The outcome of the degradation ladder: a kernel that DID prepare, plus
/// the trail of rungs that failed on the way to it. The requested variant
/// equals the actual one on the happy path.
struct PreparedKernel {
  std::unique_ptr<SpmvKernel> Kernel;
  std::string Requested; ///< Top rung of the ladder.
  std::string Actual;    ///< Rung that prepared successfully.
  std::vector<DowngradeStep> Downgrades;

  bool degraded() const { return Requested != Actual; }
};

/// Prepares a kernel for \p F on \p A, degrading gracefully instead of
/// failing: the format's canonical variant first (CVR runs the default
/// conversion), then the CSR baseline. Each step down records why. Returns a
/// non-OK Status only when every rung fails (the CSR baseline needs no
/// preprocessing, so that effectively means the machine is out of memory).
[[nodiscard]] StatusOr<PreparedKernel> prepareKernel(FormatId F, const CsrMatrix &A,
                                       const PrepareOptions &Opts = {});

} // namespace cvr

#endif // CVR_FORMATS_REGISTRY_H
