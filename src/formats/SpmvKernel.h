//===- formats/SpmvKernel.h - Common SpMV kernel interface ------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface every SpMV implementation in this project provides: a
/// preprocessing step converting from classic CSR into the format's internal
/// representation, and a per-iteration `y = A * x` kernel. The benchmark
/// harness times the two phases separately, exactly as the paper separates
/// "preprocessing overhead" from "each-iteration SpMV performance"
/// (Section 1).
///
//===----------------------------------------------------------------------===//

#ifndef CVR_FORMATS_SPMVKERNEL_H
#define CVR_FORMATS_SPMVKERNEL_H

#include "formats/FusedEpilogue.h"
#include "matrix/Csr.h"
#include "support/MemSink.h"
#include "support/Status.h"

#include <memory>
#include <string>

namespace cvr {

/// Abstract SpMV implementation over one prepared matrix.
///
/// Usage: construct, call prepare(A) once (timed as preprocessing), then
/// call run(x, y) any number of times (timed as SpMV iterations). The
/// kernel may retain a pointer to \p A, so the matrix must outlive it.
class SpmvKernel {
public:
  virtual ~SpmvKernel();

  /// Display name ("CVR", "CSR5", "ESB/sorted", ...).
  virtual std::string name() const = 0;

  /// Converts \p A into the internal representation. Called exactly once.
  virtual void prepare(const CsrMatrix &A) = 0;

  /// Recoverable preparation, the entry point the degradation ladder in
  /// formats/Registry uses. The default implementation wraps prepare() and
  /// maps escaping exceptions onto Status (bad_alloc becomes
  /// RESOURCE_EXHAUSTED, anything else INTERNAL); kernels with a native
  /// error path (CVR) override it to report precise causes
  /// without exceptions. On failure the kernel must not be used.
  [[nodiscard]] virtual Status prepareStatus(const CsrMatrix &A);

  /// Computes y = A * x. \p Y has numRows elements and is overwritten;
  /// \p X has numCols elements. prepare() must have been called.
  virtual void run(const double *X, double *Y) const = 0;

  /// Row count of the prepared matrix, or -1 before prepare(). The fused
  /// default implementations size their composing sweeps with it.
  virtual std::int64_t preparedRows() const { return -1; }

  /// Column count of the prepared matrix, or -1 before prepare(). The
  /// batch default implementation sizes its per-column scratch with it.
  virtual std::int64_t preparedCols() const { return -1; }

  /// SpMM: computes Y = A * X for \p NumVectors right-hand sides stored
  /// row-major — element (i, j) of X at X[i * LdX + j] with LdX >=
  /// NumVectors (X has numCols rows), likewise Y with LdY >= NumVectors
  /// (numRows rows, overwritten). Invalid panel arguments are rejected
  /// with INVALID_ARGUMENT in every build mode (validatePanelArgs). The
  /// default strided-copies each column through scratch vectors and run(),
  /// so every format serves batches; CSR and the CVR kernels override it
  /// with native SpMM paths that stream the matrix once per register block
  /// of columns.
  [[nodiscard]] virtual Status runBatch(const double *X, std::size_t LdX,
                                        double *Y, std::size_t LdY,
                                        int NumVectors) const;

  /// Computes y = A * x and applies \p E to every finished y element (see
  /// FusedEpilogue.h for the op catalog): run() followed by one
  /// applyEpilogueScalar sweep, traced as the execute/fused-epilogue span.
  /// The accumulator outputs land in E.Acc1..Acc3. E.WantXDotY reads x at
  /// output rows, so it needs a square matrix (asserted). Virtual only so
  /// decorators can observe the call (CheckedKernel verifies it against a
  /// reference); no format overrides it.
  virtual void runFused(const double *X, double *Y, FusedEpilogue &E) const;

  /// Replays runFused()'s memory-reference stream into \p Sink while
  /// computing the same result: traceRun() followed by the traced epilogue
  /// sweep (the y re-read plus the operands), so the cache simulator and
  /// the bandwidth accounting can price the epilogue. Returns false if the
  /// kernel does not implement tracing.
  bool traceRunFused(MemAccessSink &Sink, const double *X, double *Y,
                     FusedEpilogue &E) const;

  /// Bytes of the internal representation (excluding the input CSR);
  /// used by the format-footprint report. Optional; 0 if not tracked.
  virtual std::size_t formatBytes() const { return 0; }

  /// Replays run()'s memory-reference stream into \p Sink while computing
  /// y = A * x (so traces can be cross-checked against run()). The trace is
  /// the sequential single-core reference order; the cache simulator feeds
  /// on it to reproduce the paper's L2 miss-ratio study. Returns false if
  /// the kernel does not implement tracing.
  virtual bool traceRun(MemAccessSink &Sink, const double *X,
                        double *Y) const {
    (void)Sink;
    (void)X;
    (void)Y;
    return false;
  }
};

/// The panel-argument check every runBatch path runs first: INVALID_ARGUMENT
/// unless \p NumVectors >= 1, both panels are non-null and both leading
/// dimensions cover \p NumVectors.
[[nodiscard]] Status validatePanelArgs(const double *X, std::size_t LdX,
                                       const double *Y, std::size_t LdY,
                                       int NumVectors);

} // namespace cvr

#endif // CVR_FORMATS_SPMVKERNEL_H
