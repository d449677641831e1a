//===- core/SpmvKernel.cpp - Virtual anchor for the kernel interface ------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The out-of-line destructor anchors SpmvKernel's vtable in the core
// library (which every kernel implementation links against), so the vtable
// is not duplicated into each translation unit including the header.
//
//===----------------------------------------------------------------------===//

#include "formats/SpmvKernel.h"

#include "obs/Trace.h"

#include <cassert>
#include <exception>
#include <new>
#include <string>
#include <vector>

namespace cvr {

SpmvKernel::~SpmvKernel() = default;

Status validatePanelArgs(const double *X, std::size_t LdX, const double *Y,
                         std::size_t LdY, int NumVectors) {
  if (NumVectors < 1)
    return Status::invalidArgument("SpMM needs NumVectors >= 1, got " +
                                   std::to_string(NumVectors));
  if (!X || !Y)
    return Status::invalidArgument("SpMM panels must be non-null");
  if (LdX < static_cast<std::size_t>(NumVectors) ||
      LdY < static_cast<std::size_t>(NumVectors))
    return Status::invalidArgument(
        "SpMM panel strides (LdX=" + std::to_string(LdX) +
        ", LdY=" + std::to_string(LdY) + ") must cover NumVectors=" +
        std::to_string(NumVectors));
  return Status::okStatus();
}

Status SpmvKernel::runBatch(const double *X, std::size_t LdX, double *Y,
                            std::size_t LdY, int NumVectors) const {
  Status S = validatePanelArgs(X, LdX, Y, LdY, NumVectors);
  if (!S.ok())
    return S;
  const std::int64_t Rows = preparedRows();
  const std::int64_t Cols = preparedCols();
  if (Rows < 0 || Cols < 0)
    return Status::failedPrecondition(
        name() + ": runBatch needs a prepared kernel reporting its shape");
  // Column-by-column composition through contiguous scratch: correct for
  // every format, but it streams the matrix once per column — the
  // degradation ladder's floor, not a fast path.
  std::vector<double> Xc(static_cast<std::size_t>(Cols));
  std::vector<double> Yc(static_cast<std::size_t>(Rows));
  for (int J = 0; J < NumVectors; ++J) {
    for (std::int64_t I = 0; I < Cols; ++I)
      Xc[static_cast<std::size_t>(I)] =
          X[static_cast<std::size_t>(I) * LdX + J];
    run(Xc.data(), Yc.data());
    for (std::int64_t I = 0; I < Rows; ++I)
      Y[static_cast<std::size_t>(I) * LdY + J] =
          Yc[static_cast<std::size_t>(I)];
  }
  return Status::okStatus();
}

void SpmvKernel::runFused(const double *X, double *Y,
                          FusedEpilogue &E) const {
  std::int64_t N = preparedRows();
  assert(N >= 0 && "runFused needs preparedRows(); prepare() must have run "
                   "and the kernel must report its row count");
  assert((!E.WantXDotY || N == preparedCols()) &&
         "x.y fusion reads the run input at output rows; needs square A");
  run(X, Y);
  obs::TraceSpan Span("execute/fused-epilogue", "execute");
  applyEpilogueScalar(E, X, Y, N);
}

bool SpmvKernel::traceRunFused(MemAccessSink &Sink, const double *X,
                               double *Y, FusedEpilogue &E) const {
  std::int64_t N = preparedRows();
  assert(N >= 0 && "traceRunFused needs preparedRows()");
  assert((!E.WantXDotY || N == preparedCols()) &&
         "x.y fusion reads the run input at output rows; needs square A");
  if (!traceRun(Sink, X, Y))
    return false;
  traceEpilogueScalar(Sink, E, X, Y, N);
  return true;
}

Status SpmvKernel::prepareStatus(const CsrMatrix &A) try {
  prepare(A);
  return Status::okStatus();
} catch (const std::bad_alloc &) {
  return Status::resourceExhausted(name() + ": preparation ran out of memory");
} catch (const std::exception &E) {
  return Status::internal(name() + ": preparation failed: " + E.what());
}

} // namespace cvr
