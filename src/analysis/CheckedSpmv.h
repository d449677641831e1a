//===- analysis/CheckedSpmv.h - Bounds-checked CVR SpMV ---------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checked execution of CVR SpMV and SpMM: validates every memory
/// reference the production kernels perform blind. Each chunk's extents
/// are checked against the streams and finish masks, each lane's column
/// against the x vector's (or X panel's) extent, each drain against the
/// chunk's records, each drained record against the position its value
/// was staged from, and each write target (feed rows, t_result slots, tail
/// rows, zeroed rows) against its destination, before the access happens.
/// Out-of-range references are reported as Violations ("checked.cvr.*")
/// and skipped, so a corrupt format produces a diagnostic instead of a
/// wild load.
///
/// Checked mode is not a copy of the kernels: it runs the production pass
/// (core/CvrChunkLoop.h) under a bounds-guard observer, for every stream
/// kind and both lane policies; a bad gather lane goes through the masked
/// gather, a bad panel lane skips its load, and neither is dereferenced.
/// The SpMM lane policy reads no finish masks, so the finish-mask rule
/// fires only for SpMV. The chunks run serially — checked mode trades all
/// speed for diagnosis — which also makes the output bit-deterministic.
/// The independent numerical oracle is referenceSpmv, which validateMatrix
/// and the differential fuzzers compare against.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_ANALYSIS_CHECKEDSPMV_H
#define CVR_ANALYSIS_CHECKEDSPMV_H

#include "analysis/InvariantChecker.h"
#include "support/Status.h"

#include <cstddef>

namespace cvr {

class CvrMatrix;

namespace analysis {

/// Computes y = M * x like cvrSpmv, serially through the bounds-guarded
/// chunk loop; appends a Violation per out-of-range reference instead of
/// performing it.
void cvrSpmvChecked(const CvrMatrix &M, const double *X, double *Y,
                    std::vector<Violation> &Vs);

/// Computes Y = M * X like cvrSpmm (row-major panels of \p NumVectors
/// columns), serially through the bounds-guarded panel loop; appends a
/// Violation per out-of-range reference instead of performing it. Rejects
/// invalid panel arguments with INVALID_ARGUMENT, as cvrSpmm does.
[[nodiscard]] Status cvrSpmmChecked(const CvrMatrix &M, const double *X,
                                    std::size_t LdX, double *Y,
                                    std::size_t LdY, int NumVectors,
                                    std::vector<Violation> &Vs);

} // namespace analysis
} // namespace cvr

#endif // CVR_ANALYSIS_CHECKEDSPMV_H
