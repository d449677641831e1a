//===- analysis/InvariantChecker.h - Format structure validation -*- C++-*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-checked validation of every SpMV format's structural invariants.
/// Each check* function walks one converted representation against the CSR
/// matrix it was built from and returns a list of violations; an empty list
/// means the structure is sound. Rules carry stable dotted identifiers
/// ("cvr.rec.pos-order", "esb.col.range", ...) so tests can assert that a
/// deliberately corrupted field is attributed to the right rule, and so CI
/// logs stay greppable.
///
/// The checks encode the invariants the kernels silently rely on:
///
///  * CSR    — zero-based monotone row pointers, in-bounds sorted columns;
///  * CVR    — position-ordered records, every non-empty row finished
///             exactly once per chunk, steps x omega stream accounting with
///             pad slots exactly covering the slack beyond nnz (PAPER.md
///             Section 4), tails/zero-rows consistency;
///  * CSR5   — transposed tile contents matching the source, row-start
///             bitmap and flush descriptors consistent with row pointers;
///  * ESB    — slice permutation, width, mask, and padding accounting;
///  * VHCC   — panel column ranges, dense non-decreasing local rows, and a
///             merge plan that is a permutation reaching every partial.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_ANALYSIS_INVARIANTCHECKER_H
#define CVR_ANALYSIS_INVARIANTCHECKER_H

#include "core/CvrFormat.h"

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace cvr {

class CsrMatrix;
class Csr5;
class Esb;
class Vhcc;
class SpmvKernel;

namespace analysis {

/// One detected invariant violation (the core type CvrMatrix's structure
/// walk reports).
using Violation = cvr::Violation;

/// Renders violations one per line ("rule @ location: message").
std::string formatViolations(const std::vector<Violation> &Vs);

/// Structural validator over every format the project builds. All entry
/// points are pure readers; nothing is modified.
class InvariantChecker {
public:
  /// Caps the violations reported per call so a systematically corrupt
  /// structure doesn't produce millions of lines.
  static constexpr std::size_t MaxViolations = 64;

  static std::vector<Violation> checkCsr(const CsrMatrix &A);

  /// CvrMatrix::checkStructure, the rules every reader shares. \p Origin,
  /// when given, adds the cross checks against the source matrix: the nnz
  /// partition, per-chunk row coverage, element multiset accounting and
  /// zero-row coverage.
  static std::vector<Violation> checkCvr(const CvrMatrix &M,
                                         const CsrMatrix *Origin = nullptr);

  static std::vector<Violation> checkCsr5(const Csr5 &K, const CsrMatrix &A);

  static std::vector<Violation> checkEsb(const Esb &K, const CsrMatrix &A);

  static std::vector<Violation> checkVhcc(const Vhcc &K, const CsrMatrix &A);

  /// Dispatches on the dynamic kernel type (CVR, CSR5, ESB, VHCC get their
  /// structural checks; the CSR-backed baselines get the CSR input check).
  /// \p K must already be prepare()d on \p A.
  static std::vector<Violation> checkKernel(const SpmvKernel &K,
                                            const CsrMatrix &A);

  /// Validates a serialized CVR blob end to end with CvrMatrix::readBlob:
  /// magic, version, header/section CRCs and strict count bounds (the
  /// "cvr.blob.*" rule family, attributed from the bracketed ids the
  /// decoder embeds in its diagnostics), then the structure walk, whose
  /// first broken rule is reported under its own "cvr.*" id. \p IS is
  /// consumed.
  static std::vector<Violation> checkBlob(std::istream &IS);

  /// The same validation over an in-memory blob image, such as an mmap'd
  /// file, with CvrMatrix::mapBlob (every check against the image; no
  /// pointer trusted before it passes). \p Data must be 64-byte aligned
  /// and hold a BlobLayout::Mapped (v4) blob; anything else is reported as
  /// a violation, exactly like a corrupt stream. When no violation is
  /// found and \p Decoded is given, the decoded matrix is moved into it —
  /// its hot streams alias \p Data — so a caller that validates and then
  /// serves the image decodes and walks it once.
  static std::vector<Violation> checkBlob(const void *Data, std::size_t Bytes,
                                          CvrMatrix *Decoded = nullptr);
};

} // namespace analysis
} // namespace cvr

#endif // CVR_ANALYSIS_INVARIANTCHECKER_H
