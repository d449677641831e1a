//===- analysis/Introspect.h - Structural views of format internals -*-C++-*-=//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single befriended gateway into every format's private representation.
/// Two audiences share it:
///
///  * the InvariantChecker reads the const views to validate structure
///    without widening any format's public API;
///  * the mutation tests (tests/InvariantCheckerTest.cpp) use the mutable
///    accessors to corrupt one field at a time and assert the checker
///    names the damage.
///
/// Nothing outside src/analysis and the tests should include this header;
/// production code must keep going through the formats' public interfaces.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_ANALYSIS_INTROSPECT_H
#define CVR_ANALYSIS_INTROSPECT_H

#include "core/CvrFormat.h"
#include "formats/Csr5.h"
#include "formats/Esb.h"
#include "formats/Vhcc.h"
#include "matrix/Csr.h"

#include <cstdint>
#include <vector>

namespace cvr {
namespace analysis {

/// Read-only snapshot of a CSR5 kernel's tiled representation.
struct Csr5View {
  int Omega = 0;
  int Sigma = 0;
  std::int32_t NumRows = 0;
  std::int64_t Nnz = 0;
  std::int64_t NumTiles = 0;
  std::int64_t TailStart = 0;
  std::int32_t TailFirstRow = 0;
  const double *TVals = nullptr;
  const std::int32_t *TCols = nullptr;
  const std::uint8_t *BitFlag = nullptr;
  const std::int32_t *LaneFirstRow = nullptr;
  const std::int64_t *FlushStart = nullptr; ///< NumTiles * Omega + 1 entries.
  const std::int32_t *FlushRows = nullptr;
  std::int64_t NumFlushRows = 0;
  const std::vector<std::int64_t> *ThreadTile = nullptr;
};

/// Read-only snapshot of an ESB kernel's sliced-ELLPACK representation.
struct EsbView {
  int SliceRows = 0;
  std::int32_t NumRows = 0;
  std::int64_t Nnz = 0;
  double PaddingRatio = 1.0;
  const std::vector<std::int32_t> *Perm = nullptr;
  const std::vector<std::int64_t> *SliceOff = nullptr;
  const double *Vals = nullptr;
  const std::int32_t *ColIdx = nullptr;
  std::int64_t NumSlots = 0;
  const std::uint8_t *Mask = nullptr;
  const std::vector<std::int32_t> *ThreadSlice = nullptr;
};

/// Read-only snapshot of a VHCC kernel's panel representation.
struct VhccView {
  int NumPanels = 0;
  std::int32_t NumRows = 0;
  std::int64_t Nnz = 0;
  const std::vector<std::int64_t> *PanelOff = nullptr;
  const double *Vals = nullptr;
  const std::int32_t *ColIdx = nullptr;
  const std::int32_t *LocalRow = nullptr;
  const std::vector<std::int64_t> *PartialOff = nullptr;
  const std::vector<std::int64_t> *MergePtr = nullptr;
  const std::vector<std::int64_t> *MergeIdx = nullptr;
};

/// Friend-of-every-format accessor bundle (see file comment).
struct Introspect {
  // --- CvrMatrix --------------------------------------------------------
  static std::vector<CvrRecord> &recs(CvrMatrix &M) { return M.Recs; }
  static AlignedBuffer<double> &vals(CvrMatrix &M) { return M.Vals; }
  static AlignedBuffer<std::int32_t> &colIdx(CvrMatrix &M) { return M.ColIdx; }
  static AlignedBuffer<float> &vals32(CvrMatrix &M) { return M.Vals32; }
  static AlignedBuffer<std::uint16_t> &colIdx16(CvrMatrix &M) {
    return M.ColIdx16;
  }
  static AlignedBuffer<std::int32_t> &tails(CvrMatrix &M) { return M.Tails; }
  static std::vector<CvrChunk> &chunks(CvrMatrix &M) { return M.Chunks; }
  static std::vector<std::int32_t> &zeroRows(CvrMatrix &M) {
    return M.ZeroRows;
  }
  static std::vector<CvrBand> &bands(CvrMatrix &M) { return M.Bands; }

  // --- CsrMatrix --------------------------------------------------------
  static AlignedBuffer<std::int32_t> &csrColIdx(CsrMatrix &A) {
    return A.ColIdx;
  }
  static AlignedBuffer<std::int64_t> &csrRowPtr(CsrMatrix &A) {
    return A.RowPtr;
  }

  // --- Csr5 -------------------------------------------------------------
  static Csr5View csr5(const Csr5 &K) {
    Csr5View V;
    V.Omega = Csr5::Omega;
    V.Sigma = K.Sigma;
    V.NumRows = K.NumRows;
    V.Nnz = K.Nnz;
    V.NumTiles = K.NumTiles;
    V.TailStart = K.TailStart;
    V.TailFirstRow = K.TailFirstRow;
    V.TVals = K.TVals.data();
    V.TCols = K.TCols.data();
    V.BitFlag = K.BitFlag.data();
    V.LaneFirstRow = K.LaneFirstRow.data();
    V.FlushStart = K.FlushStart.data();
    V.FlushRows = K.FlushRows.data();
    V.NumFlushRows = static_cast<std::int64_t>(K.FlushRows.size());
    V.ThreadTile = &K.ThreadTile;
    return V;
  }
  static AlignedBuffer<std::int32_t> &csr5TileCols(Csr5 &K) { return K.TCols; }
  static AlignedBuffer<std::uint8_t> &csr5BitFlag(Csr5 &K) {
    return K.BitFlag;
  }
  static AlignedBuffer<std::int64_t> &csr5FlushStart(Csr5 &K) {
    return K.FlushStart;
  }
  static AlignedBuffer<std::int32_t> &csr5FlushRows(Csr5 &K) {
    return K.FlushRows;
  }
  static AlignedBuffer<std::int32_t> &csr5LaneFirstRow(Csr5 &K) {
    return K.LaneFirstRow;
  }

  // --- Esb --------------------------------------------------------------
  static EsbView esb(const Esb &K) {
    EsbView V;
    V.SliceRows = Esb::SliceRows;
    V.NumRows = K.NumRows;
    V.Nnz = K.Nnz;
    V.PaddingRatio = K.PaddingRatio;
    V.Perm = &K.Perm;
    V.SliceOff = &K.SliceOff;
    V.Vals = K.Vals.data();
    V.ColIdx = K.ColIdx.data();
    V.NumSlots = static_cast<std::int64_t>(K.Vals.size());
    V.Mask = K.Mask.data();
    V.ThreadSlice = &K.ThreadSlice;
    return V;
  }
  static AlignedBuffer<std::int32_t> &esbColIdx(Esb &K) { return K.ColIdx; }
  static AlignedBuffer<std::uint8_t> &esbMask(Esb &K) { return K.Mask; }
  static std::vector<std::int32_t> &esbPerm(Esb &K) { return K.Perm; }
  static std::vector<std::int64_t> &esbSliceOff(Esb &K) { return K.SliceOff; }

  // --- Vhcc -------------------------------------------------------------
  static VhccView vhcc(const Vhcc &K) {
    VhccView V;
    V.NumPanels = K.NumPanels;
    V.NumRows = K.NumRows;
    V.Nnz = K.Nnz;
    V.PanelOff = &K.PanelOff;
    V.Vals = K.Vals.data();
    V.ColIdx = K.ColIdx.data();
    V.LocalRow = K.LocalRow.data();
    V.PartialOff = &K.PartialOff;
    V.MergePtr = &K.MergePtr;
    V.MergeIdx = &K.MergeIdx;
    return V;
  }
  static AlignedBuffer<std::int32_t> &vhccColIdx(Vhcc &K) { return K.ColIdx; }
  static AlignedBuffer<std::int32_t> &vhccLocalRow(Vhcc &K) {
    return K.LocalRow;
  }
  static std::vector<std::int64_t> &vhccMergeIdx(Vhcc &K) {
    return K.MergeIdx;
  }
  static std::vector<std::int64_t> &vhccPanelOff(Vhcc &K) {
    return K.PanelOff;
  }
};

} // namespace analysis
} // namespace cvr

#endif // CVR_ANALYSIS_INTROSPECT_H
