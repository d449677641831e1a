//===- analysis/Roofline.cpp - Bandwidth-roofline traffic model -----------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/Roofline.h"

#include <algorithm>
#include <vector>

namespace cvr {
namespace analysis {

namespace {

constexpr double LineBytes = 64.0;
constexpr std::int64_t DoublesPerLine = 8;

/// 64-byte lines a row span [First, Last] of an 8-byte-element vector
/// covers; 0 for an empty span (First < 0).
std::int64_t spanLines(std::int32_t First, std::int32_t Last) {
  if (First < 0 || Last < First)
    return 0;
  return Last / DoublesPerLine - First / DoublesPerLine + 1;
}

/// Distinct x lines gathered by the chunks in [ChunkBegin, ChunkEnd).
/// Pads gather a real column (0, or the band base under U16Band), so they
/// are counted like any other element — the line they touch is almost
/// always shared with a genuine nonzero.
std::int64_t touchedXLines(const CvrMatrix &M, std::int32_t ChunkBegin,
                           std::int32_t ChunkEnd,
                           std::vector<std::uint8_t> &Seen) {
  std::fill(Seen.begin(), Seen.end(), 0);
  std::int64_t Count = 0;
  for (std::int32_t C = ChunkBegin; C < ChunkEnd; ++C) {
    const CvrChunk &Ch = M.chunks()[static_cast<std::size_t>(C)];
    const std::int32_t Base = M.chunkColBase(static_cast<std::size_t>(C));
    const std::int64_t End = Ch.ElemBase + Ch.NumSteps * M.lanes();
    for (std::int64_t I = Ch.ElemBase; I < End; ++I) {
      const auto Line =
          static_cast<std::size_t>(M.colAt(I, Base) / DoublesPerLine);
      if (!Seen[Line]) {
        Seen[Line] = 1;
        ++Count;
      }
    }
  }
  return Count;
}

void finalize(RooflinePrediction &P, std::int64_t Nnz) {
  P.XBytes = P.Alpha * P.XCompulsoryBytes;
  P.TotalBytes = P.ValueBytes + P.IndexBytes + P.RecordBytes + P.TailBytes +
                 P.XBytes + P.YBytes;
  P.BytesPerNnz = Nnz > 0 ? P.TotalBytes / static_cast<double>(Nnz) : 0.0;
}

} // namespace

RooflinePrediction predictCvr(const CvrMatrix &M, double Alpha) {
  RooflinePrediction P;
  P.Alpha = std::max(0.0, Alpha);

  std::int64_t Steps = 0;
  std::int64_t NumRecs = 0;
  for (const CvrChunk &C : M.chunks()) {
    Steps += C.NumSteps;
    NumRecs += C.RecEnd - C.RecBase;
  }
  const std::int64_t Elems = Steps * M.lanes();
  // The kernel also reads one finish-mask byte per step and chunk.
  const std::int64_t MaskBytes = Steps + M.numChunks();
  P.ValueBytes = static_cast<double>(Elems) *
                 static_cast<double>(M.valueBytes());
  P.IndexBytes = static_cast<double>(Elems) *
                 static_cast<double>(M.indexBytes());
  P.RecordBytes = static_cast<double>(NumRecs) * sizeof(CvrRecord) +
                  static_cast<double>(MaskBytes);
  P.TailBytes = static_cast<double>(M.numChunks()) * M.lanes() *
                sizeof(std::int32_t);

  const std::int64_t AllYLines =
      (static_cast<std::int64_t>(M.numRows()) + DoublesPerLine - 1) /
      DoublesPerLine;
  std::vector<std::uint8_t> Seen(
      static_cast<std::size_t>(
          (static_cast<std::int64_t>(M.numCols()) + DoublesPerLine - 1) /
          DoublesPerLine) +
      1);

  std::int64_t XLines = 0;
  double YLines = 0.0;
  if (M.isBlocked()) {
    // The blocked kernel zeroes all of y once, then every band
    // read-modify-writes the y lines its chunks' row spans cover.
    YLines = static_cast<double>(AllYLines);
    for (const CvrBand &B : M.bands()) {
      XLines += touchedXLines(M, B.ChunkBegin, B.ChunkEnd, Seen);
      std::int32_t First = -1;
      std::int32_t Last = -1;
      for (std::int32_t C = B.ChunkBegin; C < B.ChunkEnd; ++C) {
        const CvrChunk &Ch = M.chunks()[static_cast<std::size_t>(C)];
        if (Ch.FirstRow < 0)
          continue;
        First = First < 0 ? Ch.FirstRow : std::min(First, Ch.FirstRow);
        Last = std::max(Last, Ch.LastRow);
      }
      YLines += static_cast<double>(spanLines(First, Last));
    }
  } else {
    XLines = touchedXLines(M, 0, static_cast<std::int32_t>(M.numChunks()),
                           Seen);
    YLines = static_cast<double>(AllYLines);
  }
  P.XCompulsoryBytes = LineBytes * static_cast<double>(XLines);
  P.YBytes = LineBytes * YLines;

  finalize(P, M.numNonZeros());
  return P;
}

RooflinePrediction predictCsr(const CsrMatrix &A, double Alpha) {
  RooflinePrediction P;
  P.Alpha = std::max(0.0, Alpha);

  const std::int64_t Nnz = A.numNonZeros();
  P.ValueBytes = static_cast<double>(Nnz) * sizeof(double);
  P.IndexBytes = static_cast<double>(Nnz) * sizeof(std::int32_t);
  // CSR's structural metadata stream is the row-pointer array.
  P.RecordBytes =
      static_cast<double>(A.numRows() + 1) * sizeof(std::int64_t);
  P.TailBytes = 0.0;
  P.YBytes = LineBytes *
             static_cast<double>(
                 (static_cast<std::int64_t>(A.numRows()) + DoublesPerLine -
                  1) /
                 DoublesPerLine);

  std::vector<std::uint8_t> Seen(
      static_cast<std::size_t>(
          (static_cast<std::int64_t>(A.numCols()) + DoublesPerLine - 1) /
          DoublesPerLine) +
      1,
      0);
  std::int64_t XLines = 0;
  for (std::int64_t I = 0; I < Nnz; ++I) {
    const auto Line =
        static_cast<std::size_t>(A.colIdx()[I] / DoublesPerLine);
    if (!Seen[Line]) {
      Seen[Line] = 1;
      ++XLines;
    }
  }
  P.XCompulsoryBytes = LineBytes * static_cast<double>(XLines);

  finalize(P, Nnz);
  return P;
}

double alphaFromLocality(const LocalityResult &Probe,
                         const RooflinePrediction &Compulsory,
                         std::int64_t Nnz) {
  if (!Probe.Supported || Compulsory.XCompulsoryBytes <= 0.0)
    return 1.0;
  const double Dram = static_cast<double>(Probe.L2Fills) * LineBytes;
  const double Deterministic = Compulsory.ValueBytes +
                               Compulsory.IndexBytes +
                               Compulsory.RecordBytes +
                               Compulsory.TailBytes + Compulsory.YBytes;
  const double XMeasured = Dram - Deterministic;
  // One line per gather is the pathological ceiling; alpha below 1 means
  // part of x stayed resident across iterations (steady-state traffic
  // under the cold compulsory bytes).
  const double Ceiling = std::max(
      1.0, static_cast<double>(Nnz) * LineBytes /
               Compulsory.XCompulsoryBytes);
  const double Alpha = XMeasured / Compulsory.XCompulsoryBytes;
  return std::clamp(Alpha, 0.0, Ceiling);
}

MeasuredTraffic measureDramTraffic(const SpmvKernel &K, const CsrMatrix &A,
                                   const double *X,
                                   const LocalityConfig &Cfg) {
  MeasuredTraffic T;
  const LocalityResult R = X != nullptr ? probeLocality(K, A, X, Cfg)
                                        : probeLocality(K, A, Cfg);
  if (!R.Supported)
    return T;
  T.Supported = true;
  T.DramBytes = static_cast<double>(R.L2Fills) * LineBytes;
  T.L2MissRatio = R.L2MissRatio;
  const std::int64_t Nnz = A.numNonZeros();
  T.BytesPerNnz = Nnz > 0 ? T.DramBytes / static_cast<double>(Nnz) : 0.0;
  return T;
}

} // namespace analysis
} // namespace cvr
