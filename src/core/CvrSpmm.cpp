//===- core/CvrSpmm.cpp - Batched multi-RHS SpMM over CVR -----------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The panel kernel is templated on a panel-operations policy (8-wide,
// 4-wide, or masked tail) and, like the SpMV kernel in CvrSpmv.cpp, on a
// write-back policy (Store or Accumulate). The per-step stream
// consumption is the SpMV kernel's, but the per-lane accumulator is a
// panel-row vector instead of a scalar, and every record/tail write-back
// moves a whole register of columns. Records are rare relative to steps,
// so their shared-row atomics stay scalar. Matrices the panel kernel does
// not read (compressed streams) compose SpMM from per-column SpMV runs
// instead. A fused batch epilogue is one sweep after the kernel: CvrKernel
// inherits SpmvKernel::runBatchFused.
//
//===----------------------------------------------------------------------===//

#include "core/CvrSpmm.h"

#include "core/CvrSpmv.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "simd/Simd.h"
#include "support/Annotations.h"
#include "support/ParallelFor.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace cvr {

namespace {

/// Full-width panel policy: one VecD8 of columns per lane.
struct Panel8 {
  using Vec = simd::VecD8;
  int width() const { return 8; }
  Vec zero() const { return simd::VecD8::zero(); }
  Vec load(const double *P) const { return simd::VecD8::loadu(P); }
  void store(Vec V, double *P) const { V.storeu(P); }
  Vec fmadd(Vec Acc, double S, const double *P) const {
    return Acc.fmadd(simd::VecD8::broadcast(S), load(P));
  }
  void spill(Vec V, double *Buf8) const { V.toArray(Buf8); }
};

/// Half-width panel policy for K ≡ 4 (mod 8) passes.
struct Panel4 {
  using Vec = simd::VecD4;
  int width() const { return 4; }
  Vec zero() const { return simd::VecD4::zero(); }
  Vec load(const double *P) const { return simd::VecD4::loadu(P); }
  void store(Vec V, double *P) const { V.storeu(P); }
  Vec fmadd(Vec Acc, double S, const double *P) const {
    return Acc.fmadd(simd::VecD4::broadcast(S), load(P));
  }
  void spill(Vec V, double *Buf8) const { V.toArray(Buf8); }
};

/// Masked-tail panel policy: any remainder width 1..7 in one masked pass,
/// so a degenerate K (say 7) never re-streams the matrix per column.
struct PanelTail {
  int Bw;
  unsigned Mask;
  using Vec = simd::VecD8;
  explicit PanelTail(int Bw) : Bw(Bw), Mask((1U << Bw) - 1U) {}
  int width() const { return Bw; }
  Vec zero() const { return simd::VecD8::zero(); }
  Vec load(const double *P) const { return simd::VecD8::maskLoadu(P, Mask); }
  void store(Vec V, double *P) const { V.maskStoreu(P, Mask); }
  Vec fmadd(Vec Acc, double S, const double *P) const {
    return Acc.fmadd(simd::VecD8::broadcast(S), load(P));
  }
  void spill(Vec V, double *Buf8) const { V.toArray(Buf8); }
};

/// Adds \p Bw partials into a chunk-boundary row. The neighbouring chunk
/// writes the row too, so each add is atomic.
inline void atomicAddRow(double *YRow, const double *V, int Bw) {
  for (int J = 0; J < Bw; ++J) {
#pragma omp atomic
    YRow[J] += V[J];
  }
}

/// The Store (Add = false) and Accumulate (Add = true) write-back
/// policies, the panel counterparts of the SpMV ones in CvrChunkLoop.h: an
/// exclusive row stores (or, in accumulate mode, adds) a whole register of
/// columns; a chunk-boundary row spills and adds element-wise atomically,
/// because the neighbouring chunk writes it too.
template <bool Add> struct PanelScatterWriteBack {
  double *Y;
  std::size_t LdY;

  double *row(std::int32_t Row) const {
    return Y + static_cast<std::size_t>(Row) * LdY;
  }

  template <class Panel>
  CVR_HOT void finish(const Panel &P, std::int32_t Row,
                      typename Panel::Vec V, bool Shared) const {
    if (Shared) {
      alignas(64) double Buf[8];
      P.spill(V, Buf);
      atomicAddRow(row(Row), Buf, P.width());
    } else if (Add) {
      double *YRow = row(Row);
      P.store(P.load(YRow).add(V), YRow);
    } else {
      P.store(V, row(Row));
    }
  }
};

using PanelStoreWriteBack = PanelScatterWriteBack<false>;
using PanelAccumulateWriteBack = PanelScatterWriteBack<true>;

/// One chunk of the register-blocked SpMM kernel: lane k accumulates a
/// whole panel row in a vector register, fed by one contiguous load of
/// X[Cols[step*8+k] * LdX .. +width) per element — no gathers. Structure
/// (records, stealing, tails) mirrors runChunk, with every write-back a
/// panel row through the policy \p Out.
template <class Panel, class WriteBack>
CVR_HOT void runChunkSpmm(const CvrMatrix &M, const CvrChunk &C,
                          const double *X, std::size_t LdX, Panel P,
                          int PfDist, WriteBack Out) {
  constexpr int W = 8;
  const double *Vals = M.vals() + C.ElemBase;
  const std::int32_t *Cols = M.colIdx() + C.ElemBase;
  const CvrRecord *Recs = M.recs();
  std::int64_t RecIdx = C.RecBase;
  const std::int64_t RecEnd = C.RecEnd;

  typename Panel::Vec VOut[W], TRes[W];
  for (int K = 0; K < W; ++K) {
    VOut[K] = P.zero();
    TRes[K] = P.zero();
  }

  auto ApplyRecords = [&](std::int64_t Limit) {
    do {
      const CvrRecord &R = Recs[RecIdx];
      int Off = static_cast<int>(R.Pos & (W - 1));
      if (R.Steal)
        TRes[R.Wb] = TRes[R.Wb].add(VOut[Off]);
      else
        Out.finish(P, R.Wb, VOut[Off], R.Shared != 0);
      VOut[Off] = P.zero();
      ++RecIdx;
    } while (RecIdx < RecEnd && Recs[RecIdx].Pos < Limit);
  };

  for (std::int64_t I = 0; I < C.NumSteps; ++I) {
    if (RecIdx < RecEnd && Recs[RecIdx].Pos < (I + 1) * W)
      ApplyRecords((I + 1) * W);

    if (PfDist > 0 && I + PfDist < C.NumSteps) {
      // Touch the panel rows the pass consumes PfDist steps ahead (their
      // first line; a row is at most eight doubles) and stream the
      // matching value line. The index stream is sequential and short per
      // step, so the hardware prefetcher covers it.
      const std::int32_t *Pc = Cols + (I + PfDist) * W;
      for (int K = 0; K < W; ++K)
        __builtin_prefetch(X + static_cast<std::size_t>(Pc[K]) * LdX, 0, 1);
      __builtin_prefetch(Vals + (I + PfDist) * W, 0, 0);
    }

    for (int K = 0; K < W; ++K) {
      const double *XRow =
          X + static_cast<std::size_t>(Cols[I * W + K]) * LdX;
      VOut[K] = P.fmadd(VOut[K], Vals[I * W + K], XRow);
    }
  }

  if (RecIdx < RecEnd)
    ApplyRecords(std::numeric_limits<std::int64_t>::max());

  const std::int32_t *Tails = M.tails() + C.TailBase;
  for (int K = 0; K < W; ++K) {
    std::int32_t Row = Tails[K];
    if (Row < 0)
      continue;
    Out.finish(P, Row, TRes[K], Row == C.FirstRow || Row == C.LastRow);
  }
}

/// Zeroes the Bw-wide slice of the rows the chunk sweep never plain-stores
/// (chunk-boundary rows accumulate, empty rows are never written).
void zeroRowsSlice(const CvrMatrix &M, double *Y, std::size_t LdY, int Bw) {
  for (std::int32_t R : M.zeroRows())
    std::fill_n(Y + static_cast<std::size_t>(R) * LdY, Bw, 0.0);
}

/// Runs chunks [Begin, End) of one Bw-column pass across M.runThreads()
/// threads, dynamic schedule under over-decomposition (same policy as
/// SpMV). Every chunk writes back through \p Out.
template <class WriteBack>
void runSpmmChunkRange(const CvrMatrix &M, int Begin, int End,
                       const double *X, std::size_t LdX, int Bw, int PfDist,
                       WriteBack Out) {
  const std::vector<CvrChunk> &Chunks = M.chunks();
  int N = End - Begin;
  int Threads = std::min(M.runThreads(), N);

  auto Body = [&](int T) {
    const CvrChunk &C = Chunks[Begin + T];
    if (Bw == 8)
      runChunkSpmm(M, C, X, LdX, Panel8{}, PfDist, Out);
    else if (Bw == 4)
      runChunkSpmm(M, C, X, LdX, Panel4{}, PfDist, Out);
    else
      runChunkSpmm(M, C, X, LdX, PanelTail(Bw), PfDist, Out);
  };
  if (N > Threads)
    ompParallelForDynamic(N, Threads, Body);
  else
    ompParallelFor(N, Threads, Body);
}

/// One pass over the whole matrix covering Bw panel columns starting at
/// the (already offset) X / Y pointers.
void runSpmmPass(const CvrMatrix &M, const double *X, std::size_t LdX,
                 double *Y, std::size_t LdY, int Bw, int PfDist) {
  if (M.isBlocked()) {
    // Accumulate mode: clear the pass's column slice of all rows once,
    // then add each band's partial products; bands run sequentially.
    for (std::int32_t R = 0; R < M.numRows(); ++R)
      std::fill_n(Y + static_cast<std::size_t>(R) * LdY, Bw, 0.0);
    for (const CvrBand &B : M.bands())
      runSpmmChunkRange(M, B.ChunkBegin, B.ChunkEnd, X, LdX, Bw, PfDist,
                        PanelAccumulateWriteBack{Y, LdY});
    return;
  }
  zeroRowsSlice(M, Y, LdY, Bw);
  runSpmmChunkRange(M, 0, M.numChunks(), X, LdX, Bw, PfDist,
                    PanelStoreWriteBack{Y, LdY});
}

/// Validates one SpMM panel request; the release-build replacement for the
/// old leading-dimension asserts.
[[nodiscard]] Status validateSpmmArgs(const double *X, std::size_t LdX,
                                      const double *Y, std::size_t LdY,
                                      int NumVectors) {
  if (NumVectors < 1)
    return Status::invalidArgument("SpMM needs NumVectors >= 1, got " +
                                   std::to_string(NumVectors));
  if (!X || !Y)
    return Status::invalidArgument("SpMM panels must be non-null");
  if (LdX < static_cast<std::size_t>(NumVectors))
    return Status::invalidArgument(
        "row-major X panel stride LdX=" + std::to_string(LdX) +
        " must cover NumVectors=" + std::to_string(NumVectors));
  if (LdY < static_cast<std::size_t>(NumVectors))
    return Status::invalidArgument(
        "row-major Y panel stride LdY=" + std::to_string(LdY) +
        " must cover NumVectors=" + std::to_string(NumVectors));
  return Status::okStatus();
}

/// Per-call SpMM counters: one structural sweep, never inside the hot
/// loops.
void recordCvrSpmmTelemetry(int NumVectors, int Passes) {
  if (!obs::telemetryEnabled())
    return;
  static obs::Counter &Runs = obs::counter("spmv.cvr.spmm_runs");
  static obs::Counter &Cols = obs::counter("spmv.cvr.spmm_cols");
  static obs::Counter &PassCount = obs::counter("spmv.cvr.spmm_passes");
  Runs.inc();
  Cols.add(NumVectors);
  PassCount.add(Passes);
}

/// True when the register-blocked panel kernel reads \p M: uncompressed
/// F64/U32 streams.
bool panelKernelReads(const CvrMatrix &M) {
  return M.valueKind() == ValueKind::F64 &&
         M.colIndexKind() == ColIndexKind::U32;
}

/// Every other matrix composes SpMM from per-column SpMV runs through
/// contiguous scratch. Compressed streams (F32x64 values / U16Band
/// indices): rewriting the panel kernel per kind would triple its
/// instantiation count for a path whose payoff is amortizing *matrix*
/// traffic — which compression already shrinks (DESIGN.md section 17).
[[nodiscard]] Status cvrSpmmComposed(const CvrMatrix &M, const double *X, std::size_t LdX,
                       double *Y, std::size_t LdY, int NumVectors,
                       const CvrSpmmOptions &Opts) try {
  const int Pf = snapPrefetchDistance(Opts.PrefetchDistance);
  std::vector<double> Xc(static_cast<std::size_t>(M.numCols()));
  std::vector<double> Yc(static_cast<std::size_t>(M.numRows()));
  for (int J = 0; J < NumVectors; ++J) {
    for (std::int32_t I = 0; I < M.numCols(); ++I)
      Xc[static_cast<std::size_t>(I)] =
          X[static_cast<std::size_t>(I) * LdX + J];
    cvrSpmv(M, Xc.data(), Yc.data(), Pf);
    for (std::int32_t I = 0; I < M.numRows(); ++I)
      Y[static_cast<std::size_t>(I) * LdY + J] =
          Yc[static_cast<std::size_t>(I)];
  }
  recordCvrSpmmTelemetry(NumVectors, NumVectors);
  return Status::okStatus();
} catch (const std::bad_alloc &) {
  return Status::resourceExhausted("composed SpMM: scratch allocation failed");
}

} // namespace

Status cvrSpmm(const CvrMatrix &M, const double *X, std::size_t LdX,
               double *Y, std::size_t LdY, int NumVectors,
               const CvrSpmmOptions &Opts) {
  Status S = validateSpmmArgs(X, LdX, Y, LdY, NumVectors);
  if (!S.ok())
    return S;
  obs::TraceSpan Span("execute/spmm", "execute");
  Span.arg("cols", NumVectors);
  if (!panelKernelReads(M))
    return cvrSpmmComposed(M, X, LdX, Y, LdY, NumVectors, Opts);
  const int Pf = snapPrefetchDistance(Opts.PrefetchDistance);
  int Passes = 0;
  for (int J0 = 0; J0 < NumVectors;) {
    int Bw = std::min(8, NumVectors - J0);
    runSpmmPass(M, X + J0, LdX, Y + J0, LdY, Bw, Pf);
    J0 += Bw;
    ++Passes;
  }
  recordCvrSpmmTelemetry(NumVectors, Passes);
  return Status::okStatus();
}

Status CvrKernel::runBatch(const double *X, std::size_t LdX, double *Y,
                           std::size_t LdY, int NumVectors) const {
  CvrSpmmOptions SOpts;
  SOpts.PrefetchDistance = options().PrefetchDistance;
  return cvrSpmm(matrix(), X, LdX, Y, LdY, NumVectors, SOpts);
}

} // namespace cvr
