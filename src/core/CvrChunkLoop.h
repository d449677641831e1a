//===- core/CvrChunkLoop.h - The CVR chunk loop -----------------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one CVR chunk loop (Algorithm 4 on the 8-lane vector of simd/Simd.h,
/// AVX-512 or emulated) and the one pass driver, private to core/.
/// CvrSpmv.cpp runs and traces SpMV through them, and CvrSpmm.cpp runs
/// SpMM.
///
/// runChunk is the skeleton: stream setup, kind widening, step pairs, the
/// record drain, the steal into t_result, the tail flush and every observer
/// hook. A lane policy decides how a step's elements meet x (GatherLanes
/// for SpMV, PanelLanes for SpMM), a write-back how a finished row leaves
/// (RowWriteBack or PanelWriteBack, storing or, for column-blocked bands,
/// adding), and an observer sees every memory reference first (NoObserver
/// for execution, which compiles to the plain kernel; the trace observer in
/// CvrSpmv.cpp). An observer only watches: like the paper's kernel, the
/// loop reads and writes through rec and tail unchecked, because every
/// CvrMatrix has passed CvrMatrix::checkStructure. runPass is the one pass
/// over a matrix: it clears y, orders the bands and runs the chunk ranges.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_CORE_CVRCHUNKLOOP_H
#define CVR_CORE_CVRCHUNKLOOP_H

#include "core/CvrFormat.h"
#include "parallel/Partition.h"
#include "simd/Simd.h"
#include "support/Annotations.h"
#include "support/MemSink.h"
#include "support/ParallelFor.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace cvr {
namespace detail {

/// Lanes per CVR step, and steps per block between two staging drains.
constexpr int StepLanes = CvrMatrix::lanes();
constexpr std::int64_t BlockSteps = 64;

/// The Store (Add = false) and Accumulate (Add = true) policies for SpMV.
/// Every row other than a chunk-boundary row has exactly one writer within
/// a band, so a plain store, or a plain add in accumulate mode, suffices.
template <bool Add> struct RowWriteBack {
  double *Y;

  CVR_HOT void finish(std::int32_t Row, double V, bool Shared) const {
    if (Shared) {
#pragma omp atomic
      Y[Row] += V;
    } else if (Add) {
      Y[Row] += V;
    } else {
      Y[Row] = V;
    }
  }

  void zero(std::int32_t Row) const { Y[Row] = 0.0; }

  void traceFinish(MemAccessSink &Sink, std::int32_t Row, bool Shared) const {
    if (Shared || Add)
      Sink.read(Y + Row, sizeof(double));
    Sink.write(Y + Row, sizeof(double));
  }
};

using StoreWriteBack = RowWriteBack<false>;
using AccumulateWriteBack = RowWriteBack<true>;

/// Full-width panel: one VecD8 of columns per lane.
struct Panel8 {
  using Vec = simd::VecD8;
  int width() const { return 8; }
  Vec load(const double *P) const { return Vec::loadu(P); }
  void store(Vec V, double *P) const { V.storeu(P); }
};

/// Half-width panel for K ≡ 4 (mod 8) passes.
struct Panel4 {
  using Vec = simd::VecD4;
  int width() const { return 4; }
  Vec load(const double *P) const { return Vec::loadu(P); }
  void store(Vec V, double *P) const { V.storeu(P); }
};

/// Masked-tail panel: any remainder width 1..7 in one masked pass, so a
/// degenerate K (say 7) never re-streams the matrix per column.
struct PanelTail {
  using Vec = simd::VecD8;
  int Bw;
  unsigned Mask;
  explicit PanelTail(int Bw) : Bw(Bw), Mask((1U << Bw) - 1U) {}
  int width() const { return Bw; }
  Vec load(const double *P) const { return Vec::maskLoadu(P, Mask); }
  void store(Vec V, double *P) const { V.maskStoreu(P, Mask); }
};

/// RowWriteBack widened to panel rows: an exclusive row stores (or adds) a
/// whole register of columns; a chunk-boundary row spills and adds
/// element-wise atomically, because the neighbouring chunk writes it too.
template <class Panel, bool Add> struct PanelWriteBack {
  double *Y;
  std::size_t LdY;
  Panel P;

  double *row(std::int32_t Row) const {
    return Y + static_cast<std::size_t>(Row) * LdY;
  }

  CVR_HOT void finish(std::int32_t Row, typename Panel::Vec V,
                      bool Shared) const {
    double *YRow = row(Row);
    if (Shared) {
      alignas(64) double Buf[8];
      V.toArray(Buf);
      for (int J = 0; J < P.width(); ++J) {
#pragma omp atomic
        YRow[J] += Buf[J];
      }
    } else if (Add) {
      P.store(P.load(YRow).add(V), YRow);
    } else {
      P.store(V, YRow);
    }
  }

  void zero(std::int32_t Row) const { std::fill_n(row(Row), P.width(), 0.0); }
};

/// The execution observer: does nothing. Its hooks are the observer
/// interface; other observers derive from it and hide the hooks they need.
struct NoObserver {
  /// runPass is about to clear \p Row of y through \p Out.
  template <class WriteBack>
  void zero(const CvrMatrix &, const WriteBack &, std::int32_t) {}
  /// Entry to chunk \p C.
  void chunk(const CvrMatrix &, const CvrChunk &) {}
  /// Step \p I (the chunk's NumSteps for the trailing records) is about to
  /// stage the lanes set in its finish-mask byte \p Mask (staging lane
  /// policies only).
  void retire(std::int64_t, unsigned) {}
  /// Step \p I is about to load its value vector, and at even I the index
  /// vector of the step pair.
  void loads(std::int64_t) {}
  /// The step whose first stream element is \p Elem is about to read x at
  /// the columns \p Idx.
  void gather(simd::VecI8, std::int64_t) {}
  /// Record \p R is about to take staged value \p Slot of the drain (-1: a
  /// per-record retire, which takes the record's own lane).
  void record(const CvrRecord &, int) {}
  /// \p Out is about to finish \p Row.
  template <class WriteBack>
  void finish(const WriteBack &, std::int32_t, bool) {}
  /// Tail slot \p K, at \p Slot, is about to be read.
  void tail(const std::int32_t *, int) {}
};

/// One chunk's value and column-index streams in their stored kinds. A
/// NarrowIdx stream holds band-local uint16 deltas (widened and rebased
/// onto the chunk's band base), a NarrowVal stream fp32 values (widened to
/// fp64 before the FMA).
template <bool NarrowIdx, bool NarrowVal> struct ChunkStreams {
  static constexpr bool NarrowIndices = NarrowIdx;
  static constexpr bool NarrowValues = NarrowVal;

  ChunkStreams(const CvrMatrix &M, const CvrChunk &C, std::int32_t ColBase)
      : ColBase(ColBase),
        Vals(NarrowVal ? nullptr : M.vals() + C.ElemBase),
        Vals32(NarrowVal ? M.vals32() + C.ElemBase : nullptr),
        Cols(NarrowIdx ? nullptr : M.colIdx() + C.ElemBase),
        ColsN(NarrowIdx ? M.colIdx16() + C.ElemBase : nullptr) {}

  /// Column-index double pumping: the sixteen columns of the step pair at
  /// even step \p I in one load.
  simd::VecI16 cols16(std::int64_t I) const {
    return NarrowIdx ? simd::VecI16::loadU16Widen(ColsN + I * StepLanes,
                                                  ColBase)
                     : simd::VecI16::loadAligned(Cols + I * StepLanes);
  }
  /// The eight values of step \p I.
  simd::VecD8 vals8(std::int64_t I) const {
    return NarrowVal ? simd::VecD8::loadF32Widen(Vals32 + I * StepLanes)
                     : simd::VecD8::loadAligned(Vals + I * StepLanes);
  }
  /// The column and value of stream element \p E.
  std::size_t col(std::int64_t E) const {
    return NarrowIdx ? static_cast<std::size_t>(ColBase) + ColsN[E]
                     : static_cast<std::size_t>(Cols[E]);
  }
  double val(std::int64_t E) const {
    return NarrowVal ? static_cast<double>(Vals32[E]) : Vals[E];
  }

  std::int32_t ColBase;
  const double *Vals;
  const float *Vals32;
  const std::int32_t *Cols;
  const std::uint16_t *ColsN;
};

/// The SpMV lane policy: lane k holds one row's partial dot product, and a
/// step gathers x at its eight columns into one FMA. Each step first moves
/// the lanes its finish mask names into the staging buffer, which the
/// skeleton drains, in record order, once per block.
///
/// PfDist > 0 issues software prefetches of the x gather targets (and the
/// value stream) PfDist steps ahead, using the already-streamed column
/// indices; the host has no AVX-512PF, so the prefetches are scalar.
template <int PfDist> struct GatherLanes {
  static_assert(PfDist % 2 == 0, "prefetch pairs with the double-pumped "
                                 "column loads, so the distance stays even");
  static constexpr int W = StepLanes;
  static constexpr bool Stages = true;
  using Input = const double *;
  using Value = double;
  /// The staging buffer, on the skeleton's stack so that the accumulator
  /// and the staged count stay in registers.
  using Buffer = double[BlockSteps * W];

  GatherLanes(const double *X, Buffer &Stage) : X(X), Stage(Stage) {}

  /// Always inlined: out of line, GCC finds the call free of side effects
  /// and deletes it.
  template <class Streams>
  [[gnu::always_inline]] void prefetch(const Streams &S, std::int64_t I,
                                       std::int64_t NumSteps) const {
    if constexpr (PfDist > 0) {
      if (I + PfDist + 1 < NumSteps) {
        // Pull the index line two prefetch windows out so the window at
        // PfDist reads cached indices, then touch the 16 x targets for
        // the step pair at PfDist and stream the matching value lines.
        if constexpr (Streams::NarrowIndices) {
          __builtin_prefetch(S.ColsN + (I + 2 * PfDist) * W, 0, 0);
          const std::uint16_t *Pc = S.ColsN + (I + PfDist) * W;
          for (int K = 0; K < 2 * W; ++K)
            __builtin_prefetch(X + S.ColBase + Pc[K], 0, 1);
        } else {
          __builtin_prefetch(S.Cols + (I + 2 * PfDist) * W, 0, 0);
          const std::int32_t *Pc = S.Cols + (I + PfDist) * W;
          for (int K = 0; K < 2 * W; ++K)
            __builtin_prefetch(X + Pc[K], 0, 1);
        }
        if constexpr (Streams::NarrowValues) {
          __builtin_prefetch(S.Vals32 + (I + PfDist) * W, 0, 0);
          __builtin_prefetch(S.Vals32 + (I + PfDist + 1) * W, 0, 0);
        } else {
          __builtin_prefetch(S.Vals + (I + PfDist) * W, 0, 0);
          __builtin_prefetch(S.Vals + (I + PfDist + 1) * W, 0, 0);
        }
      }
    }
  }

  /// Step \p I: x at the columns \p Idx times the step's values.
  template <class Streams>
  void step(const Streams &S, std::int64_t I, simd::VecI8 Idx) {
    VOut = VOut.fmadd(S.vals8(I), simd::VecD8::gather(X, Idx));
  }

  /// Stages and clears the lanes in \p F.
  void stage(unsigned F) {
    Staged += VOut.compressStoreu(Stage + Staged, F);
    VOut = VOut.clearLanes(F);
  }
  double take(const CvrRecord &, int Slot) const { return Stage[Slot]; }
  static void steal(double &Slot, double V) { Slot += V; }

  const double *X;
  Buffer &Stage;
  int Staged = 0;
  simd::VecD8 VOut = simd::VecD8::zero();
};

/// The SpMM lane policy: lane k accumulates a whole panel row in a vector
/// register, fed by one contiguous load of X[col * LdX .. + width) per
/// element, so there are no gathers. A record takes its lane the moment
/// the walk reaches it (a finish-mask-staged panel write-back measured
/// slower).
template <class Panel> struct PanelLanes {
  static constexpr int W = StepLanes;
  static constexpr bool Stages = false;
  struct Input {
    const double *X;
    std::size_t LdX;
    Panel P;
  };
  using Value = typename Panel::Vec;
  /// Lane k's running panel row.
  using Buffer = Value[W];

  PanelLanes(const Input &In, Buffer &VOut) : In(In), VOut(VOut) {
    for (Value &V : VOut)
      V = Value::zero();
  }

  template <class Streams>
  void prefetch(const Streams &, std::int64_t, std::int64_t) const {}

  /// Step \p I: each lane's value times its panel row of X. Each column
  /// feeds its own load, so they are read one at a time (Idx holds them
  /// widened for the observer).
  template <class Streams>
  void step(const Streams &S, std::int64_t I, simd::VecI8) {
    for (int K = 0; K < W; ++K) {
      const std::int64_t E = I * W + K;
      VOut[K] = VOut[K].fmadd(Value::broadcast(S.val(E)),
                              In.P.load(In.X + S.col(E) * In.LdX));
    }
  }

  /// Hands out record \p R's lane and clears it.
  Value take(const CvrRecord &R, int) {
    const int Off = static_cast<int>(R.Pos & (W - 1));
    const Value V = VOut[Off];
    VOut[Off] = Value::zero();
    return V;
  }
  static void steal(Value &Slot, Value V) { Slot = Slot.add(V); }

  Input In;
  Buffer &VOut;
};

/// One chunk of the CVR kernel (Algorithm 4). The loop structure (one
/// index load per step pair, one value load and one x read per step) is the
/// same for every stream kind; only the load width changes.
///
/// A retired value leaves through the chunk's next record: a steal record
/// adds it to t_result, a feed record finishes its row through \p Out.
/// Under a staging lane policy each step stages the lanes its finish-mask
/// byte names, the staged values drain after every block of BlockSteps
/// steps, and the mask byte past the last step stages the trailing
/// records. Under a per-record policy each step first drains the records
/// that finish before it. The tail flush then returns t_result to its rows.
///
/// Internal linkage keeps GCC inlining every policy into the loop, as for
/// a kernel local to its translation unit.
template <bool NarrowIdx, bool NarrowVal, class Lanes, class WriteBack,
          class Observer = NoObserver>
static CVR_HOT void runChunk(const CvrMatrix &M, const CvrChunk &C,
                             typename Lanes::Input In, WriteBack Out,
                             Observer Obs = {}) {
  constexpr int W = StepLanes;
  static_assert(W == simd::DoubleLanes, "one CVR step fills one VecD8");
  Obs.chunk(M, C);
  const auto CI = static_cast<std::size_t>(&C - M.chunks().data());
  const std::int32_t ColBase = M.chunkColBase(CI);
  const std::uint8_t *Masks = M.finishMasks(CI);
  const ChunkStreams<NarrowIdx, NarrowVal> S(M, C, ColBase);
  const CvrRecord *Rec = M.recs() + C.RecBase;
  const CvrRecord *const RecEnd = M.recs() + C.RecEnd;
  alignas(64) typename Lanes::Value TResult[W] = {};
  alignas(64) typename Lanes::Buffer Buf;
  Lanes L(In, Buf);

  // Hands N retired values, in record order, to the records from Rec on.
  // Out is captured by copy, and Drain by copy below: a closure another
  // closure refers to stays in memory, and with it what it refers to.
  auto Drain = [&, Out](int N) {
    for (int K = 0; K < N; ++K, ++Rec) {
      Obs.record(*Rec, Lanes::Stages ? K : -1);
      if (Rec->Steal) {
        Lanes::steal(TResult[Rec->Wb], L.take(*Rec, K));
      } else {
        Obs.finish(Out, Rec->Wb, Rec->Shared);
        Out.finish(Rec->Wb, L.take(*Rec, K), Rec->Shared);
      }
    }
  };
  // Retires the lanes that finish before step I (the lane's sum is
  // complete just before the step's elements are consumed).
  auto Retire = [&, Drain](std::int64_t I) mutable {
    if constexpr (Lanes::Stages) {
      const unsigned F = Masks[I];
      Obs.retire(I, F);
      L.stage(F);
    } else {
      const std::int64_t Lim = I < C.NumSteps
                                   ? (I + 1) * W
                                   : std::numeric_limits<std::int64_t>::max();
      int N = 0;
      while (Rec + N < RecEnd && Rec[N].Pos < Lim)
        ++N;
      if (N > 0)
        Drain(N);
    }
  };
  auto Step = [&](std::int64_t I, simd::VecI8 Idx) {
    Retire(I);
    Obs.loads(I);
    Obs.gather(Idx, C.ElemBase + I * W);
    L.step(S, I, Idx);
  };

  // NumSteps is even (checkStructure), so steps run in pairs.
  for (std::int64_t I0 = 0; I0 < C.NumSteps; I0 += BlockSteps) {
    const std::int64_t I1 = std::min(C.NumSteps, I0 + BlockSteps);
    for (std::int64_t I = I0; I < I1; I += 2) {
      L.prefetch(S, I, C.NumSteps);
      const simd::VecI16 Cols16 = S.cols16(I);
      Step(I, Cols16.lo());
      Step(I + 1, Cols16.hi());
    }
    if constexpr (Lanes::Stages) {
      Drain(L.Staged);
      L.Staged = 0;
    }
  }

  // Trailing records (pieces that finish exactly at the stream end).
  Retire(C.NumSteps);
  if constexpr (Lanes::Stages) {
    Drain(L.Staged);
    L.Staged = 0;
  }

  // Tail flush: t_result slots back to their rows (Algorithm 4 l.31-33).
  const std::int32_t *Tails = M.tails() + C.TailBase;
  for (int K = 0; K < W; ++K) {
    Obs.tail(Tails + K, K);
    const std::int32_t Row = Tails[K];
    if (Row < 0)
      continue;
    const bool Shared = Row == C.FirstRow || Row == C.LastRow;
    Obs.finish(Out, Row, Shared);
    Out.finish(Row, TResult[K], Shared);
  }
}

/// Runs chunk \p C through the instantiation that reads \p M's stream
/// kinds.
template <class Lanes, class WriteBack, class Observer>
void runChunkKinds(const CvrMatrix &M, const CvrChunk &C,
                   const typename Lanes::Input &In, WriteBack Out,
                   Observer Obs) {
  const bool NV = M.valueKind() == ValueKind::F32x64;
  if (M.colIndexKind() == ColIndexKind::U16Band)
    NV ? runChunk<true, true, Lanes>(M, C, In, Out, Obs)
       : runChunk<true, false, Lanes>(M, C, In, Out, Obs);
  else
    NV ? runChunk<false, true, Lanes>(M, C, In, Out, Obs)
       : runChunk<false, false, Lanes>(M, C, In, Out, Obs);
}

/// Runs chunks [Begin, End) across min(omp_get_max_threads(), chunks)
/// threads, so the caller, not the blob, sets a run's thread count;
/// dynamically scheduled when there are more chunks than threads,
/// so a thread that drew a light chunk picks up the next one. An observer
/// sees one chunk at a time, in index order.
template <class Lanes, class WriteBack, class Observer>
void runChunkRange(const CvrMatrix &M, int Begin, int End,
                   const typename Lanes::Input &In, WriteBack Out,
                   Observer Obs) {
  const CvrChunk *Chunks = M.chunks().data() + Begin;
  const int N = End - Begin;
  if constexpr (std::is_same_v<Observer, NoObserver>) {
    const int Threads = std::min(defaultThreadCount(), N);
    auto Body = [&](int T) {
      runChunkKinds<Lanes>(M, Chunks[T], In, Out, Obs);
    };
    if (N > Threads)
      ompParallelForDynamic(N, Threads, Body);
    else
      ompParallelFor(N, Threads, Body);
  } else {
    for (int T = 0; T < N; ++T)
      runChunkKinds<Lanes>(M, Chunks[T], In, Out, Obs);
  }
}

/// One pass of the chunk loop over all of \p M, for every caller, writing
/// back through \p Store or, for a blocked matrix, \p Accumulate.
///
/// An unblocked matrix pre-zeroes the rows that accumulate (chunk-boundary
/// rows) or are never written (empty rows); every other row receives
/// exactly one plain store. A blocked matrix clears all of y, then each
/// band adds its partial products. Bands run one after another so x's
/// working set stays one band wide; chunks within a band run in parallel.
template <class Lanes, class StoreOut, class AccumulateOut,
          class Observer = NoObserver>
void runPass(const CvrMatrix &M, const typename Lanes::Input &In,
             StoreOut Store, AccumulateOut Accumulate, Observer Obs = {}) {
  if (M.isBlocked()) {
    for (std::int32_t R = 0; R < M.numRows(); ++R) {
      Obs.zero(M, Accumulate, R);
      Accumulate.zero(R);
    }
    for (const CvrBand &B : M.bands())
      runChunkRange<Lanes>(M, B.ChunkBegin, B.ChunkEnd, In, Accumulate, Obs);
    return;
  }
  for (std::int32_t R : M.zeroRows()) {
    Obs.zero(M, Store, R);
    Store.zero(R);
  }
  runChunkRange<Lanes>(M, 0, M.numChunks(), In, Store, Obs);
}

/// Y = M * X for \p NumVectors row-major panel columns: one pass per
/// register block of min(8, K - J0) columns (Panel8, Panel4 for a width-4
/// remainder, PanelTail otherwise). Returns the number of passes.
template <class Observer = NoObserver>
int runPanels(const CvrMatrix &M, const double *X, std::size_t LdX,
              double *Y, std::size_t LdY, int NumVectors, Observer Obs = {}) {
  auto Pass = [&](auto P, int J0) {
    using Panel = decltype(P);
    runPass<PanelLanes<Panel>>(M, {X + J0, LdX, P},
                               PanelWriteBack<Panel, false>{Y + J0, LdY, P},
                               PanelWriteBack<Panel, true>{Y + J0, LdY, P},
                               Obs);
  };
  int Passes = 0;
  for (int J0 = 0; J0 < NumVectors; J0 += 8, ++Passes) {
    const int Bw = std::min(8, NumVectors - J0);
    if (Bw == 8)
      Pass(Panel8{}, J0);
    else if (Bw == 4)
      Pass(Panel4{}, J0);
    else
      Pass(PanelTail(Bw), J0);
  }
  return Passes;
}

} // namespace detail
} // namespace cvr

#endif // CVR_CORE_CVRCHUNKLOOP_H
