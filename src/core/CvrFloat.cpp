//===- core/CvrFloat.cpp - Single-precision CVR (omega = 16) --------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/CvrFloat.h"

#include "core/CvrConverter.h"
#include "simd/Simd.h"
#include "support/Annotations.h"
#include "support/ParallelFor.h"
#include "support/Status.h"

#include <cassert>
#include <limits>

namespace cvr {

namespace {

/// Write-back with the same shared-row rule as the f64 kernel.
CVR_HOT inline void writeBackF(float *Y, std::int32_t Row, float V,
                               bool Shared) {
  if (Shared) {
#pragma omp atomic
    Y[Row] += V;
  } else {
    Y[Row] = V;
  }
}

#if CVR_SIMD_AVX512

/// Applies every record with Pos < Limit against the 16-lane accumulator:
/// exclusive feed records in one masked scatter, the rest by masked reduce.
CVR_HOT inline __m512 applyRecordsF(__m512 VOut, const CvrRecord *Recs,
                            std::int64_t &RecIdx, std::int64_t RecEnd,
                            std::int64_t Limit, float *Y, float *TResult) {
  alignas(64) std::int32_t WbBuf[16];
  __mmask16 FeedMask = 0, ClearMask = 0;
  do {
    const CvrRecord &R = Recs[RecIdx];
    int Off = static_cast<int>(R.Pos & 15);
    auto Bit = static_cast<__mmask16>(1U << Off);
    if (!R.Steal && !R.Shared) {
      WbBuf[Off] = R.Wb;
      FeedMask |= Bit;
    } else {
      float V = _mm512_mask_reduce_add_ps(Bit, VOut);
      if (R.Steal) {
        TResult[R.Wb] += V;
      } else {
#pragma omp atomic
        Y[R.Wb] += V;
      }
    }
    ClearMask |= Bit;
    ++RecIdx;
  } while (RecIdx < RecEnd && Recs[RecIdx].Pos < Limit);
  if (FeedMask) {
    __m512i Idx = _mm512_load_si512(reinterpret_cast<const void *>(WbBuf));
    _mm512_mask_i32scatter_ps(Y, FeedMask, Idx, VOut, 4);
  }
  return _mm512_maskz_mov_ps(static_cast<__mmask16>(~ClearMask), VOut);
}

/// One chunk of the 16-lane vectorized kernel: one 64 B value load, one
/// 64 B index load, one 16-wide gather and one FMA per step.
CVR_HOT void runChunkAvxF(const CvrMatrixF &M, const CvrChunk &C,
                          const float *X,
                  float *Y) {
  constexpr int W = 16;
  // ElemBase is a multiple of W (the converter pads chunks to whole
  // 16-float steps), so both streams stay on 64-byte boundaries.
  const float *Vals = simd::assumeAligned(M.vals() + C.ElemBase);
  const std::int32_t *Cols = simd::assumeAligned(M.colIdx() + C.ElemBase);
  const CvrRecord *Recs = M.recs();
  std::int64_t RecIdx = C.RecBase;
  const std::int64_t RecEnd = C.RecEnd;

  alignas(64) float TResult[W] = {0};
  __m512 VOut = _mm512_setzero_ps();

  for (std::int64_t I = 0; I < C.NumSteps; ++I) {
    if (RecIdx < RecEnd && Recs[RecIdx].Pos < (I + 1) * W)
      VOut = applyRecordsF(VOut, Recs, RecIdx, RecEnd, (I + 1) * W, Y,
                           TResult);
    __m512i Idx = _mm512_load_si512(
        reinterpret_cast<const void *>(Cols + I * W));
    __m512 Xs = _mm512_i32gather_ps(Idx, X, 4);
    __m512 Vs = _mm512_load_ps(Vals + I * W);
    VOut = _mm512_fmadd_ps(Vs, Xs, VOut);
  }

  if (RecIdx < RecEnd)
    applyRecordsF(VOut, Recs, RecIdx, RecEnd,
                  std::numeric_limits<std::int64_t>::max(), Y, TResult);

  const std::int32_t *Tails = M.tails() + C.TailBase;
  for (int K = 0; K < W; ++K) {
    std::int32_t Row = Tails[K];
    if (Row < 0)
      continue;
    bool Shared = Row == C.FirstRow || Row == C.LastRow;
    writeBackF(Y, Row, TResult[K], Shared);
  }
}

#endif // CVR_SIMD_AVX512

/// Generic any-width f32 kernel.
void runChunkGenericF(const CvrMatrixF &M, const CvrChunk &C, const float *X,
                      float *Y) {
  const int W = M.lanes();
  const float *Vals = M.vals() + C.ElemBase;
  const std::int32_t *Cols = M.colIdx() + C.ElemBase;
  const CvrRecord *Recs = M.recs();
  std::int64_t RecIdx = C.RecBase;
  const std::int64_t RecEnd = C.RecEnd;

  std::vector<float> TResult(W, 0.0f);
  std::vector<float> VOut(W, 0.0f);

  auto Apply = [&](const CvrRecord &R) {
    int Off = static_cast<int>(R.Pos % W);
    if (R.Steal)
      TResult[R.Wb] += VOut[Off];
    else
      writeBackF(Y, R.Wb, VOut[Off], R.Shared);
    VOut[Off] = 0.0f;
  };

  for (std::int64_t I = 0; I < C.NumSteps; ++I) {
    while (RecIdx < RecEnd && Recs[RecIdx].Pos < (I + 1) * W)
      Apply(Recs[RecIdx++]);
    for (int K = 0; K < W; ++K)
      VOut[K] += Vals[I * W + K] * X[Cols[I * W + K]];
  }
  while (RecIdx < RecEnd)
    Apply(Recs[RecIdx++]);

  const std::int32_t *Tails = M.tails() + C.TailBase;
  for (int K = 0; K < W; ++K) {
    std::int32_t Row = Tails[K];
    if (Row < 0)
      continue;
    bool Shared = Row == C.FirstRow || Row == C.LastRow;
    writeBackF(Y, Row, TResult[K], Shared);
  }
}

} // namespace

StatusOr<CvrMatrixF> CvrMatrixF::tryFromCsr(const CsrMatrix &A,
                                            const CvrOptionsF &Opts) {
  if (Opts.ColBlockBytes != 0)
    return Status::invalidArgument(
        "the f32 CVR pipeline does not implement x-vector column blocking "
        "(ColBlockBytes=" +
        std::to_string(Opts.ColBlockBytes) +
        "); use ColBlockBytes=0, or the double pipeline's "
        "ValueKind::F32x64 stream for banded reduced-precision gathers");
  return fromCsr(A, Opts);
}

CvrMatrixF CvrMatrixF::fromCsr(const CsrMatrix &A, const CvrOptionsF &Opts) {
  assert(Opts.ColBlockBytes == 0 &&
         "f32 pipeline has no blocking; tryFromCsr reports this recoverably");
  detail::ConverterConfig Cfg;
  Cfg.Lanes = Opts.Lanes;
  Cfg.NumThreads = Opts.NumThreads;
  Cfg.EnableStealing = Opts.EnableStealing;
  // One step's indices already fill a 512-bit register at width 16; only
  // narrower lane counts would leave partial index loads, and those run
  // through the generic kernel anyway.
  Cfg.PadEvenSteps = false;

  detail::ConvertedStreams<float> S =
      detail::convertToCvrStreams<float>(A, Cfg);
  if (!S.Ok)
    fatalAllocFailure(static_cast<std::size_t>(A.numNonZeros()) *
                      sizeof(float));

  CvrMatrixF M;
  M.NumRows = A.numRows();
  M.NumCols = A.numCols();
  M.Nnz = A.numNonZeros();
  M.Lanes = Opts.Lanes;
  M.ForceGeneric = Opts.ForceGenericKernel;
  M.Vals = std::move(S.Vals);
  M.ColIdx = std::move(S.ColIdx);
  M.Recs = std::move(S.Recs);
  M.Tails = std::move(S.Tails);
  M.Chunks = std::move(S.Chunks);
  M.ZeroRows = std::move(S.ZeroRows);
  return M;
}

std::size_t CvrMatrixF::formatBytes() const {
  return Vals.size() * sizeof(float) + ColIdx.size() * sizeof(std::int32_t) +
         Recs.size() * sizeof(CvrRecord) +
         Tails.size() * sizeof(std::int32_t) +
         Chunks.size() * sizeof(CvrChunk) +
         ZeroRows.size() * sizeof(std::int32_t);
}

void cvrSpmvF(const CvrMatrixF &M, const float *X, float *Y) {
  for (std::int32_t R : M.zeroRows())
    Y[R] = 0.0f;

  const std::vector<CvrChunk> &Chunks = M.chunks();
  int NumChunks = static_cast<int>(Chunks.size());
#if CVR_SIMD_AVX512
  bool UseAvx = M.lanes() == 16 && !M.forcesGenericKernel();
#else
  bool UseAvx = false;
#endif

  ompParallelFor(NumChunks, NumChunks, [&](int T) {
#if CVR_SIMD_AVX512
    if (UseAvx)
      runChunkAvxF(M, Chunks[T], X, Y);
    else
      runChunkGenericF(M, Chunks[T], X, Y);
#else
    (void)UseAvx;
    runChunkGenericF(M, Chunks[T], X, Y);
#endif
  });
}

} // namespace cvr
