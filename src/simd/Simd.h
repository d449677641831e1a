//===- simd/Simd.h - Portable 8-lane double vector --------------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thin SIMD abstraction with exactly the operations the paper's kernels
/// need: aligned load/store, 8-way index gather (plain and masked), fused
/// multiply-add, lane spill, masked lane compress and clear, and horizontal
/// reduction. When the translation unit is compiled with AVX-512F the
/// operations map 1:1 onto 512-bit intrinsics (VecD8 is a __m512d);
/// otherwise an emulated tier of scalar loops with identical semantics is
/// used, so every kernel in this project runs on any x86-64 (or indeed any)
/// host.
///
/// The lane count is fixed at 8 because the paper evaluates double-precision
/// SpMV, where omega = 512 / 64 = 8 on KNL. The CVR chunk loop in
/// core/CvrChunkLoop.h is written against these types only, so executing,
/// tracing and checked runs all go through one of the two tiers.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_SIMD_SIMD_H
#define CVR_SIMD_SIMD_H

#include <cstdint>
#include <cstring>

#if defined(__AVX512F__)
#include <immintrin.h>
#define CVR_SIMD_AVX512 1
#else
#define CVR_SIMD_AVX512 0
#endif

namespace cvr {
namespace simd {

/// Number of double-precision lanes in one vector register (the paper's
/// omega for f64).
inline constexpr int DoubleLanes = 8;

/// The lane mask that selects all DoubleLanes lanes.
inline constexpr unsigned AllLanes = 0xFFU;

/// Asserts 64-byte alignment provenance on a pointer. The two consumers:
/// the compiler (via __builtin_assume_aligned, which licenses aligned
/// vector loads), and the `lint.simd.aligned` check in tools/lint/, which
/// only accepts a raw aligned intrinsic when its pointer traces back to an
/// AlignedBuffer, an alignas declaration, or this wrapper. Use it where the
/// alignment is real but not locally visible — e.g. a stream base plus a
/// chunk offset that the converter padded to a full vector.
template <typename T> inline T *assumeAligned(T *P) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<T *>(__builtin_assume_aligned(P, 64));
#else
  return P;
#endif
}

#if CVR_SIMD_AVX512

/// Eight int32 column indices (one gather's worth).
struct VecI8 {
  __m256i Reg;

  /// Stores the 8 indices to unaligned memory.
  void storeu(std::int32_t *P) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(P), Reg);
  }
};

/// Sixteen int32 column indices: one 512-bit load that feeds two gather
/// steps (the paper's `i % 16` double-pumping trick, Algorithm 4 l.22-26).
struct VecI16 {
  __m512i Reg;

  /// Loads 16 int32 from 64-byte aligned memory.
  static VecI16 loadAligned(const std::int32_t *P) {
    return {_mm512_load_si512(reinterpret_cast<const void *>(P))};
  }

  /// Loads 16 band-local uint16 indices, widens them to int32
  /// (_mm512_cvtepu16_epi32), and rebases them onto the owning column
  /// band by adding \p Base to every lane — the compressed-index twin of
  /// loadAligned, feeding the same two gather steps.
  static VecI16 loadU16Widen(const std::uint16_t *P, std::int32_t Base) {
    __m256i Raw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(P));
    return {_mm512_add_epi32(_mm512_cvtepu16_epi32(Raw),
                             _mm512_set1_epi32(Base))};
  }

  /// Lower 8 indices.
  VecI8 lo() const { return {_mm512_castsi512_si256(Reg)}; }

  /// Upper 8 indices.
  VecI8 hi() const { return {_mm512_extracti64x4_epi64(Reg, 1)}; }
};

/// Eight doubles.
struct VecD8 {
  __m512d Reg;

  static VecD8 zero() { return {_mm512_setzero_pd()}; }

  static VecD8 broadcast(double V) { return {_mm512_set1_pd(V)}; }

  /// Loads 8 doubles from 64-byte aligned memory.
  static VecD8 loadAligned(const double *P) { return {_mm512_load_pd(P)}; }

  /// Loads 8 fp32 stream values and widens them to fp64
  /// (_mm256_loadu_ps + _mm512_cvtps_pd): the mixed-precision value-stream
  /// load — half the stream bytes of loadAligned, full-precision
  /// accumulation downstream.
  static VecD8 loadF32Widen(const float *P) {
    return {_mm512_cvtps_pd(_mm256_loadu_ps(P))};
  }

  /// Loads 8 doubles from unaligned memory. Dense panel rows are only as
  /// aligned as the caller's leading dimension allows, so the SpMM kernels
  /// use the unaligned forms throughout.
  static VecD8 loadu(const double *P) { return {_mm512_loadu_pd(P)}; }

  /// Masked unaligned load: lane k is loaded when bit k of \p Mask is set,
  /// zero otherwise. Lanes beyond the mask are never dereferenced, so the
  /// SpMM tail kernels can read a partial panel row safely.
  static VecD8 maskLoadu(const double *P, unsigned Mask) {
    return {_mm512_maskz_loadu_pd(static_cast<__mmask8>(Mask), P)};
  }

  /// Gathers Base[Idx[k]] for each of the 8 lanes.
  static VecD8 gather(const double *Base, VecI8 Idx) {
    return {_mm512_i32gather_pd(Idx.Reg, Base, 8)};
  }

  /// Masked gather: lane k gathers Base[Idx[k]] when bit k of \p Mask is
  /// set and is zero otherwise. Masked-off lanes are never dereferenced,
  /// so checked mode can drop an out-of-range index without faulting.
  static VecD8 maskGather(const double *Base, VecI8 Idx, unsigned Mask) {
    return {_mm512_mask_i32gather_pd(_mm512_setzero_pd(),
                                     static_cast<__mmask8>(Mask), Idx.Reg,
                                     Base, 8)};
  }

  /// Stores 8 doubles to 64-byte aligned memory.
  void storeAligned(double *P) const { _mm512_store_pd(P, Reg); }

  /// Stores 8 doubles to unaligned memory.
  void storeu(double *P) const { _mm512_storeu_pd(P, Reg); }

  /// Masked unaligned store: lane k is written when bit k of \p Mask is
  /// set; other destinations are untouched.
  void maskStoreu(double *P, unsigned Mask) const {
    _mm512_mask_storeu_pd(P, static_cast<__mmask8>(Mask), Reg);
  }

  /// this + A * B, fused.
  VecD8 fmadd(VecD8 A, VecD8 B) const {
    return {_mm512_fmadd_pd(A.Reg, B.Reg, Reg)};
  }

  VecD8 add(VecD8 O) const { return {_mm512_add_pd(Reg, O.Reg)}; }

  VecD8 mul(VecD8 O) const { return {_mm512_mul_pd(Reg, O.Reg)}; }

  /// Sum of all 8 lanes.
  double reduceAdd() const { return _mm512_reduce_add_pd(Reg); }

  /// Spills the register to an aligned 8-double buffer (the SpMM kernel's
  /// per-lane row write-back).
  void toArray(double *Buf8) const { _mm512_store_pd(Buf8, Reg); }

  /// Writes the lanes selected by \p Mask to P[0, popcount(Mask)) in lane
  /// order and returns their count. P must have room for 8 doubles: the
  /// store is one full-width store of the compressed register, so the
  /// slots past the count are clobbered.
  int compressStoreu(double *P, unsigned Mask) const {
    _mm512_storeu_pd(P, _mm512_maskz_compress_pd(
                            static_cast<__mmask8>(Mask), Reg));
    return __builtin_popcount(Mask & 0xFFU);
  }

  /// Zeroes the lanes selected by \p Mask.
  VecD8 clearLanes(unsigned Mask) const {
    return {_mm512_maskz_mov_pd(static_cast<__mmask8>(~Mask), Reg)};
  }
};

/// Four doubles: the half-width panel register the SpMM kernel blocks on
/// when the right-hand-side count is a multiple of 4 but not 8. AVX-512F
/// implies AVX2, so the 256-bit intrinsics are always available here; the
/// FMA form additionally needs __FMA__ (present under -march=native on
/// every FMA-capable host).
struct VecD4 {
  __m256d Reg;

  static VecD4 zero() { return {_mm256_setzero_pd()}; }

  static VecD4 broadcast(double V) { return {_mm256_set1_pd(V)}; }

  static VecD4 loadu(const double *P) { return {_mm256_loadu_pd(P)}; }

  void storeu(double *P) const { _mm256_storeu_pd(P, Reg); }

  /// this + A * B, fused when the target has FMA.
  VecD4 fmadd(VecD4 A, VecD4 B) const {
#if defined(__FMA__)
    return {_mm256_fmadd_pd(A.Reg, B.Reg, Reg)};
#else
    return {_mm256_add_pd(Reg, _mm256_mul_pd(A.Reg, B.Reg))};
#endif
  }

  VecD4 add(VecD4 O) const { return {_mm256_add_pd(Reg, O.Reg)}; }

  /// Spills the register to a 4-double buffer.
  void toArray(double *Buf4) const { _mm256_storeu_pd(Buf4, Reg); }
};

#else // scalar fallback with identical semantics

struct VecI8 {
  std::int32_t Lane[8];

  void storeu(std::int32_t *P) const { std::memcpy(P, Lane, sizeof(Lane)); }
};

struct VecI16 {
  std::int32_t Lane[16];

  static VecI16 loadAligned(const std::int32_t *P) {
    VecI16 V;
    std::memcpy(V.Lane, P, sizeof(V.Lane));
    return V;
  }

  static VecI16 loadU16Widen(const std::uint16_t *P, std::int32_t Base) {
    VecI16 V;
    for (int K = 0; K < 16; ++K)
      V.Lane[K] = Base + static_cast<std::int32_t>(P[K]);
    return V;
  }

  VecI8 lo() const {
    VecI8 V;
    std::memcpy(V.Lane, Lane, sizeof(V.Lane));
    return V;
  }

  VecI8 hi() const {
    VecI8 V;
    std::memcpy(V.Lane, Lane + 8, sizeof(V.Lane));
    return V;
  }
};

struct VecD8 {
  double Lane[8];

  static VecD8 zero() {
    VecD8 V{};
    return V;
  }

  static VecD8 broadcast(double X) {
    VecD8 V;
    for (double &L : V.Lane)
      L = X;
    return V;
  }

  // A lane loop, not memcpy: GCC splits a memcpy'd temporary into
  // misaligned stack reloads in the SpMM panel loop, stalling store
  // forwarding (2-3x slower panels, depending on the instantiation).
  static VecD8 loadAligned(const double *P) {
    VecD8 V;
    for (int K = 0; K < 8; ++K)
      V.Lane[K] = P[K];
    return V;
  }

  static VecD8 loadF32Widen(const float *P) {
    VecD8 V;
    for (int K = 0; K < 8; ++K)
      V.Lane[K] = static_cast<double>(P[K]);
    return V;
  }

  static VecD8 loadu(const double *P) { return loadAligned(P); }

  static VecD8 maskLoadu(const double *P, unsigned Mask) {
    VecD8 V{};
    for (int K = 0; K < 8; ++K)
      if (Mask & (1U << K))
        V.Lane[K] = P[K];
    return V;
  }

  static VecD8 gather(const double *Base, VecI8 Idx) {
    VecD8 V;
    for (int K = 0; K < 8; ++K)
      V.Lane[K] = Base[Idx.Lane[K]];
    return V;
  }

  static VecD8 maskGather(const double *Base, VecI8 Idx, unsigned Mask) {
    VecD8 V{};
    for (int K = 0; K < 8; ++K)
      if (Mask & (1U << K))
        V.Lane[K] = Base[Idx.Lane[K]];
    return V;
  }

  void storeAligned(double *P) const { std::memcpy(P, Lane, sizeof(Lane)); }

  void storeu(double *P) const { storeAligned(P); }

  void maskStoreu(double *P, unsigned Mask) const {
    for (int K = 0; K < 8; ++K)
      if (Mask & (1U << K))
        P[K] = Lane[K];
  }

  VecD8 fmadd(VecD8 A, VecD8 B) const {
    VecD8 V;
    for (int K = 0; K < 8; ++K)
      V.Lane[K] = Lane[K] + A.Lane[K] * B.Lane[K];
    return V;
  }

  VecD8 add(VecD8 O) const {
    VecD8 V;
    for (int K = 0; K < 8; ++K)
      V.Lane[K] = Lane[K] + O.Lane[K];
    return V;
  }

  VecD8 mul(VecD8 O) const {
    VecD8 V;
    for (int K = 0; K < 8; ++K)
      V.Lane[K] = Lane[K] * O.Lane[K];
    return V;
  }

  double reduceAdd() const {
    double S = 0.0;
    for (double L : Lane)
      S += L;
    return S;
  }

  void toArray(double *Buf8) const { std::memcpy(Buf8, Lane, sizeof(Lane)); }

  /// An empty mask (most CVR steps) costs one test; otherwise each lane is
  /// written at the running count, so all writes stay within P[0, 8).
  int compressStoreu(double *P, unsigned Mask) const {
    int N = 0;
    if (Mask & 0xFFU)
      for (int K = 0; K < 8; ++K) {
        P[N] = Lane[K];
        N += static_cast<int>((Mask >> K) & 1U);
      }
    return N;
  }

  VecD8 clearLanes(unsigned Mask) const {
    VecD8 V = *this;
    if (Mask & 0xFFU)
      for (int K = 0; K < 8; ++K)
        V.Lane[K] = ((Mask >> K) & 1U) ? 0.0 : Lane[K];
    return V;
  }
};

struct VecD4 {
  double Lane[4];

  static VecD4 zero() {
    VecD4 V{};
    return V;
  }

  static VecD4 broadcast(double X) {
    VecD4 V;
    for (double &L : V.Lane)
      L = X;
    return V;
  }

  static VecD4 loadu(const double *P) {
    VecD4 V;
    std::memcpy(V.Lane, P, sizeof(V.Lane));
    return V;
  }

  void storeu(double *P) const { std::memcpy(P, Lane, sizeof(Lane)); }

  VecD4 fmadd(VecD4 A, VecD4 B) const {
    VecD4 V;
    for (int K = 0; K < 4; ++K)
      V.Lane[K] = Lane[K] + A.Lane[K] * B.Lane[K];
    return V;
  }

  VecD4 add(VecD4 O) const {
    VecD4 V;
    for (int K = 0; K < 4; ++K)
      V.Lane[K] = Lane[K] + O.Lane[K];
    return V;
  }

  void toArray(double *Buf4) const { std::memcpy(Buf4, Lane, sizeof(Lane)); }
};

#endif // CVR_SIMD_AVX512

/// True when this build uses real AVX-512 intrinsics.
inline constexpr bool hasAvx512() { return CVR_SIMD_AVX512 != 0; }

} // namespace simd
} // namespace cvr

#endif // CVR_SIMD_SIMD_H
