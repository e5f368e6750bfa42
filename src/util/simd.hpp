// Portable SIMD primitives for the per-rank hot loops (the lane-level
// headroom left after the shared pool took the core level): the inflate
// Hadamard power and column normalize, and the prune threshold scan.
//
// Backend selection is compile-time: MCLX_SIMD (the -DMCLX_SIMD CMake
// toggle) plus the target ISA pick AVX2 or NEON; otherwise every
// primitive runs its scalar implementation. Crucially the *algorithm* is
// identical in all three backends — each primitive is specified as a
// fixed-lane computation (4-lane strided partial sums folded as
// (s0+s1)+(s2+s3), elementwise ops, pure predicates) and every backend
// implements that spec exactly. Results are therefore bit-identical
// whether MCLX_SIMD is ON or OFF and at any thread count, which is what
// lets one committed perf baseline gate both CI legs (see
// docs/KERNELS.md "Determinism contract").
//
// The one place the spec itself changed numerics relative to the legacy
// sequential code is reassociation: sum() folds four strided partials
// instead of one left-to-right chain, and hadamard_pow() computes x·x
// for power 2 instead of std::pow(x, 2.0). Both are documented,
// baseline-regenerating changes (≤ n·ε relative drift for the sum, ≤ 1
// ULP per element for the square), not per-build drift.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>

#if defined(MCLX_SIMD) && defined(__AVX2__)
#define MCLX_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(MCLX_SIMD) && defined(__ARM_NEON)
#define MCLX_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace mclx::simd {

/// True when an explicit vector backend (not the scalar spec
/// implementation) was compiled in.
constexpr bool vectorized() {
#if defined(MCLX_SIMD_AVX2) || defined(MCLX_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

constexpr std::string_view backend() {
#if defined(MCLX_SIMD_AVX2)
  return "avx2";
#elif defined(MCLX_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

/// Hardware double lanes per register (4 AVX2, 2 NEON, 1 scalar). The
/// *algorithmic* lane count of the primitives below is always 4.
constexpr int hw_lanes() {
#if defined(MCLX_SIMD_AVX2)
  return 4;
#elif defined(MCLX_SIMD_NEON)
  return 2;
#else
  return 1;
#endif
}

/// 4-lane strided sum: lane l accumulates v[4k+l]; the tail element at
/// index n-rem+j lands in lane j; the fold is (s0+s1)+(s2+s3). Every
/// backend produces this exact value.
inline double sum(const double* v, std::size_t n) {
  std::size_t i = 0;
#if defined(MCLX_SIMD_AVX2)
  __m256d acc = _mm256_setzero_pd();
  for (; i + 4 <= n; i += 4) acc = _mm256_add_pd(acc, _mm256_loadu_pd(v + i));
  alignas(32) double s[4];
  _mm256_store_pd(s, acc);
#elif defined(MCLX_SIMD_NEON)
  float64x2_t a01 = vdupq_n_f64(0.0);
  float64x2_t a23 = vdupq_n_f64(0.0);
  for (; i + 4 <= n; i += 4) {
    a01 = vaddq_f64(a01, vld1q_f64(v + i));
    a23 = vaddq_f64(a23, vld1q_f64(v + i + 2));
  }
  double s[4] = {vgetq_lane_f64(a01, 0), vgetq_lane_f64(a01, 1),
                 vgetq_lane_f64(a23, 0), vgetq_lane_f64(a23, 1)};
#else
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  for (; i + 4 <= n; i += 4) {
    s[0] += v[i];
    s[1] += v[i + 1];
    s[2] += v[i + 2];
    s[3] += v[i + 3];
  }
#endif
  for (std::size_t l = 0; i < n; ++i, ++l) s[l] += v[i];
  return (s[0] + s[1]) + (s[2] + s[3]);
}

/// v[i] <- v[i]·v[i], elementwise (the inflate fast path for power 2).
inline void hadamard_square(double* v, std::size_t n) {
  std::size_t i = 0;
#if defined(MCLX_SIMD_AVX2)
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    _mm256_storeu_pd(v + i, _mm256_mul_pd(x, x));
  }
#elif defined(MCLX_SIMD_NEON)
  for (; i + 2 <= n; i += 2) {
    const float64x2_t x = vld1q_f64(v + i);
    vst1q_f64(v + i, vmulq_f64(x, x));
  }
#endif
  for (; i < n; ++i) v[i] *= v[i];
}

/// Hadamard power: the vectorized x·x path for the MCL-standard power 2
/// (in every backend, so results never depend on the build), scalar
/// std::pow otherwise. pow has no portable vector form; non-2 powers
/// keep the legacy per-element numerics exactly.
inline void hadamard_pow(double* v, std::size_t n, double power) {
  if (power == 2.0) {
    hadamard_square(v, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) v[i] = std::pow(v[i], power);
}

/// v[i] <- v[i] / d, elementwise. IEEE division is correctly rounded at
/// any lane width, so this is bitwise the scalar loop.
inline void div_by(double* v, std::size_t n, double d) {
  std::size_t i = 0;
#if defined(MCLX_SIMD_AVX2)
  const __m256d dd = _mm256_set1_pd(d);
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(v + i, _mm256_div_pd(_mm256_loadu_pd(v + i), dd));
#elif defined(MCLX_SIMD_NEON)
  const float64x2_t dd = vdupq_n_f64(d);
  for (; i + 2 <= n; i += 2)
    vst1q_f64(v + i, vdivq_f64(vld1q_f64(v + i), dd));
#endif
  for (; i < n; ++i) v[i] /= d;
}

/// Prune threshold scan: flags[i] <- (|v[i]| >= cutoff), returns the
/// number of survivors. A pure predicate — bit-identical everywhere.
inline std::uint64_t threshold_flags(const double* v, std::size_t n,
                                     double cutoff, char* flags) {
  std::uint64_t kept = 0;
  std::size_t i = 0;
#if defined(MCLX_SIMD_AVX2)
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d cut = _mm256_set1_pd(cutoff);
  for (; i + 4 <= n; i += 4) {
    const __m256d mag = _mm256_andnot_pd(sign, _mm256_loadu_pd(v + i));
    const int m = _mm256_movemask_pd(_mm256_cmp_pd(mag, cut, _CMP_GE_OQ));
    flags[i] = static_cast<char>(m & 1);
    flags[i + 1] = static_cast<char>((m >> 1) & 1);
    flags[i + 2] = static_cast<char>((m >> 2) & 1);
    flags[i + 3] = static_cast<char>((m >> 3) & 1);
    kept += static_cast<std::uint64_t>(__builtin_popcount(m));
  }
#elif defined(MCLX_SIMD_NEON)
  const float64x2_t cut = vdupq_n_f64(cutoff);
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t m = vcgeq_f64(vabsq_f64(vld1q_f64(v + i)), cut);
    const char k0 = static_cast<char>(vgetq_lane_u64(m, 0) & 1);
    const char k1 = static_cast<char>(vgetq_lane_u64(m, 1) & 1);
    flags[i] = k0;
    flags[i + 1] = k1;
    kept += static_cast<std::uint64_t>(k0) + static_cast<std::uint64_t>(k1);
  }
#endif
  for (; i < n; ++i) {
    const char k = std::abs(v[i]) >= cutoff ? 1 : 0;
    flags[i] = k;
    kept += static_cast<std::uint64_t>(k);
  }
  return kept;
}

}  // namespace mclx::simd
