// Internal: the rung bodies of float `dot`, `axpy` and `scale` as inline
// functions, one struct per rung, each function carrying its rung's target
// attribute. util/simd.cpp's dispatch table calls them, so each rung's
// kernel has one definition; embed/line.cpp instantiates its SGD loop once
// per rung on them, so the loop inlines the kernels instead of making a
// dispatched call per vector operation.
//
// Include only from translation units compiled with -ffp-contract=off (see
// util/ and embed/ CMakeLists.txt): the scalar tails promise the same
// rounding as the vector bodies, which dies if the compiler fuses a mul+add
// into an FMA, and an inline function compiled with two settings would
// break the one-definition rule.
#pragma once

#include <cstddef>

#if defined(__x86_64__) || defined(__i386__)
#define DNSEMBED_SIMD_X86 1
#include <immintrin.h>
#endif

namespace dnsembed::util::simd::kernels {

struct Scalar {
  static float dot(const float* a, const float* b, std::size_t n) noexcept {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    return static_cast<float>(acc);
  }

  static void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
  }

  static void scale(float alpha, const float* x, float* out, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) out[i] = alpha * x[i];
  }
};

#ifdef DNSEMBED_SIMD_X86

// SSE2 is baseline on x86-64; the target attribute keeps i386 builds honest.
struct Sse2 {
  __attribute__((target("sse2"))) static float dot(const float* a, const float* b,
                                                   std::size_t n) noexcept {
    __m128d acc0 = _mm_setzero_pd();
    __m128d acc1 = _mm_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m128 va = _mm_loadu_ps(a + i);
      const __m128 vb = _mm_loadu_ps(b + i);
      acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_cvtps_pd(va), _mm_cvtps_pd(vb)));
      const __m128 va_hi = _mm_movehl_ps(va, va);
      const __m128 vb_hi = _mm_movehl_ps(vb, vb);
      acc1 = _mm_add_pd(acc1, _mm_mul_pd(_mm_cvtps_pd(va_hi), _mm_cvtps_pd(vb_hi)));
    }
    const __m128d acc = _mm_add_pd(acc0, acc1);
    double lanes[2];
    _mm_storeu_pd(lanes, acc);
    double sum = lanes[0] + lanes[1];
    for (; i < n; ++i) sum += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return static_cast<float>(sum);
  }

  __attribute__((target("sse2"))) static void axpy(float alpha, const float* x, float* y,
                                                   std::size_t n) noexcept {
    const __m128 va = _mm_set1_ps(alpha);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m128 prod = _mm_mul_ps(va, _mm_loadu_ps(x + i));
      _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i), prod));
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
  }

  __attribute__((target("sse2"))) static void scale(float alpha, const float* x, float* out,
                                                    std::size_t n) noexcept {
    const __m128 va = _mm_set1_ps(alpha);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      _mm_storeu_ps(out + i, _mm_mul_ps(va, _mm_loadu_ps(x + i)));
    }
    for (; i < n; ++i) out[i] = alpha * x[i];
  }
};

struct Avx2 {
  __attribute__((target("avx2,fma"))) static float dot(const float* a, const float* b,
                                                       std::size_t n) noexcept {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      // Widened float products are exact in double, so the FMA rounds
      // exactly like mul_pd + add_pd would.
      acc0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                             _mm256_cvtps_pd(_mm_loadu_ps(b + i)), acc0);
      acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 4)),
                             _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4)), acc1);
    }
    // (l0 + l1) + (l2 + l3) of acc0 + acc1, in registers.
    const __m256d acc = _mm256_add_pd(acc0, acc1);
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
    __m128d sum = _mm_add_sd(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)),
                             _mm_add_sd(hi, _mm_unpackhi_pd(hi, hi)));
    if (i + 4 <= n) {
      // A 4-element tail: its products in one exact multiply, added to the
      // sum one at a time in index order, like the scalar tail below.
      const __m256d prod = _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                                         _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
      const __m128d p01 = _mm256_castpd256_pd128(prod);
      const __m128d p23 = _mm256_extractf128_pd(prod, 1);
      sum = _mm_add_sd(sum, p01);
      sum = _mm_add_sd(sum, _mm_unpackhi_pd(p01, p01));
      sum = _mm_add_sd(sum, p23);
      sum = _mm_add_sd(sum, _mm_unpackhi_pd(p23, p23));
      i += 4;
    }
    double total = _mm_cvtsd_f64(sum);
    for (; i < n; ++i) total += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return static_cast<float>(total);
  }

  __attribute__((target("avx2"))) static void axpy(float alpha, const float* x, float* y,
                                                   std::size_t n) noexcept {
    const __m256 va = _mm256_set1_ps(alpha);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
      _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
    }
    if (i + 4 <= n) {
      const __m128 prod = _mm_mul_ps(_mm256_castps256_ps128(va), _mm_loadu_ps(x + i));
      _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i), prod));
      i += 4;
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
  }

  __attribute__((target("avx2"))) static void scale(float alpha, const float* x, float* out,
                                                    std::size_t n) noexcept {
    const __m256 va = _mm256_set1_ps(alpha);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(out + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
    }
    if (i + 4 <= n) {
      _mm_storeu_ps(out + i, _mm_mul_ps(_mm256_castps256_ps128(va), _mm_loadu_ps(x + i)));
      i += 4;
    }
    for (; i < n; ++i) out[i] = alpha * x[i];
  }
};

#endif  // DNSEMBED_SIMD_X86

}  // namespace dnsembed::util::simd::kernels
