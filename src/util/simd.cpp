// Kernel implementations for util/simd.hpp. This TU is compiled with
// -ffp-contract=off (see util/CMakeLists.txt): the element-wise kernels
// promise bit-identical results across rungs, which dies if the compiler
// fuses the scalar mul+add into an FMA. The only FMA in the kernels is the
// explicit _mm256_fmadd_pd in the float-dot AVX2 rung, where the product of
// two widened floats is exactly representable in double, so the fused and
// unfused roundings coincide. Float dot, axpy and scale live in
// util/simd_kernels.hpp, shared with LINE's per-rung step loops.
#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>

#include "util/simd_kernels.hpp"  // float dot/axpy/scale bodies; defines DNSEMBED_SIMD_X86

namespace dnsembed::util::simd {

namespace detail {

// ------------------------------------------------------------- scalar

float dot_f32_scalar(const float* a, const float* b, std::size_t n) noexcept {
  return kernels::Scalar::dot(a, b, n);
}

double dot_f64_scalar(const double* a, const double* b, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float squared_l2_f32_scalar(const float* a, const float* b, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return static_cast<float>(acc);
}

double squared_l2_f64_scalar(const double* a, const double* b, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void squared_l2_rows_f64_scalar(const double* a, const double* rows, std::size_t m,
                                std::size_t n, double* out) noexcept {
  for (std::size_t j = 0; j < m; ++j) out[j] = squared_l2_f64_scalar(a, rows + j * n, n);
}

void axpy_f32_scalar(float alpha, const float* x, float* y, std::size_t n) noexcept {
  kernels::Scalar::axpy(alpha, x, y, n);
}

void scale_f32_scalar(float alpha, const float* x, float* out, std::size_t n) noexcept {
  kernels::Scalar::scale(alpha, x, out, n);
}

void fused_step_scalar(float coeff, const float* src, float* tgt, float* grad,
                       std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    grad[i] += coeff * tgt[i];
    tgt[i] += coeff * src[i];
  }
}

void min_u32_scalar(const std::uint32_t* h, std::uint32_t* sig, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (h[i] < sig[i]) sig[i] = h[i];
  }
}

#ifdef DNSEMBED_SIMD_X86

// --------------------------------------------------------------- sse2
// SSE2 is baseline on x86-64; the target attribute keeps i386 builds honest.

__attribute__((target("sse2"))) float dot_f32_sse2(const float* a, const float* b,
                                                   std::size_t n) noexcept {
  return kernels::Sse2::dot(a, b, n);
}

__attribute__((target("sse2"))) double dot_f64_sse2(const double* a, const double* b,
                                                    std::size_t n) noexcept {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2)));
  }
  const __m128d acc = _mm_add_pd(acc0, acc1);
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  double sum = lanes[0] + lanes[1];
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

__attribute__((target("sse2"))) float squared_l2_f32_sse2(const float* a, const float* b,
                                                          std::size_t n) noexcept {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 va = _mm_loadu_ps(a + i);
    const __m128 vb = _mm_loadu_ps(b + i);
    const __m128d d0 = _mm_sub_pd(_mm_cvtps_pd(va), _mm_cvtps_pd(vb));
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(d0, d0));
    const __m128 va_hi = _mm_movehl_ps(va, va);
    const __m128 vb_hi = _mm_movehl_ps(vb, vb);
    const __m128d d1 = _mm_sub_pd(_mm_cvtps_pd(va_hi), _mm_cvtps_pd(vb_hi));
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(d1, d1));
  }
  const __m128d acc = _mm_add_pd(acc0, acc1);
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  double sum = lanes[0] + lanes[1];
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return static_cast<float>(sum);
}

__attribute__((target("sse2"))) double squared_l2_f64_sse2(const double* a, const double* b,
                                                           std::size_t n) noexcept {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128d d0 = _mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i));
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(d0, d0));
    const __m128d d1 = _mm_sub_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2));
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(d1, d1));
  }
  const __m128d acc = _mm_add_pd(acc0, acc1);
  double lanes[2];
  _mm_storeu_pd(lanes, acc);
  double sum = lanes[0] + lanes[1];
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

// Two rows per pass, each with the pairwise kernel's two accumulators and
// lane split; the unpack pair forms each row's lanes[0] + lanes[1].
__attribute__((target("sse2"))) void squared_l2_rows_f64_sse2(const double* a,
                                                              const double* rows,
                                                              std::size_t m, std::size_t n,
                                                              double* out) noexcept {
  std::size_t j = 0;
  for (; j + 2 <= m; j += 2) {
    const double* r0 = rows + j * n;
    const double* r1 = r0 + n;
    __m128d acc00 = _mm_setzero_pd();
    __m128d acc01 = _mm_setzero_pd();
    __m128d acc10 = _mm_setzero_pd();
    __m128d acc11 = _mm_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m128d a0 = _mm_loadu_pd(a + i);
      const __m128d a1 = _mm_loadu_pd(a + i + 2);
      __m128d d = _mm_sub_pd(a0, _mm_loadu_pd(r0 + i));
      acc00 = _mm_add_pd(acc00, _mm_mul_pd(d, d));
      d = _mm_sub_pd(a1, _mm_loadu_pd(r0 + i + 2));
      acc01 = _mm_add_pd(acc01, _mm_mul_pd(d, d));
      d = _mm_sub_pd(a0, _mm_loadu_pd(r1 + i));
      acc10 = _mm_add_pd(acc10, _mm_mul_pd(d, d));
      d = _mm_sub_pd(a1, _mm_loadu_pd(r1 + i + 2));
      acc11 = _mm_add_pd(acc11, _mm_mul_pd(d, d));
    }
    const __m128d s0 = _mm_add_pd(acc00, acc01);
    const __m128d s1 = _mm_add_pd(acc10, acc11);
    double sums[2];
    _mm_storeu_pd(sums, _mm_add_pd(_mm_unpacklo_pd(s0, s1), _mm_unpackhi_pd(s0, s1)));
    for (; i < n; ++i) {
      const double d0 = a[i] - r0[i];
      sums[0] += d0 * d0;
      const double d1 = a[i] - r1[i];
      sums[1] += d1 * d1;
    }
    out[j] = sums[0];
    out[j + 1] = sums[1];
  }
  for (; j < m; ++j) out[j] = squared_l2_f64_sse2(a, rows + j * n, n);
}

__attribute__((target("sse2"))) void axpy_f32_sse2(float alpha, const float* x, float* y,
                                                   std::size_t n) noexcept {
  kernels::Sse2::axpy(alpha, x, y, n);
}

__attribute__((target("sse2"))) void scale_f32_sse2(float alpha, const float* x, float* out,
                                                    std::size_t n) noexcept {
  kernels::Sse2::scale(alpha, x, out, n);
}

__attribute__((target("sse2"))) void fused_step_sse2(float coeff, const float* src, float* tgt,
                                                     float* grad, std::size_t n) noexcept {
  const __m128 vc = _mm_set1_ps(coeff);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 vt = _mm_loadu_ps(tgt + i);
    const __m128 vg = _mm_add_ps(_mm_loadu_ps(grad + i), _mm_mul_ps(vc, vt));
    _mm_storeu_ps(grad + i, vg);
    _mm_storeu_ps(tgt + i, _mm_add_ps(vt, _mm_mul_ps(vc, _mm_loadu_ps(src + i))));
  }
  for (; i < n; ++i) {
    grad[i] += coeff * tgt[i];
    tgt[i] += coeff * src[i];
  }
}

__attribute__((target("sse2"))) void min_u32_sse2(const std::uint32_t* h, std::uint32_t* sig,
                                                  std::size_t n) noexcept {
  // SSE2 has no unsigned 32-bit min; bias both operands by 2^31 and use the
  // signed greater-than compare to build a select mask.
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + i));
    const __m128i vs = _mm_loadu_si128(reinterpret_cast<const __m128i*>(sig + i));
    const __m128i gt = _mm_cmpgt_epi32(_mm_xor_si128(vs, bias), _mm_xor_si128(vh, bias));
    // sig > h ? h : sig
    const __m128i out = _mm_or_si128(_mm_and_si128(gt, vh), _mm_andnot_si128(gt, vs));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sig + i), out);
  }
  for (; i < n; ++i) {
    if (h[i] < sig[i]) sig[i] = h[i];
  }
}

// --------------------------------------------------------------- avx2

__attribute__((target("avx2,fma"))) float dot_f32_avx2(const float* a, const float* b,
                                                       std::size_t n) noexcept {
  return kernels::Avx2::dot(a, b, n);
}

__attribute__((target("avx2"))) double dot_f64_avx2(const double* a, const double* b,
                                                    std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    acc1 = _mm256_add_pd(
        acc1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4)));
  }
  const __m256d acc = _mm256_add_pd(acc0, acc1);
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

__attribute__((target("avx2"))) float squared_l2_f32_avx2(const float* a, const float* b,
                                                          std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                                     _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
    const __m256d d1 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 4)),
                                     _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
  }
  const __m256d acc = _mm256_add_pd(acc0, acc1);
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return static_cast<float>(sum);
}

__attribute__((target("avx2"))) double squared_l2_f64_avx2(const double* a, const double* b,
                                                           std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
    const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
  }
  const __m256d acc = _mm256_add_pd(acc0, acc1);
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

// Four rows per pass, each with the pairwise kernel's two accumulators and
// lane split, held in named registers (an accumulator array spills to the
// stack). Two hadds and two lane permutes form (l0 + l1) + (l2 + l3) of all
// four rows at once.
__attribute__((target("avx2"))) void squared_l2_rows_f64_avx2(const double* a,
                                                              const double* rows,
                                                              std::size_t m, std::size_t n,
                                                              double* out) noexcept {
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    const double* r0 = rows + j * n;
    const double* r1 = r0 + n;
    const double* r2 = r1 + n;
    const double* r3 = r2 + n;
    __m256d acc00 = _mm256_setzero_pd();
    __m256d acc01 = _mm256_setzero_pd();
    __m256d acc10 = _mm256_setzero_pd();
    __m256d acc11 = _mm256_setzero_pd();
    __m256d acc20 = _mm256_setzero_pd();
    __m256d acc21 = _mm256_setzero_pd();
    __m256d acc30 = _mm256_setzero_pd();
    __m256d acc31 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256d a0 = _mm256_loadu_pd(a + i);
      const __m256d a1 = _mm256_loadu_pd(a + i + 4);
      __m256d d = _mm256_sub_pd(a0, _mm256_loadu_pd(r0 + i));
      acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(d, d));
      d = _mm256_sub_pd(a1, _mm256_loadu_pd(r0 + i + 4));
      acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(d, d));
      d = _mm256_sub_pd(a0, _mm256_loadu_pd(r1 + i));
      acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(d, d));
      d = _mm256_sub_pd(a1, _mm256_loadu_pd(r1 + i + 4));
      acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(d, d));
      d = _mm256_sub_pd(a0, _mm256_loadu_pd(r2 + i));
      acc20 = _mm256_add_pd(acc20, _mm256_mul_pd(d, d));
      d = _mm256_sub_pd(a1, _mm256_loadu_pd(r2 + i + 4));
      acc21 = _mm256_add_pd(acc21, _mm256_mul_pd(d, d));
      d = _mm256_sub_pd(a0, _mm256_loadu_pd(r3 + i));
      acc30 = _mm256_add_pd(acc30, _mm256_mul_pd(d, d));
      d = _mm256_sub_pd(a1, _mm256_loadu_pd(r3 + i + 4));
      acc31 = _mm256_add_pd(acc31, _mm256_mul_pd(d, d));
    }
    // hadd(s0, s1) = (s0[0]+s0[1], s1[0]+s1[1], s0[2]+s0[3], s1[2]+s1[3]).
    const __m256d h01 = _mm256_hadd_pd(_mm256_add_pd(acc00, acc01), _mm256_add_pd(acc10, acc11));
    const __m256d h23 = _mm256_hadd_pd(_mm256_add_pd(acc20, acc21), _mm256_add_pd(acc30, acc31));
    const __m256d low_pairs = _mm256_permute2f128_pd(h01, h23, 0x20);
    const __m256d high_pairs = _mm256_permute2f128_pd(h01, h23, 0x31);
    double sums[4];
    _mm256_storeu_pd(sums, _mm256_add_pd(low_pairs, high_pairs));
    for (; i < n; ++i) {
      const double d0 = a[i] - r0[i];
      sums[0] += d0 * d0;
      const double d1 = a[i] - r1[i];
      sums[1] += d1 * d1;
      const double d2 = a[i] - r2[i];
      sums[2] += d2 * d2;
      const double d3 = a[i] - r3[i];
      sums[3] += d3 * d3;
    }
    out[j] = sums[0];
    out[j + 1] = sums[1];
    out[j + 2] = sums[2];
    out[j + 3] = sums[3];
  }
  for (; j < m; ++j) out[j] = squared_l2_f64_avx2(a, rows + j * n, n);
}

__attribute__((target("avx2"))) void axpy_f32_avx2(float alpha, const float* x, float* y,
                                                   std::size_t n) noexcept {
  kernels::Avx2::axpy(alpha, x, y, n);
}

__attribute__((target("avx2"))) void scale_f32_avx2(float alpha, const float* x, float* out,
                                                    std::size_t n) noexcept {
  kernels::Avx2::scale(alpha, x, out, n);
}

__attribute__((target("avx2"))) void fused_step_avx2(float coeff, const float* src, float* tgt,
                                                     float* grad, std::size_t n) noexcept {
  const __m256 vc = _mm256_set1_ps(coeff);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vt = _mm256_loadu_ps(tgt + i);
    const __m256 vg = _mm256_add_ps(_mm256_loadu_ps(grad + i), _mm256_mul_ps(vc, vt));
    _mm256_storeu_ps(grad + i, vg);
    _mm256_storeu_ps(tgt + i, _mm256_add_ps(vt, _mm256_mul_ps(vc, _mm256_loadu_ps(src + i))));
  }
  for (; i < n; ++i) {
    grad[i] += coeff * tgt[i];
    tgt[i] += coeff * src[i];
  }
}

__attribute__((target("avx2"))) void min_u32_avx2(const std::uint32_t* h, std::uint32_t* sig,
                                                  std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vh = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + i));
    const __m256i vs = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sig + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sig + i), _mm256_min_epu32(vh, vs));
  }
  for (; i < n; ++i) {
    if (h[i] < sig[i]) sig[i] = h[i];
  }
}

#endif  // DNSEMBED_SIMD_X86

}  // namespace detail

namespace {

struct Kernels {
  float (*dot_f32)(const float*, const float*, std::size_t) noexcept;
  double (*dot_f64)(const double*, const double*, std::size_t) noexcept;
  float (*squared_l2_f32)(const float*, const float*, std::size_t) noexcept;
  double (*squared_l2_f64)(const double*, const double*, std::size_t) noexcept;
  void (*squared_l2_rows_f64)(const double*, const double*, std::size_t, std::size_t,
                              double*) noexcept;
  void (*axpy_f32)(float, const float*, float*, std::size_t) noexcept;
  void (*scale_f32)(float, const float*, float*, std::size_t) noexcept;
  void (*fused_step)(float, const float*, float*, float*, std::size_t) noexcept;
  void (*min_u32)(const std::uint32_t*, std::uint32_t*, std::size_t) noexcept;
};

constexpr Kernels kScalarKernels{
    detail::dot_f32_scalar,           detail::dot_f64_scalar,
    detail::squared_l2_f32_scalar,    detail::squared_l2_f64_scalar,
    detail::squared_l2_rows_f64_scalar, detail::axpy_f32_scalar,
    detail::scale_f32_scalar,         detail::fused_step_scalar,
    detail::min_u32_scalar,
};

#ifdef DNSEMBED_SIMD_X86
constexpr Kernels kSse2Kernels{
    detail::dot_f32_sse2,           detail::dot_f64_sse2,
    detail::squared_l2_f32_sse2,    detail::squared_l2_f64_sse2,
    detail::squared_l2_rows_f64_sse2, detail::axpy_f32_sse2,
    detail::scale_f32_sse2,         detail::fused_step_sse2,
    detail::min_u32_sse2,
};

constexpr Kernels kAvx2Kernels{
    detail::dot_f32_avx2,           detail::dot_f64_avx2,
    detail::squared_l2_f32_avx2,    detail::squared_l2_f64_avx2,
    detail::squared_l2_rows_f64_avx2, detail::axpy_f32_avx2,
    detail::scale_f32_avx2,         detail::fused_step_avx2,
    detail::min_u32_avx2,
};
#endif

const Kernels& kernels_for(Level level) noexcept {
#ifdef DNSEMBED_SIMD_X86
  if (level == Level::kAvx2) return kAvx2Kernels;
  if (level == Level::kSse2) return kSse2Kernels;
#else
  (void)level;
#endif
  return kScalarKernels;
}

bool force_scalar_env() noexcept {
  const char* env = std::getenv("DNSEMBED_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

Level detect_level() noexcept {
#ifdef DNSEMBED_FORCE_SCALAR
  return Level::kScalar;
#else
  if (force_scalar_env()) return Level::kScalar;
#ifdef DNSEMBED_SIMD_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return Level::kAvx2;
  if (__builtin_cpu_supports("sse2")) return Level::kSse2;
#endif
  return Level::kScalar;
#endif
}

// Dispatch state: resolved once, re-pointable by force_level(). The obs
// layer republishes g_level as the `simd.level` gauge at snapshot time
// (util cannot depend on obs — same inversion as util::fsio::stats()).
std::atomic<const Kernels*> g_kernels{nullptr};
std::atomic<int> g_level{-1};

const Kernels& resolve() noexcept {
  const Kernels* k = g_kernels.load(std::memory_order_acquire);
  if (k != nullptr) return *k;
  const Level level = detect_level();
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  const Kernels& resolved = kernels_for(level);
  g_kernels.store(&resolved, std::memory_order_release);
  return resolved;
}

}  // namespace

Level active_level() noexcept {
  resolve();
  return static_cast<Level>(g_level.load(std::memory_order_relaxed));
}

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kSse2: return "sse2";
    case Level::kAvx2: return "avx2";
  }
  return "unknown";
}

bool level_supported(Level level) noexcept {
#ifdef DNSEMBED_SIMD_X86
  if (level == Level::kAvx2) {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
  if (level == Level::kSse2) return __builtin_cpu_supports("sse2");
#else
  if (level != Level::kScalar) return false;
#endif
  return true;
}

Level force_level(Level level) noexcept {
  if (!level_supported(level)) {
    level = level == Level::kAvx2 && level_supported(Level::kSse2) ? Level::kSse2
                                                                   : Level::kScalar;
  }
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  g_kernels.store(&kernels_for(level), std::memory_order_release);
  return level;
}

float dot(const float* a, const float* b, std::size_t n) noexcept {
  return resolve().dot_f32(a, b, n);
}

double dot(const double* a, const double* b, std::size_t n) noexcept {
  return resolve().dot_f64(a, b, n);
}

float squared_l2(const float* a, const float* b, std::size_t n) noexcept {
  return resolve().squared_l2_f32(a, b, n);
}

double squared_l2(const double* a, const double* b, std::size_t n) noexcept {
  return resolve().squared_l2_f64(a, b, n);
}

void squared_l2_rows(const double* a, const double* rows, std::size_t m, std::size_t n,
                     double* out) noexcept {
  resolve().squared_l2_rows_f64(a, rows, m, n, out);
}

void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept {
  resolve().axpy_f32(alpha, x, y, n);
}

void scale(float alpha, const float* x, float* out, std::size_t n) noexcept {
  resolve().scale_f32(alpha, x, out, n);
}

void fused_sigmoid_step(float coeff, const float* src, float* tgt, float* grad,
                        std::size_t n) noexcept {
  resolve().fused_step(coeff, src, tgt, grad, n);
}

void min_u32(const std::uint32_t* h, std::uint32_t* sig, std::size_t n) noexcept {
  resolve().min_u32(h, sig, n);
}

}  // namespace dnsembed::util::simd
