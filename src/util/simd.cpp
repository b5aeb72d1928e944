// Kernel implementations for util/simd.hpp. This TU is compiled with
// -ffp-contract=off (see util/CMakeLists.txt): the element-wise kernels
// promise bit-identical results across rungs, which dies if the compiler
// fuses the scalar mul+add into an FMA. The only FMA in the kernels is the
// explicit _mm256_fmadd_pd in the float-dot AVX2 rung, where the product of
// two widened floats is exactly representable in double, so the fused and
// unfused roundings coincide. Float dot, axpy and scale live in
// util/simd_kernels.hpp, shared with LINE's per-rung step loops.
#include "util/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>

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

void add_f64_scalar(const double* src, double* dst, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void loosen_bounds_scalar(double* lower, const double* drift, double factor,
                          std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) lower[i] = std::max(0.0, (lower[i] - drift[i]) * factor);
}

std::uint64_t candidate_mask_scalar(double u, const double* lower, const double* half,
                                    std::size_t n) noexcept {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mask |= static_cast<std::uint64_t>(!(u < lower[i]) & !(u < half[i])) << i;
  }
  return mask;
}

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// One element of the working-set scan: the plain SMO loop's body, and
/// the AVX2 rung's tail.
inline void scan_pair(ViolatingPair& pair, std::size_t t, const double* y,
                      const double* gradient, const double* alpha, const double* cap) noexcept {
  const double value = -y[t] * gradient[t];
  if (in_smo_up(y[t], alpha[t], cap[t]) && value > pair.max_up) {
    pair.max_up = value;
    pair.up = t;
  }
  if (in_smo_low(y[t], alpha[t], cap[t]) && value < pair.min_low) {
    pair.min_low = value;
    pair.low = t;
  }
}

}  // namespace

ViolatingPair max_violating_pair_scalar(const double* y, const double* gradient,
                                        const double* alpha, const double* cap,
                                        std::size_t n) noexcept {
  ViolatingPair pair{n, n, -kInfinity, kInfinity};
  for (std::size_t t = 0; t < n; ++t) scan_pair(pair, t, y, gradient, alpha, cap);
  return pair;
}

void smo_gradient_step_scalar(double step, const double* y, const double* ki, const double* kj,
                              const std::size_t* rows, double* gradient, std::size_t n) noexcept {
  for (std::size_t t = 0; t < n; ++t) gradient[t] += step * y[t] * (ki[rows[t]] - kj[rows[t]]);
}

#ifdef DNSEMBED_SIMD_X86

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

__attribute__((target("avx2"))) void add_f64_avx2(const double* src, double* dst,
                                                  std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i), _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

__attribute__((target("avx2"))) void loosen_bounds_avx2(double* lower, const double* drift,
                                                        double factor, std::size_t n) noexcept {
  const __m256d vf = _mm256_set1_pd(factor);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v =
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(lower + i), _mm256_loadu_pd(drift + i)), vf);
    _mm256_storeu_pd(lower + i, _mm256_max_pd(v, zero));
  }
  for (; i < n; ++i) lower[i] = std::max(0.0, (lower[i] - drift[i]) * factor);
}

__attribute__((target("avx2"))) std::uint64_t candidate_mask_avx2(double u, const double* lower,
                                                                  const double* half,
                                                                  std::size_t n) noexcept {
  const __m256d vu = _mm256_set1_pd(u);
  std::uint64_t mask = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d keep = _mm256_and_pd(_mm256_cmp_pd(vu, _mm256_loadu_pd(lower + i), _CMP_NLT_UQ),
                                       _mm256_cmp_pd(vu, _mm256_loadu_pd(half + i), _CMP_NLT_UQ));
    mask |= static_cast<std::uint64_t>(_mm256_movemask_pd(keep)) << i;
  }
  for (; i < n; ++i) {
    mask |= static_cast<std::uint64_t>(!(u < lower[i]) & !(u < half[i])) << i;
  }
  return mask;
}

namespace {

/// Per-lane state of the AVX2 working-set scan over one stripe of lanes.
struct ScanLanes {
  __m256d up_value;
  __m256d up_index;
  __m256d low_value;
  __m256d low_index;
};

/// Four elements of the scan; the lane masks are in_smo_up and in_smo_low.
__attribute__((target("avx2"), always_inline)) inline void scan_block_avx2(
    ScanLanes& lanes, __m256d index, const double* y, const double* gradient,
    const double* alpha, const double* cap) noexcept {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vy = _mm256_loadu_pd(y);
  const __m256d va = _mm256_loadu_pd(alpha);
  const __m256d value =
      _mm256_mul_pd(_mm256_xor_pd(vy, _mm256_set1_pd(-0.0)), _mm256_loadu_pd(gradient));
  const __m256d pos = _mm256_cmp_pd(vy, zero, _CMP_GT_OQ);
  const __m256d neg = _mm256_cmp_pd(vy, zero, _CMP_LT_OQ);
  const __m256d below_cap = _mm256_cmp_pd(va, _mm256_loadu_pd(cap), _CMP_LT_OQ);
  const __m256d above_zero = _mm256_cmp_pd(va, zero, _CMP_GT_OQ);
  const __m256d in_up = _mm256_or_pd(_mm256_and_pd(pos, below_cap), _mm256_and_pd(neg, above_zero));
  const __m256d in_low =
      _mm256_or_pd(_mm256_and_pd(pos, above_zero), _mm256_and_pd(neg, below_cap));
  const __m256d up = _mm256_and_pd(in_up, _mm256_cmp_pd(value, lanes.up_value, _CMP_GT_OQ));
  const __m256d low = _mm256_and_pd(in_low, _mm256_cmp_pd(value, lanes.low_value, _CMP_LT_OQ));
  lanes.up_value = _mm256_blendv_pd(lanes.up_value, value, up);
  lanes.up_index = _mm256_blendv_pd(lanes.up_index, index, up);
  lanes.low_value = _mm256_blendv_pd(lanes.low_value, value, low);
  lanes.low_index = _mm256_blendv_pd(lanes.low_index, index, low);
}

}  // namespace

// Two stripes of four lanes over blocks of eight, so each lane's
// compare-and-blend chain waits on every other block only; one stripe
// measured slower (DESIGN §11). Lane l keeps its first strict improvement
// over the indices t = l mod 8.
__attribute__((target("avx2"))) ViolatingPair max_violating_pair_avx2(
    const double* y, const double* gradient, const double* alpha, const double* cap,
    std::size_t n) noexcept {
  const __m256d none = _mm256_set1_pd(static_cast<double>(n));
  ScanLanes even{_mm256_set1_pd(-kInfinity), none, _mm256_set1_pd(kInfinity), none};
  ScanLanes odd = even;
  const __m256d eight = _mm256_set1_pd(8.0);
  __m256d index = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
  const __m256d four = _mm256_set1_pd(4.0);
  std::size_t t = 0;
  for (; t + 8 <= n; t += 8) {
    scan_block_avx2(even, index, y + t, gradient + t, alpha + t, cap + t);
    scan_block_avx2(odd, _mm256_add_pd(index, four), y + t + 4, gradient + t + 4, alpha + t + 4,
                    cap + t + 4);
    index = _mm256_add_pd(index, eight);
  }
  double lanes[4][8];
  _mm256_storeu_pd(lanes[0], even.up_value);
  _mm256_storeu_pd(lanes[0] + 4, odd.up_value);
  _mm256_storeu_pd(lanes[1], even.up_index);
  _mm256_storeu_pd(lanes[1] + 4, odd.up_index);
  _mm256_storeu_pd(lanes[2], even.low_value);
  _mm256_storeu_pd(lanes[2] + 4, odd.low_value);
  _mm256_storeu_pd(lanes[3], even.low_index);
  _mm256_storeu_pd(lanes[3] + 4, odd.low_index);
  // The best lane value wins and equal values (±0 included) go to the lowest
  // index: the first index of the extremum. A lane that found nothing holds
  // index n.
  ViolatingPair pair{n, n, -kInfinity, kInfinity};
  for (std::size_t l = 0; l < 8; ++l) {
    const auto up = static_cast<std::size_t>(lanes[1][l]);
    if (lanes[0][l] > pair.max_up || (lanes[0][l] == pair.max_up && up < pair.up)) {
      pair.max_up = lanes[0][l];
      pair.up = up;
    }
    const auto low = static_cast<std::size_t>(lanes[3][l]);
    if (lanes[2][l] < pair.min_low || (lanes[2][l] == pair.min_low && low < pair.low)) {
      pair.min_low = lanes[2][l];
      pair.low = low;
    }
  }
  for (; t < n; ++t) scan_pair(pair, t, y, gradient, alpha, cap);
  return pair;
}

__attribute__((target("avx2"))) void smo_gradient_step_avx2(double step, const double* y,
                                                            const double* ki, const double* kj,
                                                            const std::size_t* rows,
                                                            double* gradient,
                                                            std::size_t n) noexcept {
  static_assert(sizeof(std::size_t) == sizeof(long long), "gathers read 64-bit row ids");
  const __m256d vstep = _mm256_set1_pd(step);
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    const __m256i r = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + t));
    const __m256d a = _mm256_i64gather_pd(ki, r, 8);
    const __m256d b = _mm256_i64gather_pd(kj, r, 8);
    const __m256d scaled = _mm256_mul_pd(vstep, _mm256_loadu_pd(y + t));
    _mm256_storeu_pd(gradient + t, _mm256_add_pd(_mm256_loadu_pd(gradient + t),
                                                 _mm256_mul_pd(scaled, _mm256_sub_pd(a, b))));
  }
  for (; t < n; ++t) gradient[t] += step * y[t] * (ki[rows[t]] - kj[rows[t]]);
}

#endif  // DNSEMBED_SIMD_X86

}  // namespace detail

namespace {

struct Kernels {
  float (*dot_f32)(const float*, const float*, std::size_t) noexcept;
  double (*dot_f64)(const double*, const double*, std::size_t) noexcept;
  double (*squared_l2_f64)(const double*, const double*, std::size_t) noexcept;
  void (*squared_l2_rows_f64)(const double*, const double*, std::size_t, std::size_t,
                              double*) noexcept;
  void (*axpy_f32)(float, const float*, float*, std::size_t) noexcept;
  void (*scale_f32)(float, const float*, float*, std::size_t) noexcept;
  void (*fused_step)(float, const float*, float*, float*, std::size_t) noexcept;
  void (*add_f64)(const double*, double*, std::size_t) noexcept;
  void (*loosen_bounds)(double*, const double*, double, std::size_t) noexcept;
  std::uint64_t (*candidate_mask)(double, const double*, const double*, std::size_t) noexcept;
  ViolatingPair (*max_violating_pair)(const double*, const double*, const double*, const double*,
                                      std::size_t) noexcept;
  void (*smo_gradient_step)(double, const double*, const double*, const double*,
                            const std::size_t*, double*, std::size_t) noexcept;
};

constexpr Kernels kScalarKernels{
    detail::dot_f32_scalar,           detail::dot_f64_scalar,
    detail::squared_l2_f64_scalar,    detail::squared_l2_rows_f64_scalar,
    detail::axpy_f32_scalar,          detail::scale_f32_scalar,
    detail::fused_step_scalar,        detail::add_f64_scalar,
    detail::loosen_bounds_scalar,     detail::candidate_mask_scalar,
    detail::max_violating_pair_scalar, detail::smo_gradient_step_scalar,
};

#ifdef DNSEMBED_SIMD_X86
constexpr Kernels kAvx2Kernels{
    detail::dot_f32_avx2,           detail::dot_f64_avx2,
    detail::squared_l2_f64_avx2,    detail::squared_l2_rows_f64_avx2,
    detail::axpy_f32_avx2,          detail::scale_f32_avx2,
    detail::fused_step_avx2,        detail::add_f64_avx2,
    detail::loosen_bounds_avx2,     detail::candidate_mask_avx2,
    detail::max_violating_pair_avx2, detail::smo_gradient_step_avx2,
};
#endif

const Kernels& kernels_for(Level level) noexcept {
#ifdef DNSEMBED_SIMD_X86
  if (level == Level::kAvx2) return kAvx2Kernels;
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
  if (force_scalar_env()) return Level::kScalar;
#ifdef DNSEMBED_SIMD_X86
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return Level::kAvx2;
#endif
  return Level::kScalar;
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
    case Level::kAvx2: return "avx2";
  }
  return "unknown";
}

bool level_supported(Level level) noexcept {
#ifdef DNSEMBED_SIMD_X86
  if (level == Level::kAvx2) {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
#else
  if (level != Level::kScalar) return false;
#endif
  return true;
}

Level force_level(Level level) noexcept {
  if (!level_supported(level)) level = Level::kScalar;
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

void add(const double* src, double* dst, std::size_t n) noexcept {
  resolve().add_f64(src, dst, n);
}

void loosen_bounds(double* lower, const double* drift, double factor, std::size_t n) noexcept {
  resolve().loosen_bounds(lower, drift, factor, n);
}

std::uint64_t candidate_mask(double u, const double* lower, const double* half,
                             std::size_t n) noexcept {
  return resolve().candidate_mask(u, lower, half, n);
}

ViolatingPair max_violating_pair(const double* y, const double* gradient, const double* alpha,
                                 const double* cap, std::size_t n) noexcept {
  return resolve().max_violating_pair(y, gradient, alpha, cap, n);
}

void smo_gradient_step(double step, const double* y, const double* ki, const double* kj,
                       const std::size_t* rows, double* gradient, std::size_t n) noexcept {
  resolve().smo_gradient_step(step, y, ki, kj, rows, gradient, n);
}

}  // namespace dnsembed::util::simd
