// Parity fuzz for the util/simd dispatch rungs: the AVX2 rung, where the CPU
// supports it, must agree with the scalar reference — within 1 ulp of the
// returned float for the double-accumulated float dot, bit-exactly for the
// element-wise float kernels (axpy, scale, fused_sigmoid_step) and for the
// k-means and SMO kernels (add, loosen_bounds, candidate_mask,
// max_violating_pair, smo_gradient_step) —
// each rung's float dot, axpy and scale must follow its own operation order
// bit for bit, and each rung's one-to-many squared_l2_rows must match its
// own pairwise squared_l2 bit for bit. Inputs sweep random data plus the
// usual traps: denormals, signed zeros, large magnitudes, infinities, and
// lengths that exercise every vector-width remainder path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace dnsembed::util::simd {
namespace {

using detail::axpy_f32_scalar;
using detail::dot_f32_scalar;
using detail::dot_f64_scalar;
using detail::fused_step_scalar;
using detail::scale_f32_scalar;
using detail::squared_l2_f64_scalar;

struct Rung {
  Level level;
  float (*dot_f32)(const float*, const float*, std::size_t) noexcept;
  double (*dot_f64)(const double*, const double*, std::size_t) noexcept;
  double (*sql2_f64)(const double*, const double*, std::size_t) noexcept;
  void (*axpy)(float, const float*, float*, std::size_t) noexcept;
  void (*scale)(float, const float*, float*, std::size_t) noexcept;
  void (*fused)(float, const float*, float*, float*, std::size_t) noexcept;
};

std::vector<Rung> supported_rungs() {
  std::vector<Rung> rungs;
#if defined(__x86_64__) || defined(__i386__)
  if (level_supported(Level::kAvx2)) {
    rungs.push_back({Level::kAvx2, detail::dot_f32_avx2, detail::dot_f64_avx2,
                     detail::squared_l2_f64_avx2, detail::axpy_f32_avx2,
                     detail::scale_f32_avx2, detail::fused_step_avx2});
  }
#endif
  return rungs;
}

/// Distance in representable values between two floats of the same sign
/// ordering (monotonic bit mapping; equal bits -> 0, adjacent -> 1).
std::uint32_t ulp_distance(float a, float b) {
  std::uint32_t ia = 0;
  std::uint32_t ib = 0;
  std::memcpy(&ia, &a, 4);
  std::memcpy(&ib, &b, 4);
  const auto order = [](std::uint32_t u) -> std::int64_t {
    return (u & 0x80000000u) ? -static_cast<std::int64_t>(u & 0x7fffffffu)
                             : static_cast<std::int64_t>(u & 0x7fffffffu);
  };
  const std::int64_t diff = order(ia) - order(ib);
  return static_cast<std::uint32_t>(diff < 0 ? -diff : diff);
}

/// Fuzz vector mixing magnitudes from denormal to ~1e18 with signed zeros.
template <typename T>
std::vector<T> fuzz_vector(util::Rng& rng, std::size_t n) {
  std::vector<T> v(n);
  for (auto& x : v) {
    const double u = rng.uniform();
    if (u < 0.05) {
      x = rng.bernoulli(0.5) ? T(0.0) : T(-0.0);
    } else if (u < 0.15) {
      // Denormal floats: smallest positive subnormal scaled up a little.
      x = static_cast<T>(std::numeric_limits<float>::denorm_min() *
                         (1.0 + 15.0 * rng.uniform()) * (rng.bernoulli(0.5) ? 1.0 : -1.0));
    } else if (u < 0.25) {
      x = static_cast<T>(rng.uniform(-1.0, 1.0) * 1e18);
    } else {
      x = static_cast<T>(rng.uniform(-8.0, 8.0));
    }
  }
  return v;
}

// Lengths covering empty input, scalar tails, and full vector widths.
constexpr std::size_t kLengths[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                                    12, 13, 15, 16, 17, 31, 64, 67, 128};

/// Byte equality that is defined for empty vectors too: an empty vector's
/// data() may be null, and memcmp on a null pointer is undefined even at
/// length 0.
template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

TEST(SimdParity, FloatReductionsWithinOneUlp) {
  const auto rungs = supported_rungs();
  util::Rng rng{20260806};
  for (int round = 0; round < 200; ++round) {
    for (const std::size_t n : kLengths) {
      const auto a = fuzz_vector<float>(rng, n);
      const auto b = fuzz_vector<float>(rng, n);
      const float ref_dot = dot_f32_scalar(a.data(), b.data(), n);
      for (const auto& rung : rungs) {
        const float got_dot = rung.dot_f32(a.data(), b.data(), n);
        EXPECT_LE(ulp_distance(got_dot, ref_dot), 1u)
            << level_name(rung.level) << " dot n=" << n << " got=" << got_dot
            << " ref=" << ref_dot;
      }
    }
  }
}

/// A rung's float dot written out plainly: the scalar rung sums in index
/// order; AVX2 keeps two 4-lane double accumulators over blocks of 8
/// elements, adds them lane by lane, reduces the lanes as
/// (l0 + l1) + (l2 + l3), then adds the remaining products one at a time in
/// index order. Float products are exact in
/// double, so an FMA into an accumulator rounds like this add does.
float reference_dot(Level level, const float* a, const float* b, std::size_t n) {
  const auto product = [&](std::size_t i) {
    return static_cast<double>(a[i]) * static_cast<double>(b[i]);
  };
  std::size_t i = 0;
  double sum = 0.0;
  if (level == Level::kAvx2) {
    double acc0[4] = {};
    double acc1[4] = {};
    for (; i + 8 <= n; i += 8) {
      for (std::size_t j = 0; j < 4; ++j) {
        acc0[j] += product(i + j);
        acc1[j] += product(i + 4 + j);
      }
    }
    double l[4] = {};
    for (std::size_t j = 0; j < 4; ++j) l[j] = acc0[j] + acc1[j];
    sum = (l[0] + l[1]) + (l[2] + l[3]);
  }
  for (; i < n; ++i) sum += product(i);
  return static_cast<float>(sum);
}

/// Entries of ±2^30 among small ones: products of ±2^60 cancel exactly and
/// absorb the small products they meet, so the float a dot returns depends
/// on the order of its additions (random magnitudes almost never show a
/// reordering once the double sum is rounded to float).
std::vector<float> cancelling_vector(util::Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) {
    x = rng.bernoulli(0.4) ? (rng.bernoulli(0.5) ? 0x1.0p30f : -0x1.0p30f)
                           : static_cast<float>(rng.uniform(-8.0, 8.0));
  }
  return v;
}

// Each rung's float dot, axpy and scale against its own operation order,
// bit for bit: a rung that reorders its reduction or its tail fails here
// even when the result stays within an ulp of the scalar rung.
TEST(SimdParity, FloatKernelsFollowTheirRungsOperationOrder) {
  struct FloatRung {
    Level level;
    float (*dot)(const float*, const float*, std::size_t) noexcept;
    void (*axpy)(float, const float*, float*, std::size_t) noexcept;
    void (*scale)(float, const float*, float*, std::size_t) noexcept;
  };
  std::vector<FloatRung> rungs{
      {Level::kScalar, dot_f32_scalar, axpy_f32_scalar, scale_f32_scalar}};
  for (const auto& rung : supported_rungs()) {
    rungs.push_back({rung.level, rung.dot_f32, rung.axpy, rung.scale});
  }
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };

  util::Rng rng{0x0DE12};
  for (int round = 0; round < 400; ++round) {
    for (const std::size_t n : kLengths) {
      const bool cancelling = round % 2 == 1;
      const auto a = cancelling ? cancelling_vector(rng, n) : fuzz_vector<float>(rng, n);
      const auto b = cancelling ? cancelling_vector(rng, n) : fuzz_vector<float>(rng, n);
      const auto y0 = fuzz_vector<float>(rng, n);
      const auto alpha = static_cast<float>(rng.uniform(-2.0, 2.0));
      auto y_ref = y0;
      std::vector<float> scaled_ref(n);
      for (std::size_t i = 0; i < n; ++i) {
        y_ref[i] += alpha * a[i];
        scaled_ref[i] = alpha * a[i];
      }
      for (const auto& rung : rungs) {
        EXPECT_EQ(bits(rung.dot(a.data(), b.data(), n)),
                  bits(reference_dot(rung.level, a.data(), b.data(), n)))
            << level_name(rung.level) << " dot n=" << n << (cancelling ? " cancelling" : "");
        auto y = y0;
        rung.axpy(alpha, a.data(), y.data(), n);
        EXPECT_TRUE(same_bytes(y, y_ref)) << level_name(rung.level) << " axpy n=" << n;
        std::vector<float> scaled(n);
        rung.scale(alpha, a.data(), scaled.data(), n);
        EXPECT_TRUE(same_bytes(scaled, scaled_ref)) << level_name(rung.level) << " scale n=" << n;
      }
    }
  }
}

TEST(SimdParity, DoubleReductionsMatchToReassociationTolerance) {
  const auto rungs = supported_rungs();
  util::Rng rng{987654321};
  for (int round = 0; round < 100; ++round) {
    for (const std::size_t n : kLengths) {
      const auto a = fuzz_vector<double>(rng, n);
      const auto b = fuzz_vector<double>(rng, n);
      const double ref_dot = dot_f64_scalar(a.data(), b.data(), n);
      const double ref_sql2 = squared_l2_f64_scalar(a.data(), b.data(), n);
      // Reassociation error bound: n * eps * sum of term magnitudes.
      double dot_scale = 0.0;
      double sql2_scale = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dot_scale += std::fabs(a[i] * b[i]);
        sql2_scale += (a[i] - b[i]) * (a[i] - b[i]);
      }
      const double eps = static_cast<double>(n + 1) * 4.0 *
                         std::numeric_limits<double>::epsilon();
      for (const auto& rung : rungs) {
        EXPECT_NEAR(rung.dot_f64(a.data(), b.data(), n), ref_dot, eps * dot_scale + 1e-300)
            << level_name(rung.level) << " dot n=" << n;
        EXPECT_NEAR(rung.sql2_f64(a.data(), b.data(), n), ref_sql2,
                    eps * sql2_scale + 1e-300)
            << level_name(rung.level) << " squared_l2 n=" << n;
      }
    }
  }
}

TEST(SimdParity, ElementwiseKernelsBitIdentical) {
  const auto rungs = supported_rungs();
  util::Rng rng{0xC0FFEE};
  for (int round = 0; round < 200; ++round) {
    for (const std::size_t n : kLengths) {
      const auto x = fuzz_vector<float>(rng, n);
      const auto y0 = fuzz_vector<float>(rng, n);
      const auto grad0 = fuzz_vector<float>(rng, n);
      const auto alpha = static_cast<float>(rng.uniform(-2.0, 2.0));

      auto y_ref = y0;
      axpy_f32_scalar(alpha, x.data(), y_ref.data(), n);
      std::vector<float> scaled_ref(n);
      scale_f32_scalar(alpha, x.data(), scaled_ref.data(), n);
      auto tgt_ref = y0;
      auto grad_ref = grad0;
      fused_step_scalar(alpha, x.data(), tgt_ref.data(), grad_ref.data(), n);

      for (const auto& rung : rungs) {
        auto y = y0;
        rung.axpy(alpha, x.data(), y.data(), n);
        EXPECT_TRUE(same_bytes(y, y_ref)) << level_name(rung.level) << " axpy n=" << n;

        std::vector<float> scaled(n);
        rung.scale(alpha, x.data(), scaled.data(), n);
        EXPECT_TRUE(same_bytes(scaled, scaled_ref)) << level_name(rung.level) << " scale n=" << n;

        auto tgt = y0;
        auto grad = grad0;
        rung.fused(alpha, x.data(), tgt.data(), grad.data(), n);
        EXPECT_TRUE(same_bytes(tgt, tgt_ref)) << level_name(rung.level) << " fused tgt n=" << n;
        EXPECT_TRUE(same_bytes(grad, grad_ref)) << level_name(rung.level) << " fused grad n=" << n;
      }
    }
  }
}

// squared_l2_rows must give every row the bits of the same rung's pairwise
// squared_l2, with the fixed vector as either pairwise operand. m = 0..9
// covers the AVX2 four-row blocks and their remainders;
// kLengths covers every lane tail.
TEST(SimdParity, SquaredL2RowsMatchPairwiseBitForBit) {
  struct RowsRung {
    Level level;
    double (*pairwise)(const double*, const double*, std::size_t) noexcept;
    void (*rows)(const double*, const double*, std::size_t, std::size_t, double*) noexcept;
  };
  std::vector<RowsRung> rungs{
      {Level::kScalar, squared_l2_f64_scalar, detail::squared_l2_rows_f64_scalar}};
#if defined(__x86_64__) || defined(__i386__)
  if (level_supported(Level::kAvx2)) {
    rungs.push_back(
        {Level::kAvx2, detail::squared_l2_f64_avx2, detail::squared_l2_rows_f64_avx2});
  }
#endif
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  util::Rng rng{0x5EED5};
  for (int round = 0; round < 20; ++round) {
    for (const std::size_t n : kLengths) {
      for (std::size_t m = 0; m <= 9; ++m) {
        const auto a = fuzz_vector<double>(rng, n);
        const auto rows = fuzz_vector<double>(rng, m * n);
        for (const auto& rung : rungs) {
          std::vector<double> out(m);
          rung.rows(a.data(), rows.data(), m, n, out.data());
          for (std::size_t j = 0; j < m; ++j) {
            const double* row = rows.data() + j * n;
            EXPECT_EQ(bits(out[j]), bits(rung.pairwise(a.data(), row, n)))
                << level_name(rung.level) << " m=" << m << " n=" << n << " row " << j;
            EXPECT_EQ(bits(out[j]), bits(rung.pairwise(row, a.data(), n)))
                << level_name(rung.level) << " m=" << m << " n=" << n << " row " << j
                << " (fixed vector second)";
          }
        }
      }
    }
  }

  // The dispatched entry point agrees with the dispatched pairwise call.
  const auto a = fuzz_vector<double>(rng, 72);
  const auto rows = fuzz_vector<double>(rng, 7 * 72);
  std::vector<double> out(7);
  squared_l2_rows(a.data(), rows.data(), 7, 72, out.data());
  for (std::size_t j = 0; j < 7; ++j) {
    EXPECT_EQ(bits(out[j]), bits(squared_l2(a.data(), rows.data() + j * 72, 72))) << j;
  }
}

/// The exact double kernels of one vector rung: k-means' sums, bound
/// loosening and candidate mask, and SMO's working-set scan and gradient
/// step.
struct ExactRung {
  Level level;
  void (*add)(const double*, double*, std::size_t) noexcept;
  void (*loosen)(double*, const double*, double, std::size_t) noexcept;
  std::uint64_t (*mask)(double, const double*, const double*, std::size_t) noexcept;
  ViolatingPair (*pair)(const double*, const double*, const double*, const double*,
                        std::size_t) noexcept;
  void (*gradient)(double, const double*, const double*, const double*, const std::size_t*,
                   double*, std::size_t) noexcept;
};

std::vector<ExactRung> exact_rungs() {
  std::vector<ExactRung> rungs;
#if defined(__x86_64__) || defined(__i386__)
  if (level_supported(Level::kAvx2)) {
    rungs.push_back({Level::kAvx2, detail::add_f64_avx2, detail::loosen_bounds_avx2,
                     detail::candidate_mask_avx2, detail::max_violating_pair_avx2,
                     detail::smo_gradient_step_avx2});
  }
#endif
  return rungs;
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Values that put the exact kernels' compares on their edges: signed
/// zeros, infinities, a few small integers (so values and bounds tie) and
/// random magnitudes.
double edge_value(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.1) return rng.bernoulli(0.5) ? 0.0 : -0.0;
  if (u < 0.15) return std::numeric_limits<double>::infinity();
  if (u < 0.4) return static_cast<double>(rng.uniform_index(4));
  if (u < 0.5) return -static_cast<double>(rng.uniform_index(4));
  return rng.uniform(-3.0, 3.0);
}

TEST(SimdParity, KMeansKernelsBitIdentical) {
  const auto rungs = exact_rungs();
  util::Rng rng{0xE1CA};
  for (int round = 0; round < 300; ++round) {
    for (const std::size_t n : kLengths) {
      const auto src = fuzz_vector<double>(rng, n);
      const auto dst0 = fuzz_vector<double>(rng, n);
      auto sum_ref = dst0;
      detail::add_f64_scalar(src.data(), sum_ref.data(), n);

      // Bounds above and below their drifts, so some loosened bounds go
      // negative (and clamp to +0), -0, or NaN (inf - inf).
      std::vector<double> lower0(n);
      std::vector<double> drift(n);
      for (std::size_t i = 0; i < n; ++i) {
        lower0[i] = edge_value(rng);
        drift[i] = rng.bernoulli(0.3) ? lower0[i] : edge_value(rng);
      }
      const double factor = round % 2 == 0 ? 1.0 - 1e-9 : rng.uniform(0.5, 1.5);
      auto lower_ref = lower0;
      detail::loosen_bounds_scalar(lower_ref.data(), drift.data(), factor, n);

      for (const auto& rung : rungs) {
        auto sum = dst0;
        rung.add(src.data(), sum.data(), n);
        EXPECT_TRUE(same_bytes(sum, sum_ref)) << level_name(rung.level) << " add n=" << n;
        auto lower = lower0;
        rung.loosen(lower.data(), drift.data(), factor, n);
        EXPECT_TRUE(same_bytes(lower, lower_ref))
            << level_name(rung.level) << " loosen_bounds n=" << n;
      }
    }
  }
  // std::max(0.0, v) keeps +0 for v = -0 and for NaN.
  const double lower[3] = {-0.0, std::numeric_limits<double>::infinity(), -1.0};
  const double drift[3] = {0.0, std::numeric_limits<double>::infinity(), 2.0};
  for (const auto& rung : rungs) {
    double got[3] = {lower[0], lower[1], lower[2]};
    rung.loosen(got, drift, 1.0, 3);
    for (const double v : got) EXPECT_EQ(bits_of(v), bits_of(0.0)) << level_name(rung.level);
  }
}

TEST(SimdParity, CandidateMaskBitIdentical) {
  const auto rungs = exact_rungs();
  util::Rng rng{0x3A5C};
  for (int round = 0; round < 500; ++round) {
    for (const std::size_t n : kLengths) {
      if (n > 64) continue;
      std::vector<double> lower(n);
      std::vector<double> half(n);
      for (std::size_t i = 0; i < n; ++i) {
        lower[i] = std::fabs(edge_value(rng));
        // An infinite half-distance marks the diagonal.
        half[i] = rng.bernoulli(0.1) ? std::numeric_limits<double>::infinity()
                                     : std::fabs(edge_value(rng));
      }
      if (round % 7 == 0 && n > 0) lower[rng.uniform_index(n)] = std::nan("");
      // u on a bound's value, so `u < bound` ties; or a fresh value.
      const double u = n > 0 && rng.bernoulli(0.5) ? lower[rng.uniform_index(n)]
                                                   : std::fabs(edge_value(rng));
      const std::uint64_t want = detail::candidate_mask_scalar(u, lower.data(), half.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const bool candidate = !(u < lower[i]) && !(u < half[i]);
        ASSERT_EQ((want >> i) & 1u, candidate ? 1u : 0u) << "scalar bit " << i << " n=" << n;
      }
      if (n < 64) {
        ASSERT_EQ(want >> n, 0u) << "n=" << n;
      }
      for (const auto& rung : rungs) {
        EXPECT_EQ(rung.mask(u, lower.data(), half.data(), n), want)
            << level_name(rung.level) << " n=" << n << " u=" << u;
      }
    }
  }
}

TEST(SimdParity, SmoKernelsBitIdentical) {
  const auto rungs = exact_rungs();
  util::Rng rng{0x5A0};
  const std::size_t lengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 67, 130};
  for (int round = 0; round < 300; ++round) {
    for (const std::size_t n : lengths) {
      std::vector<double> y(n);
      std::vector<double> gradient(n);
      std::vector<double> alpha(n);
      std::vector<double> cap(n);
      for (std::size_t t = 0; t < n; ++t) {
        y[t] = rng.bernoulli(0.4) ? 1.0 : -1.0;
        cap[t] = rng.bernoulli(0.5) ? 1.0 : 2.5;
        const double at = rng.uniform();
        alpha[t] = at < 0.4 ? 0.0 : (at < 0.7 ? cap[t] : cap[t] * rng.uniform());
        // Small integers and signed zeros make -y * gradient tie, across
        // lanes and with the tail.
        gradient[t] = round % 2 == 0 ? edge_value(rng)
                                     : static_cast<double>(rng.uniform_index(3)) - 1.0;
        if (gradient[t] == 0.0 && rng.bernoulli(0.5)) gradient[t] = -gradient[t];
      }
      const ViolatingPair want = detail::max_violating_pair_scalar(
          y.data(), gradient.data(), alpha.data(), cap.data(), n);

      const std::size_t m = n + 5;
      std::vector<double> ki(m);
      std::vector<double> kj(m);
      for (std::size_t r = 0; r < m; ++r) {
        ki[r] = rng.uniform(-1.0, 1.0);
        kj[r] = rng.bernoulli(0.2) ? ki[r] : rng.uniform(-1.0, 1.0);
      }
      std::vector<std::size_t> rows(n);
      for (std::size_t t = 0; t < n; ++t) rows[t] = rng.uniform_index(m);
      const double step = rng.uniform(-2.0, 2.0);
      auto gradient_ref = gradient;
      detail::smo_gradient_step_scalar(step, y.data(), ki.data(), kj.data(), rows.data(),
                                       gradient_ref.data(), n);

      for (const auto& rung : rungs) {
        const ViolatingPair got =
            rung.pair(y.data(), gradient.data(), alpha.data(), cap.data(), n);
        const std::string where = std::string{level_name(rung.level)} + " n=" +
                                  std::to_string(n) + " round " + std::to_string(round);
        EXPECT_EQ(got.up, want.up) << where;
        EXPECT_EQ(got.low, want.low) << where;
        EXPECT_EQ(bits_of(got.max_up), bits_of(want.max_up)) << where;
        EXPECT_EQ(bits_of(got.min_low), bits_of(want.min_low)) << where;
        auto g = gradient;
        rung.gradient(step, y.data(), ki.data(), kj.data(), rows.data(), g.data(), n);
        EXPECT_TRUE(same_bytes(g, gradient_ref)) << where << " gradient";
      }
    }
  }
}

// The scalar scan is SMO's plain loop: the first index of each extremum,
// and n with an infinite value when the set is empty.
TEST(SimdParity, ViolatingPairTakesTheFirstIndexOfEachExtremum) {
  const double inf = std::numeric_limits<double>::infinity();
  // All free (0 < alpha < cap): every row is in both sets.
  const double y[9] = {1, -1, 1, 1, -1, 1, -1, 1, 1};
  const double gradient[9] = {-0.0, 0.0, -2.0, -2.0, 1.0, 0.0, -1.0, 3.0, -3.0};
  const double alpha[9] = {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5};
  const double cap[9] = {1, 1, 1, 1, 1, 1, 1, 1, 1};
  // values -y * g: 0, 0, 2, 2, 1, -0, -1, -3, 3.
  const Level original = active_level();
  for (const Level level : {Level::kScalar, Level::kAvx2}) {
    if (!level_supported(level)) continue;
    force_level(level);
    const ViolatingPair pair = max_violating_pair(y, gradient, alpha, cap, 9);
    EXPECT_EQ(pair.up, 8u) << level_name(level);
    EXPECT_EQ(pair.max_up, 3.0) << level_name(level);
    EXPECT_EQ(pair.low, 7u) << level_name(level);
    EXPECT_EQ(pair.min_low, -3.0) << level_name(level);
    // Without rows 7 and 8 the max 2 ties at rows 2 and 3 and the min -1 is
    // row 6.
    const ViolatingPair head = max_violating_pair(y, gradient, alpha, cap, 7);
    EXPECT_EQ(head.up, 2u) << level_name(level);
    EXPECT_EQ(head.low, 6u) << level_name(level);
    // Every value a zero, -0 in row 0 and +0 after it: ±0 tie, so row 0
    // wins both and keeps its sign; with the signs swapped, +0 wins.
    const double flat_y[9] = {1, 1, 1, 1, 1, 1, 1, 1, 1};
    const double minus_first[9] = {0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0};
    const double plus_first[9] = {-0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    for (const double* flat_gradient : {minus_first, plus_first}) {
      const ViolatingPair flat = max_violating_pair(flat_y, flat_gradient, alpha, cap, 9);
      EXPECT_EQ(flat.up, 0u) << level_name(level);
      EXPECT_EQ(flat.low, 0u) << level_name(level);
      EXPECT_EQ(bits_of(flat.max_up), bits_of(-flat_gradient[0])) << level_name(level);
      EXPECT_EQ(bits_of(flat.min_low), bits_of(-flat_gradient[0])) << level_name(level);
    }
    // alpha = 0 with y > 0 and alpha = cap with y < 0 are only in I_up; an
    // empty I_low reports n and +inf.
    const double at_bound[5] = {0, 1, 0, 0, 1};
    const double signs[5] = {1, -1, 1, 1, -1};
    const ViolatingPair edge = max_violating_pair(signs, gradient, at_bound, cap, 5);
    EXPECT_EQ(edge.low, 5u) << level_name(level);
    EXPECT_EQ(edge.min_low, inf) << level_name(level);
    EXPECT_EQ(edge.up, 2u) << level_name(level);
  }
  force_level(original);
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndForceFallsBackDownTheLadder) {
  EXPECT_TRUE(level_supported(Level::kScalar));
  const Level original = active_level();

  const Level scalar = force_level(Level::kScalar);
  EXPECT_EQ(scalar, Level::kScalar);
  EXPECT_EQ(active_level(), Level::kScalar);

  // Requesting the widest rung lands on the widest rung the CPU has.
  const Level widest = force_level(Level::kAvx2);
  EXPECT_TRUE(level_supported(widest));
  EXPECT_EQ(active_level(), widest);

  force_level(original);
  EXPECT_EQ(active_level(), original);
}

TEST(SimdDispatch, ForcedRungsStillComputeCorrectly) {
  const float a[5] = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  const float b[5] = {5.0f, 4.0f, 3.0f, 2.0f, 1.0f};
  const Level original = active_level();
  for (const Level level : {Level::kScalar, Level::kAvx2}) {
    if (!level_supported(level)) continue;
    EXPECT_EQ(force_level(level), level);
    EXPECT_FLOAT_EQ(dot(a, b, 5), 35.0f) << level_name(level);
  }
  force_level(original);
}

TEST(SimdDispatch, LevelNamesAreStable) {
  EXPECT_STREQ(level_name(Level::kScalar), "scalar");
  EXPECT_STREQ(level_name(Level::kAvx2), "avx2");
}

TEST(SimdDispatch, SnapshotPublishesSelectedLevelGauge) {
  const auto snap = obs::Registry::instance().snapshot();
  const auto it = std::find_if(snap.gauges.begin(), snap.gauges.end(),
                               [](const auto& g) { return g.first == "simd.level"; });
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_EQ(it->second, static_cast<std::int64_t>(active_level()));
}

}  // namespace
}  // namespace dnsembed::util::simd
