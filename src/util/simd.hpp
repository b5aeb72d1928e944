// Shared SIMD math-kernel layer for every dense-vector hot loop: LINE and
// SGNS negative-sampling SGD (float rows), SVM RBF kernel rows and batch
// scoring, the SMO working-set scan and gradient step, k-means/x-means
// centroid distances, sums and Elkan bounds, and t-SNE pairwise distances
// (double rows).
//
// LINE's step loop does not call through the table: it is instantiated once
// per rung on the float dot/axpy/scale bodies of util/simd_kernels.hpp,
// which the table's entries also call, and picks the instantiation of
// active_level().
//
// Dispatch is resolved once at first use, walking the ladder
// AVX2 (+FMA) -> SSE2 -> scalar by runtime CPU detection. The
// DNSEMBED_FORCE_SCALAR environment variable (any value except "" or "0")
// pins the scalar rung. The selected rung is republished by the obs
// registry as the `simd.level` gauge at snapshot time (0 = scalar,
// 1 = sse2, 2 = avx2) — util cannot depend on obs.
//
// Numeric contract (the parity fuzz test in tests/simd_test.cpp enforces
// it): float `dot` accumulates in double in every rung — float products
// widen exactly, so rungs differ only in double summation order and agree
// within 1 ulp of the returned float. `axpy`, `scale`, and
// `fused_sigmoid_step` are element-wise mul+add with no FMA contraction, so
// all rungs are bit-identical. Double `dot`/`squared_l2` reassociate the
// accumulation across lanes; rungs agree to a few ulps but are not
// bit-equal, which is why components that must be bit-stable across thread
// counts (deterministic LINE) only feed these kernels identical inputs per
// call site, never per-path mixtures. `squared_l2_rows` is the one-to-many
// form of double `squared_l2`: on each rung every output is bit-identical to
// that rung's pairwise call, so a caller may batch distances without moving
// a result. The k-means and SMO kernels (`add`, `loosen_bounds`,
// `candidate_mask`, `max_violating_pair`, `smo_gradient_step`) are exact
// compares or element-wise ops in the scalar loop's operation order, so all
// rungs return the same bits; they have scalar and AVX2 bodies, and the SSE2
// rung runs the scalar ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace dnsembed::util::simd {

/// Dispatch ladder rung, widest first wins.
enum class Level : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// The rung the process resolved (cached after the first call).
Level active_level() noexcept;

const char* level_name(Level level) noexcept;

/// Re-point every kernel at the given rung. Test/bench hook: not safe while
/// other threads are inside a kernel, and ignored requests (a rung the CPU
/// lacks) fall back down the ladder. Returns the rung actually selected.
Level force_level(Level level) noexcept;

/// True when the running CPU can execute the rung.
bool level_supported(Level level) noexcept;

// ------------------------------------------------------------- kernels

/// Inner product, accumulated in double, rounded to float once.
float dot(const float* a, const float* b, std::size_t n) noexcept;

/// Inner product of double vectors.
double dot(const double* a, const double* b, std::size_t n) noexcept;

/// Squared L2 distance |a - b|^2 of double vectors.
double squared_l2(const double* a, const double* b, std::size_t n) noexcept;

/// out[j] = squared_l2(a, rows + j * n, n) for j < m: one vector's distances
/// to m contiguous rows of length n. Each output has the bits of the
/// pairwise call on the same rung, with either operand fixed (IEEE
/// subtraction is sign-symmetric, so squared_l2(a, b) == squared_l2(b, a)).
void squared_l2_rows(const double* a, const double* rows, std::size_t m, std::size_t n,
                     double* out) noexcept;

/// y[i] += alpha * x[i] (bit-identical across rungs).
void axpy(float alpha, const float* x, float* y, std::size_t n) noexcept;

/// out[i] = alpha * x[i] (bit-identical across rungs).
void scale(float alpha, const float* x, float* out, std::size_t n) noexcept;

/// Fused negative-sampling SGD step (LINE/SGNS inner loop):
///   grad[i] += coeff * tgt[i];  tgt[i] += coeff * src[i]
/// reading tgt before its update, exactly like the scalar reference
/// (bit-identical across rungs).
void fused_sigmoid_step(float coeff, const float* src, float* tgt, float* grad,
                        std::size_t n) noexcept;

/// dst[i] += src[i] on doubles (bit-identical across rungs).
void add(const double* src, double* dst, std::size_t n) noexcept;

/// Loosens Elkan lower bounds after the centroids move:
///   lower[i] = std::max(0.0, (lower[i] - drift[i]) * factor)
/// with that expression's result for ±0 and NaN (bit-identical across rungs).
void loosen_bounds(double* lower, const double* drift, double factor, std::size_t n) noexcept;

/// Bit i (i < n <= 64) is set when !(u < lower[i]) && !(u < half[i]): the
/// candidates a bounded k-means pass still has to test at upper bound u.
/// Unordered entries count as not ruled out, as in the scalar test.
std::uint64_t candidate_mask(double u, const double* lower, const double* half,
                             std::size_t n) noexcept;

/// SMO's index sets: I_up holds the multipliers that may move along +y,
/// I_low those that may move along -y. The AVX2 scan's lane masks transcribe
/// these two expressions.
inline bool in_smo_up(double y, double alpha, double cap) noexcept {
  return (y > 0 && alpha < cap) || (y < 0 && alpha > 0);
}
inline bool in_smo_low(double y, double alpha, double cap) noexcept {
  return (y > 0 && alpha > 0) || (y < 0 && alpha < cap);
}

/// SMO's maximal violating pair (libsvm WSS1) over t < n, with
/// value_t = -y[t] * gradient[t]:
///   up  = the first index of the max of value_t over I_up (in_smo_up)
///   low = the first index of the min of value_t over I_low (in_smo_low)
/// and those elements' values. An index is n, and its value -inf (up) or
/// +inf (low), when no element beats that start. The same pair and bits on
/// every rung: each lane keeps its first strict improvement, and lanes
/// with equal values (±0 included) resolve to the lowest index.
struct ViolatingPair {
  std::size_t up;
  std::size_t low;
  double max_up;
  double min_low;
};
ViolatingPair max_violating_pair(const double* y, const double* gradient, const double* alpha,
                                 const double* cap, std::size_t n) noexcept;

/// SMO's gradient update for the pair whose kernel rows are ki and kj:
///   gradient[t] += (step * y[t]) * (ki[rows[t]] - kj[rows[t]])
/// in that operation order (bit-identical across rungs).
void smo_gradient_step(double step, const double* y, const double* ki, const double* kj,
                       const std::size_t* rows, double* gradient, std::size_t n) noexcept;

inline double dot(std::span<const double> a, std::span<const double> b) noexcept {
  return dot(a.data(), b.data(), a.size());
}

inline double squared_l2(std::span<const double> a, std::span<const double> b) noexcept {
  return squared_l2(a.data(), b.data(), a.size());
}

// Every rung's implementation, exposed so the parity fuzz test can compare
// rungs pairwise regardless of what dispatch picked. The sse2/avx2 entry
// points exist on every build; calling one on a CPU without the feature is
// undefined, so guard with level_supported(). The five exact kernels have no
// sse2 entry points: that rung's table names their scalar bodies.
namespace detail {

float dot_f32_scalar(const float* a, const float* b, std::size_t n) noexcept;
double dot_f64_scalar(const double* a, const double* b, std::size_t n) noexcept;
double squared_l2_f64_scalar(const double* a, const double* b, std::size_t n) noexcept;
void squared_l2_rows_f64_scalar(const double* a, const double* rows, std::size_t m,
                                std::size_t n, double* out) noexcept;
void axpy_f32_scalar(float alpha, const float* x, float* y, std::size_t n) noexcept;
void scale_f32_scalar(float alpha, const float* x, float* out, std::size_t n) noexcept;
void fused_step_scalar(float coeff, const float* src, float* tgt, float* grad,
                       std::size_t n) noexcept;
void add_f64_scalar(const double* src, double* dst, std::size_t n) noexcept;
void loosen_bounds_scalar(double* lower, const double* drift, double factor,
                          std::size_t n) noexcept;
std::uint64_t candidate_mask_scalar(double u, const double* lower, const double* half,
                                    std::size_t n) noexcept;
ViolatingPair max_violating_pair_scalar(const double* y, const double* gradient,
                                        const double* alpha, const double* cap,
                                        std::size_t n) noexcept;
void smo_gradient_step_scalar(double step, const double* y, const double* ki,
                              const double* kj, const std::size_t* rows, double* gradient,
                              std::size_t n) noexcept;

#if defined(__x86_64__) || defined(__i386__)
float dot_f32_sse2(const float* a, const float* b, std::size_t n) noexcept;
double dot_f64_sse2(const double* a, const double* b, std::size_t n) noexcept;
double squared_l2_f64_sse2(const double* a, const double* b, std::size_t n) noexcept;
void squared_l2_rows_f64_sse2(const double* a, const double* rows, std::size_t m,
                              std::size_t n, double* out) noexcept;
void axpy_f32_sse2(float alpha, const float* x, float* y, std::size_t n) noexcept;
void scale_f32_sse2(float alpha, const float* x, float* out, std::size_t n) noexcept;
void fused_step_sse2(float coeff, const float* src, float* tgt, float* grad,
                     std::size_t n) noexcept;

float dot_f32_avx2(const float* a, const float* b, std::size_t n) noexcept;
double dot_f64_avx2(const double* a, const double* b, std::size_t n) noexcept;
double squared_l2_f64_avx2(const double* a, const double* b, std::size_t n) noexcept;
void squared_l2_rows_f64_avx2(const double* a, const double* rows, std::size_t m,
                              std::size_t n, double* out) noexcept;
void axpy_f32_avx2(float alpha, const float* x, float* y, std::size_t n) noexcept;
void scale_f32_avx2(float alpha, const float* x, float* out, std::size_t n) noexcept;
void fused_step_avx2(float coeff, const float* src, float* tgt, float* grad,
                     std::size_t n) noexcept;
void add_f64_avx2(const double* src, double* dst, std::size_t n) noexcept;
void loosen_bounds_avx2(double* lower, const double* drift, double factor,
                        std::size_t n) noexcept;
std::uint64_t candidate_mask_avx2(double u, const double* lower, const double* half,
                                  std::size_t n) noexcept;
ViolatingPair max_violating_pair_avx2(const double* y, const double* gradient,
                                      const double* alpha, const double* cap,
                                      std::size_t n) noexcept;
void smo_gradient_step_avx2(double step, const double* y, const double* ki,
                            const double* kj, const std::size_t* rows, double* gradient,
                            std::size_t n) noexcept;
#endif

}  // namespace detail

}  // namespace dnsembed::util::simd
