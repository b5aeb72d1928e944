// Shared SIMD math-kernel layer for every dense-vector hot loop: LINE and
// SGNS negative-sampling SGD (float rows), SVM RBF kernel rows and batch
// scoring, k-means/x-means centroid distances, and t-SNE pairwise distances
// (double rows).
//
// LINE's step loop does not call through the table: it is instantiated once
// per rung on the float dot/axpy/scale bodies of util/simd_kernels.hpp,
// which the table's entries also call, and picks the instantiation of
// active_level().
//
// Dispatch is resolved once at first use, walking the ladder
// AVX2 (+FMA) -> SSE2 -> scalar by runtime CPU detection. Two overrides pin
// the scalar rung: the DNSEMBED_FORCE_SCALAR CMake option (compile-time,
// bakes the scalar kernels in) and the DNSEMBED_FORCE_SCALAR environment
// variable (runtime, any value except "" or "0"). The selected rung is
// republished by the obs registry as the `simd.level` gauge at snapshot
// time (0 = scalar, 1 = sse2, 2 = avx2) — util cannot depend on obs.
//
// Numeric contract (the parity fuzz test in tests/simd_test.cpp enforces
// it): float `dot` and `squared_l2` accumulate in double in every rung —
// float products widen exactly, so rungs differ only in double summation
// order and agree within 1 ulp of the returned float. `axpy`, `scale`, and
// `fused_sigmoid_step` are element-wise mul+add with no FMA contraction, so
// all rungs are bit-identical. Double `dot`/`squared_l2` reassociate the
// accumulation across lanes; rungs agree to a few ulps but are not
// bit-equal, which is why components that must be bit-stable across thread
// counts (deterministic LINE) only feed these kernels identical inputs per
// call site, never per-path mixtures. `squared_l2_rows` is the one-to-many
// form of double `squared_l2`: on each rung every output is bit-identical to
// that rung's pairwise call, so a caller may batch distances without moving
// a result.
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

/// Squared L2 distance |a - b|^2, accumulated in double.
float squared_l2(const float* a, const float* b, std::size_t n) noexcept;

/// Squared L2 distance of double vectors.
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

/// sig[i] = min(sig[i], h[i]) over unsigned 32-bit lanes — the minhash
/// signature fold (graph/sketch.cpp runs it once per bipartite incidence).
/// Integer min is exact, so every rung is bit-identical.
void min_u32(const std::uint32_t* h, std::uint32_t* sig, std::size_t n) noexcept;

inline double dot(std::span<const double> a, std::span<const double> b) noexcept {
  return dot(a.data(), b.data(), a.size());
}

inline double squared_l2(std::span<const double> a, std::span<const double> b) noexcept {
  return squared_l2(a.data(), b.data(), a.size());
}

// Every rung's implementation, exposed so the parity fuzz test can compare
// rungs pairwise regardless of what dispatch picked. The sse2/avx2 entry
// points exist on every build; calling one on a CPU without the feature is
// undefined, so guard with level_supported().
namespace detail {

float dot_f32_scalar(const float* a, const float* b, std::size_t n) noexcept;
double dot_f64_scalar(const double* a, const double* b, std::size_t n) noexcept;
float squared_l2_f32_scalar(const float* a, const float* b, std::size_t n) noexcept;
double squared_l2_f64_scalar(const double* a, const double* b, std::size_t n) noexcept;
void squared_l2_rows_f64_scalar(const double* a, const double* rows, std::size_t m,
                                std::size_t n, double* out) noexcept;
void axpy_f32_scalar(float alpha, const float* x, float* y, std::size_t n) noexcept;
void scale_f32_scalar(float alpha, const float* x, float* out, std::size_t n) noexcept;
void fused_step_scalar(float coeff, const float* src, float* tgt, float* grad,
                       std::size_t n) noexcept;
void min_u32_scalar(const std::uint32_t* h, std::uint32_t* sig, std::size_t n) noexcept;

#if defined(__x86_64__) || defined(__i386__)
float dot_f32_sse2(const float* a, const float* b, std::size_t n) noexcept;
double dot_f64_sse2(const double* a, const double* b, std::size_t n) noexcept;
float squared_l2_f32_sse2(const float* a, const float* b, std::size_t n) noexcept;
double squared_l2_f64_sse2(const double* a, const double* b, std::size_t n) noexcept;
void squared_l2_rows_f64_sse2(const double* a, const double* rows, std::size_t m,
                              std::size_t n, double* out) noexcept;
void axpy_f32_sse2(float alpha, const float* x, float* y, std::size_t n) noexcept;
void scale_f32_sse2(float alpha, const float* x, float* out, std::size_t n) noexcept;
void fused_step_sse2(float coeff, const float* src, float* tgt, float* grad,
                     std::size_t n) noexcept;
void min_u32_sse2(const std::uint32_t* h, std::uint32_t* sig, std::size_t n) noexcept;

float dot_f32_avx2(const float* a, const float* b, std::size_t n) noexcept;
double dot_f64_avx2(const double* a, const double* b, std::size_t n) noexcept;
float squared_l2_f32_avx2(const float* a, const float* b, std::size_t n) noexcept;
double squared_l2_f64_avx2(const double* a, const double* b, std::size_t n) noexcept;
void squared_l2_rows_f64_avx2(const double* a, const double* rows, std::size_t m,
                              std::size_t n, double* out) noexcept;
void axpy_f32_avx2(float alpha, const float* x, float* y, std::size_t n) noexcept;
void scale_f32_avx2(float alpha, const float* x, float* out, std::size_t n) noexcept;
void fused_step_avx2(float coeff, const float* src, float* tgt, float* grad,
                     std::size_t n) noexcept;
void min_u32_avx2(const std::uint32_t* h, std::uint32_t* sig, std::size_t n) noexcept;
#endif

}  // namespace detail

}  // namespace dnsembed::util::simd
