#include "embed/line.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "embed/alias.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/simd.hpp"
#include "util/simd_kernels.hpp"

namespace dnsembed::embed {

namespace {

/// Precomputed sigmoid over [-kSigmoidBound, kSigmoidBound].
class SigmoidTable {
 public:
  SigmoidTable() {
    for (std::size_t i = 0; i < kSize; ++i) {
      const double x = (static_cast<double>(i) / (kSize - 1) * 2.0 - 1.0) * kBound;
      table_[i] = 1.0 / (1.0 + std::exp(-x));
    }
  }

  double operator()(double x) const noexcept {
    if (x >= kBound) return 1.0;
    if (x <= -kBound) return 0.0;
    const auto idx =
        static_cast<std::size_t>((x + kBound) / (2.0 * kBound) * (kSize - 1) + 0.5);
    return table_[idx];
  }

 private:
  static constexpr std::size_t kSize = 2048;
  static constexpr double kBound = 6.0;
  double table_[kSize];
};

const SigmoidTable& sigmoid() {
  static const SigmoidTable table;
  return table;
}

/// Murmur3-style 64-bit finalizer: full-avalanche mix for counter-based
/// per-sample seeds. SplitMix64 reseeding alone would hand adjacent step
/// indices overlapping state windows; the finalizer decorrelates them.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Seed for SGD step `step`: a pure function of (base seed, step index), so
/// a step's draws can be made ahead of its turn without changing them.
constexpr std::uint64_t sample_seed(std::uint64_t base, std::uint64_t step) noexcept {
  return mix64(base ^ mix64(step + 0x9e3779b97f4a7c15ULL));
}

/// One bucket of the edge sampler: the Walker coin of `embed/alias` plus the
/// endpoints of both edges the bucket can return. An edge draw reads this
/// one 32-byte entry — one cache line — instead of the alias table and two
/// endpoint arrays, which on a 700k-edge graph are three misses.
struct alignas(32) EdgeBucket {
  double prob;
  std::uint32_t u, v;              // the bucket's own edge
  std::uint32_t alias_u, alias_v;  // the edge taken when the coin fails
};
static_assert(sizeof(EdgeBucket) == 32);

/// Bucket i is edge i of the graph's edge list (CsrGraph::for_each_edge).
/// One walk packs the endpoints with the weight in `prob`; build_walker then
/// turns the weights into the Walker table in place, leaving each bucket's
/// alias index in `alias_u`, and a last pass resolves that index into the
/// alias edge's endpoints.
std::vector<EdgeBucket> pack_edge_sampler(const util::CsrGraph& g) {
  std::vector<EdgeBucket> packed;
  packed.reserve(g.edge_count());
  g.for_each_edge([&](std::uint32_t u, std::uint32_t v, double w) {
    packed.push_back({w, u, v, 0, 0});
  });
  build_walker(std::span{packed}, &EdgeBucket::alias_u);
  for (EdgeBucket& e : packed) {
    const EdgeBucket& alias = packed[e.alias_u];
    e.alias_u = alias.u;
    e.alias_v = alias.v;
  }
  return packed;
}

/// Everything run_sgd reads about the graph: the packed edge sampler and
/// the noise sampler over weighted degrees.
struct TrainContext {
  std::vector<EdgeBucket> edges;
  AliasTable noise_sampler;
  std::size_t vertex_count = 0;
  const LineConfig& config;
  std::size_t steps = 0;
};

/// Steps between drawing a step's edge bucket and training on it: enough
/// for the prefetch of a bucket entry to land before its step runs.
constexpr std::size_t kDrawAhead = 8;

/// A step's generator just after its first draw (the edge bucket).
struct PendingDraw {
  util::Rng rng;
  std::size_t bucket = 0;
};

/// The row width `run` trains at: its dimension 24 split between the two
/// objectives. run_sgd is compiled for it with the width as a constant, and
/// for any other width with the width read at run time.
constexpr std::size_t kFixedWidth = 12;

/// One SGD objective pass (first- or second-order) writing `dim`-wide rows
/// into `vertex` (and using `context` when second_order), on the float
/// kernels of one SIMD rung (a util::simd::kernels struct). kWidth is the
/// row width when it is fixed at compile time (then `width` equals it), or
/// 0 to read it from `width`.
///
/// Batch-synchronous: steps run in batches, and every step of a batch reads
/// the embedding as of the last barrier. A step emits its updates into the
/// batch's delta arena — key (vertex << 1) | is_context plus `dim` floats —
/// and the barrier applies the arena in emission order. Each step draws from
/// its own counter-based Rng (sample_seed), so step s + kDrawAhead's
/// generator is seeded, and its bucket drawn and prefetched, while step s
/// trains; every generator still makes the same draws in the same order.
template <typename Kernels, std::size_t kWidth>
void run_sgd(const TrainContext& ctx, std::vector<float>& vertex,
             std::vector<float>& context, std::size_t width, bool second_order) {
  const std::size_t dim = kWidth != 0 ? kWidth : width;
  const auto& config = ctx.config;
  const auto& edges = ctx.edges;
  const auto& noise = ctx.noise_sampler;
  const auto& sig = sigmoid();
  const std::size_t total = ctx.steps;
  const double lr_floor = config.initial_lr * config.min_lr_fraction;
  const std::uint64_t base_seed =
      config.seed ^ (second_order ? 0xA5A5A5A5ULL : 0x5A5A5A5AULL);
  const std::uint32_t target_tag = second_order ? 1u : 0u;

  // Published once per batch (hot-loop counters count into locals).
  static obs::Counter& samples_counter = obs::metrics().counter("embed.line.samples");

  // Updates within a batch read the last barrier's state, so per-row
  // staleness is roughly batch_size * (negatives + 2) / vertex_count
  // accumulated stale steps. Tying the batch to the vertex count keeps that
  // ratio constant: small dense test graphs take many cheap barriers while
  // big graphs amortize barriers over 4096-step batches.
  const std::size_t batch_size =
      std::min(total, std::clamp<std::size_t>(ctx.vertex_count / 4, 64, 4096));

  // A step emits at most one delta per target plus one for its source.
  const std::size_t slots = batch_size * (config.negatives + 2);
  std::vector<std::uint32_t> keys(slots);
  std::vector<float> deltas(slots * dim);
  // At a fixed width the gradient is a local array, so zeroing and copying
  // it are a few vector moves instead of memset and memcpy calls.
  std::array<float, std::max<std::size_t>(kWidth, 1)> fixed_grad{};
  std::vector<float> runtime_grad(kWidth != 0 ? 0 : dim);
  float* const grad = kWidth != 0 ? fixed_grad.data() : runtime_grad.data();
  const float* const tgt_base = second_order ? context.data() : vertex.data();

  PendingDraw ring[kDrawAhead];
  const auto draw_ahead = [&](std::size_t step) {
    PendingDraw& d = ring[step % kDrawAhead];
    d.rng.reseed(sample_seed(base_seed, step));
    d.bucket = d.rng.uniform_index(edges.size());
    __builtin_prefetch(&edges[d.bucket]);
  };
  for (std::size_t step = 0; step < std::min(total, kDrawAhead); ++step) draw_ahead(step);

  // One target's update: its dot with the source row, the gradient into
  // `grad` and the target's delta into the arena.
  std::size_t used = 0;
  const auto train_target = [&](const float* src_vec, std::uint32_t target, double label,
                                double lr) {
    const float* const tgt_vec = tgt_base + static_cast<std::size_t>(target) * dim;
    const double dot = Kernels::dot(src_vec, tgt_vec, dim);
    const auto coeff = static_cast<float>((label - sig(dot)) * lr);
    Kernels::axpy(coeff, tgt_vec, grad, dim);
    keys[used] = (target << 1) | target_tag;
    Kernels::scale(coeff, src_vec, deltas.data() + used * dim, dim);
    ++used;
  };

  OBS_SPAN(second_order ? "embed.line.worker.order2" : "embed.line.worker.order1");
  for (std::size_t b0 = 0; b0 < total; b0 += batch_size) {
    const std::size_t b1 = std::min(total, b0 + batch_size);
    used = 0;
    for (std::size_t step = b0; step < b1; ++step) {
      util::Rng rng = ring[step % kDrawAhead].rng;
      const EdgeBucket& e = edges[ring[step % kDrawAhead].bucket];
      if (step + kDrawAhead < total) draw_ahead(step + kDrawAhead);
      const double progress = static_cast<double>(step) / static_cast<double>(total);
      const double lr = std::max(lr_floor, config.initial_lr * (1.0 - progress));

      // The edge coin and the random orientation (the graph is undirected,
      // LINE's updates are not) are unpredictable, so they pick endpoints
      // through all-ones-or-zero masks. The empty asm hides the masks'
      // range from GCC, which would otherwise turn the selects back into
      // branches.
      std::uint32_t own = 0 - static_cast<std::uint32_t>(rng.uniform() < e.prob);
      std::uint32_t flip = 0 - static_cast<std::uint32_t>(rng.bernoulli(0.5));
      asm("" : "+r"(own), "+r"(flip));
      const std::uint32_t u = e.alias_u ^ ((e.u ^ e.alias_u) & own);
      const std::uint32_t v = e.alias_v ^ ((e.v ^ e.alias_v) & own);
      const std::uint32_t swap = (u ^ v) & flip;
      const std::uint32_t src = u ^ swap;
      const std::uint32_t dst = v ^ swap;

      const float* const src_vec = vertex.data() + static_cast<std::size_t>(src) * dim;
      std::fill_n(grad, dim, 0.0f);
      train_target(src_vec, dst, 1.0, lr);
      for (std::size_t k = 0; k < config.negatives; ++k) {
        const auto target = static_cast<std::uint32_t>(noise.sample(rng));
        if (target == dst || target == src) continue;
        train_target(src_vec, target, 0.0, lr);
      }
      keys[used] = src << 1;
      std::copy_n(grad, dim, deltas.data() + used * dim);
      ++used;
    }
    samples_counter.add(b1 - b0);

    // Barrier: apply the batch's deltas in emission order.
    for (std::size_t i = 0; i < used; ++i) {
      float* const row = ((keys[i] & 1u) ? context.data() : vertex.data()) +
                         static_cast<std::size_t>(keys[i] >> 1) * dim;
      Kernels::axpy(1.0f, deltas.data() + i * dim, row, dim);
    }
  }
}

/// run_sgd at kFixedWidth when `dim` is it, else at the run-time width.
template <typename Kernels>
void run_sgd_any_width(const TrainContext& ctx, std::vector<float>& vertex,
                       std::vector<float>& context, std::size_t dim, bool second_order) {
  if (dim == kFixedWidth) {
    run_sgd<Kernels, kFixedWidth>(ctx, vertex, context, dim, second_order);
  } else {
    run_sgd<Kernels, 0>(ctx, vertex, context, dim, second_order);
  }
}

// One entry point per rung. flatten inlines run_sgd and, under the rung's
// target, its kernels into one loop with no dispatched call per step;
// always_inline on the kernels instead is rejected by GCC (target specific
// option mismatch). line.cpp is compiled with -ffp-contract=off, so the
// AVX2+FMA instantiation rounds every mul+add as the dispatched kernels and
// the sigmoid index do, and each rung matches its own dispatched path bit
// for bit.
using SgdLoop = void (*)(const TrainContext&, std::vector<float>&, std::vector<float>&,
                         std::size_t, bool);

__attribute__((flatten)) void run_sgd_scalar(const TrainContext& ctx,
                                             std::vector<float>& vertex,
                                             std::vector<float>& context, std::size_t dim,
                                             bool second_order) {
  run_sgd_any_width<util::simd::kernels::Scalar>(ctx, vertex, context, dim, second_order);
}

#ifdef DNSEMBED_SIMD_X86
__attribute__((flatten, target("sse2"))) void run_sgd_sse2(const TrainContext& ctx,
                                                           std::vector<float>& vertex,
                                                           std::vector<float>& context,
                                                           std::size_t dim, bool second_order) {
  run_sgd_any_width<util::simd::kernels::Sse2>(ctx, vertex, context, dim, second_order);
}

__attribute__((flatten, target("avx2,fma"))) void run_sgd_avx2(const TrainContext& ctx,
                                                               std::vector<float>& vertex,
                                                               std::vector<float>& context,
                                                               std::size_t dim,
                                                               bool second_order) {
  run_sgd_any_width<util::simd::kernels::Avx2>(ctx, vertex, context, dim, second_order);
}
#endif

/// The step loop of the rung util::simd dispatches to, so
/// DNSEMBED_FORCE_SCALAR and force_level select it too.
SgdLoop sgd_loop_for(util::simd::Level level) noexcept {
#ifdef DNSEMBED_SIMD_X86
  if (level == util::simd::Level::kAvx2) return run_sgd_avx2;
  if (level == util::simd::Level::kSse2) return run_sgd_sse2;
#endif
  (void)level;
  return run_sgd_scalar;
}

/// Train one objective and return the raw (unnormalized) embedding block.
std::vector<float> train_order(const TrainContext& ctx, std::size_t dim, bool second_order) {
  const std::size_t n = ctx.vertex_count;
  std::vector<float> vertex(n * dim);
  std::vector<float> context;
  util::Rng rng{ctx.config.seed * 7919 + (second_order ? 1 : 0)};
  for (auto& x : vertex) {
    x = static_cast<float>((rng.uniform() - 0.5) / static_cast<double>(dim));
  }
  if (second_order) context.assign(n * dim, 0.0f);  // word2vec-style zero init
  sgd_loop_for(util::simd::active_level())(ctx, vertex, context, dim, second_order);
  return vertex;
}

}  // namespace

EmbeddingMatrix train_line(const util::CsrGraph& g, const LineConfig& config) {
  OBS_SPAN("embed.line.train");
  if (config.dimension == 0) throw std::invalid_argument{"train_line: zero dimension"};
  if (config.order == LineOrder::kBoth && config.dimension < 2) {
    throw std::invalid_argument{"train_line: dimension too small to split"};
  }
  if (config.initial_lr <= 0.0) throw std::invalid_argument{"train_line: non-positive lr"};

  EmbeddingMatrix out{g.names_copy(), config.dimension};
  if (g.vertex_count() == 0) return out;
  if (g.edge_count() == 0) return out;  // all isolated -> all-zero rows

  // Samplers shared by both objectives: edges from the adjacency's upper
  // triangle, noise degrees from the weighted-degree section.
  std::vector<double> noise(g.vertex_count());
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    noise[v] = std::pow(g.weighted_degree(static_cast<std::uint32_t>(v)),
                        config.noise_power);
  }
  TrainContext ctx{pack_edge_sampler(g), AliasTable{noise}, g.vertex_count(), config, 0};
  ctx.steps = config.total_samples != 0 ? config.total_samples
                                        : config.samples_per_edge * g.edge_count();
  ctx.steps = std::max<std::size_t>(ctx.steps, 1);

  const auto write_block = [&](const std::vector<float>& block, std::size_t dim,
                               std::size_t offset) {
    for (std::size_t v = 0; v < g.vertex_count(); ++v) {
      auto dst = out.row(v);
      if (g.degree(static_cast<std::uint32_t>(v)) == 0) continue;  // keep zeros
      for (std::size_t d = 0; d < dim; ++d) dst[offset + d] = block[v * dim + d];
    }
  };

  if (config.order == LineOrder::kFirst) {
    write_block(train_order(ctx, config.dimension, false), config.dimension, 0);
  } else if (config.order == LineOrder::kSecond) {
    write_block(train_order(ctx, config.dimension, true), config.dimension, 0);
  } else {
    const std::size_t first_dim = config.dimension / 2;
    const std::size_t second_dim = config.dimension - first_dim;
    write_block(train_order(ctx, first_dim, false), first_dim, 0);
    write_block(train_order(ctx, second_dim, true), second_dim, first_dim);
  }
  if (config.normalize_output) out.l2_normalize();
  return out;
}

}  // namespace dnsembed::embed
