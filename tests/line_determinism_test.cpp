// LINE against a plain reference trainer. The shipped trainer runs one
// batch-synchronous lane with a preallocated delta arena, a packed edge
// sampler built in place and each step's edge bucket drawn several steps
// ahead; the reference below is the same algorithm written plainly — every
// draw made when its step runs, through AliasTable::sample, and push_back'd
// deltas applied at each barrier. The two must agree bit for bit across
// orders, dimensions that reach every SIMD remainder path and the
// fixed-width step loop (dim 24 trains two 12-float halves under kBoth),
// sample budgets around the draw-ahead distance and the batch edges, a
// graph whose weights span six decades, and a graph with an isolated
// vertex, on every SIMD rung the CPU supports (the trainer has one step
// loop per rung, each inlining that rung's kernels).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "embed/alias.hpp"
#include "embed/embedding.hpp"
#include "embed/line.hpp"
#include "graph_compare.hpp"
#include "util/csr.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace dnsembed::embed {
namespace {

/// `communities` weighted cliques joined by weak bridges, then
/// `isolated` edgeless vertices.
util::CsrGraph community_graph(std::size_t communities, std::size_t size_each,
                               const std::vector<std::string>& isolated = {}) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < communities; ++c) {
    for (std::size_t i = 0; i < size_each; ++i) {
      names.push_back("c" + std::to_string(c) + "_" + std::to_string(i));
    }
  }
  names.insert(names.end(), isolated.begin(), isolated.end());
  std::vector<graph::Edge> edges;
  for (std::size_t c = 0; c < communities; ++c) {
    const auto base = static_cast<graph::VertexId>(c * size_each);
    for (std::size_t i = 0; i < size_each; ++i) {
      for (std::size_t j = i + 1; j < size_each; ++j) {
        edges.push_back({base + static_cast<graph::VertexId>(i),
                         base + static_cast<graph::VertexId>(j), 1.0 + 0.1 * (i + j)});
      }
    }
  }
  // Weak bridges so the graph is connected.
  for (std::size_t c = 1; c < communities; ++c) {
    edges.push_back({static_cast<graph::VertexId>((c - 1) * size_each),
                     static_cast<graph::VertexId>(c * size_each), 0.05});
  }
  return graph::make_graph(names, edges);
}

/// A random graph whose edge weights span 1e-3 to 1e3, log-uniformly: its
/// Walker build moves many buckets from the large stack to the small one
/// and ends with residue left on a stack.
util::CsrGraph wide_weight_graph(std::size_t vertices, double density, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<std::string> names;
  for (std::size_t i = 0; i < vertices; ++i) names.push_back("w" + std::to_string(i));
  std::vector<graph::Edge> edges;
  for (std::size_t i = 0; i < vertices; ++i) {
    for (std::size_t j = i + 1; j < vertices; ++j) {
      if (!rng.bernoulli(density)) continue;
      edges.push_back({static_cast<graph::VertexId>(i), static_cast<graph::VertexId>(j),
                       std::pow(10.0, rng.uniform(-3.0, 3.0))});
    }
  }
  return graph::make_graph(names, edges);
}

// ------------------------------------------------------------- reference

class Sigmoid {
 public:
  Sigmoid() {
    for (std::size_t i = 0; i < kSize; ++i) {
      const double x = (static_cast<double>(i) / (kSize - 1) * 2.0 - 1.0) * kBound;
      table_[i] = 1.0 / (1.0 + std::exp(-x));
    }
  }
  double operator()(double x) const {
    if (x >= kBound) return 1.0;
    if (x <= -kBound) return 0.0;
    return table_[static_cast<std::size_t>((x + kBound) / (2.0 * kBound) * (kSize - 1) + 0.5)];
  }

 private:
  static constexpr std::size_t kSize = 2048;
  static constexpr double kBound = 6.0;
  double table_[kSize];
};

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t sample_seed(std::uint64_t base, std::uint64_t step) {
  return mix64(base ^ mix64(step + 0x9e3779b97f4a7c15ULL));
}

std::vector<float> reference_order(const util::CsrGraph& g, const LineConfig& config,
                                   const std::vector<graph::Edge>& edges,
                                   const AliasTable& edge_sampler,
                                   const AliasTable& noise_sampler, std::size_t steps,
                                   std::size_t dim, bool second_order) {
  static const Sigmoid sigmoid;
  const std::size_t n = g.vertex_count();
  std::vector<float> vertex(n * dim);
  std::vector<float> context;
  util::Rng init{config.seed * 7919 + (second_order ? 1 : 0)};
  for (auto& x : vertex) {
    x = static_cast<float>((init.uniform() - 0.5) / static_cast<double>(dim));
  }
  if (second_order) context.assign(n * dim, 0.0f);

  const double lr_floor = config.initial_lr * config.min_lr_fraction;
  const std::uint64_t base_seed =
      config.seed ^ (second_order ? 0xA5A5A5A5ULL : 0x5A5A5A5AULL);
  const std::size_t batch = std::clamp<std::size_t>(n / 4, 64, 4096);
  const float* const tgt_base = second_order ? context.data() : vertex.data();
  std::vector<std::uint32_t> keys;
  std::vector<float> deltas;
  std::vector<float> grad(dim);

  for (std::size_t b0 = 0; b0 < steps; b0 += batch) {
    for (std::size_t step = b0; step < std::min(steps, b0 + batch); ++step) {
      util::Rng rng{sample_seed(base_seed, step)};
      const double progress = static_cast<double>(step) / static_cast<double>(steps);
      const double lr = std::max(lr_floor, config.initial_lr * (1.0 - progress));
      const std::size_t edge = edge_sampler.sample(rng);
      const bool flip = rng.bernoulli(0.5);
      const std::uint32_t src = flip ? edges[edge].v : edges[edge].u;
      const std::uint32_t dst = flip ? edges[edge].u : edges[edge].v;
      const float* const src_vec = vertex.data() + std::size_t{src} * dim;
      std::fill(grad.begin(), grad.end(), 0.0f);
      for (std::size_t k = 0; k <= config.negatives; ++k) {
        std::uint32_t target = dst;
        const double label = k == 0 ? 1.0 : 0.0;
        if (k > 0) {
          target = static_cast<std::uint32_t>(noise_sampler.sample(rng));
          if (target == dst || target == src) continue;
        }
        const float* const tgt_vec = tgt_base + std::size_t{target} * dim;
        const double dot = util::simd::dot(src_vec, tgt_vec, dim);
        const auto coeff = static_cast<float>((label - sigmoid(dot)) * lr);
        util::simd::axpy(coeff, tgt_vec, grad.data(), dim);
        keys.push_back((target << 1) | (second_order ? 1u : 0u));
        deltas.resize(deltas.size() + dim);
        util::simd::scale(coeff, src_vec, deltas.data() + deltas.size() - dim, dim);
      }
      keys.push_back(src << 1);
      deltas.insert(deltas.end(), grad.begin(), grad.end());
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      float* const row = ((keys[i] & 1u) ? context.data() : vertex.data()) +
                         std::size_t{keys[i] >> 1} * dim;
      util::simd::axpy(1.0f, deltas.data() + i * dim, row, dim);
    }
    keys.clear();
    deltas.clear();
  }
  return vertex;
}

EmbeddingMatrix reference_line(const util::CsrGraph& g, const LineConfig& config) {
  EmbeddingMatrix out{g.names_copy(), config.dimension};
  if (g.edge_count() == 0) return out;
  std::vector<double> noise(g.vertex_count());
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    noise[v] = std::pow(g.weighted_degree(static_cast<std::uint32_t>(v)), config.noise_power);
  }
  const auto edges = graph::edges_of(g);
  std::vector<double> weights;
  for (const auto& e : edges) weights.push_back(e.weight);
  const AliasTable edge_sampler{weights};
  const AliasTable noise_sampler{noise};
  const std::size_t steps = std::max<std::size_t>(
      1, config.total_samples != 0 ? config.total_samples
                                   : config.samples_per_edge * g.edge_count());

  const auto train = [&](std::size_t dim, bool second_order, std::size_t offset) {
    const auto block =
        reference_order(g, config, edges, edge_sampler, noise_sampler, steps, dim,
                        second_order);
    for (std::size_t v = 0; v < g.vertex_count(); ++v) {
      if (g.degree(static_cast<std::uint32_t>(v)) == 0) continue;
      std::copy_n(block.data() + v * dim, dim, out.row(v).data() + offset);
    }
  };
  if (config.order == LineOrder::kFirst) {
    train(config.dimension, false, 0);
  } else if (config.order == LineOrder::kSecond) {
    train(config.dimension, true, 0);
  } else {
    const std::size_t first = config.dimension / 2;
    train(first, false, 0);
    train(config.dimension - first, true, first);
  }
  if (config.normalize_output) out.l2_normalize();
  return out;
}

// ----------------------------------------------------------------- tests

/// Bitwise embedding comparison: float-exact, no tolerance.
void expect_bit_identical(const EmbeddingMatrix& a, const EmbeddingMatrix& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(a.dimension(), b.dimension()) << what;
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto ra = a.row(v);
    const auto rb = b.row(v);
    ASSERT_EQ(std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(float)), 0)
        << what << ": row " << v << " differs";
  }
}

const char* order_name(LineOrder order) {
  switch (order) {
    case LineOrder::kFirst: return "first";
    case LineOrder::kSecond: return "second";
    case LineOrder::kBoth: return "both";
  }
  return "?";
}

/// Forces util::simd dispatch to one rung for its lifetime, then restores
/// the rung that was active.
class RungGuard {
 public:
  explicit RungGuard(util::simd::Level level) : saved_{util::simd::active_level()} {
    util::simd::force_level(level);
  }
  ~RungGuard() { util::simd::force_level(saved_); }
  RungGuard(const RungGuard&) = delete;
  RungGuard& operator=(const RungGuard&) = delete;

 private:
  util::simd::Level saved_;
};

/// Compares the trainer with the reference on every rung the CPU supports.
/// The reference calls the dispatched kernels, so each of the trainer's
/// per-rung step loops is held to its own rung's kernels.
void expect_matches_reference_on_rung(const util::CsrGraph& g, const std::string& graph_name) {
  // 24, 25 and 30 vertices: batches of 64 steps.
  constexpr std::size_t kBatch = 64;
  for (const LineOrder order : {LineOrder::kFirst, LineOrder::kSecond, LineOrder::kBoth}) {
    for (const std::size_t dim : {8u, 12u, 13u, 24u, 128u}) {
      for (const std::size_t samples :
           {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9}, kBatch - 1,
            kBatch, kBatch + 1, 20 * kBatch + 3}) {
        LineConfig config;
        config.dimension = dim;
        config.order = order;
        config.total_samples = samples;
        config.seed = 1234 + samples;
        const std::string what = graph_name + " simd=" +
                                 util::simd::level_name(util::simd::active_level()) +
                                 " order=" + order_name(order) +
                                 " dim=" + std::to_string(dim) +
                                 " samples=" + std::to_string(samples);
        expect_bit_identical(reference_line(g, config), train_line(g, config), what);
      }
    }
  }
}

void expect_matches_reference(const util::CsrGraph& g, const std::string& graph_name) {
  for (const auto level : {util::simd::Level::kScalar, util::simd::Level::kAvx2}) {
    if (!util::simd::level_supported(level)) continue;
    const RungGuard rung{level};
    ASSERT_EQ(util::simd::active_level(), level);
    expect_matches_reference_on_rung(g, graph_name);
  }
}

TEST(LineDeterminism, MatchesReferenceTrainer) {
  expect_matches_reference(community_graph(3, 8), "communities");
}

TEST(LineDeterminism, MatchesReferenceTrainerOnWideWeights) {
  expect_matches_reference(wide_weight_graph(30, 0.4, 2718), "wide-weights");
}

TEST(LineDeterminism, MatchesReferenceTrainerWithIsolatedVertex) {
  const auto csr = community_graph(3, 8, {"isolated"});
  ASSERT_EQ(csr.degree(static_cast<std::uint32_t>(csr.vertex_count() - 1)), 0u);
  expect_matches_reference(csr, "isolated");
}

// The name predates single-lane LINE; the case checks plain repeatability.
TEST(LineDeterminism, RepeatedMultithreadedRunsAgree) {
  const auto g = community_graph(3, 8);
  LineConfig config;
  config.dimension = 16;
  config.samples_per_edge = 120;
  config.seed = 9;
  const auto a = train_line(g, config);
  const auto b = train_line(g, config);
  expect_bit_identical(a, b, "repeat");
}

TEST(LineDeterminism, SeedStillChangesTheEmbedding) {
  const auto g = community_graph(2, 6);
  LineConfig config;
  config.dimension = 8;
  config.samples_per_edge = 80;
  config.seed = 1;
  const auto a = train_line(g, config);
  config.seed = 2;
  const auto b = train_line(g, config);
  bool any_diff = false;
  for (std::size_t v = 0; v < a.size() && !any_diff; ++v) {
    const auto ra = a.row(v);
    const auto rb = b.row(v);
    any_diff = std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(float)) != 0;
  }
  EXPECT_TRUE(any_diff) << "different seeds must not collide bit-for-bit";
}

}  // namespace
}  // namespace dnsembed::embed
