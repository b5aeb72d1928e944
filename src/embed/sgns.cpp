#include "embed/sgns.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "embed/alias.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace dnsembed::embed {

namespace {

double fast_sigmoid(double x) noexcept {
  if (x >= 6.0) return 1.0;
  if (x <= -6.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

}  // namespace

EmbeddingMatrix train_sgns(const util::CsrGraph& g,
                           const std::vector<std::vector<std::uint32_t>>& walks,
                           const SgnsConfig& config) {
  if (config.dimension == 0) throw std::invalid_argument{"train_sgns: zero dimension"};
  if (config.window == 0) throw std::invalid_argument{"train_sgns: zero window"};

  EmbeddingMatrix out{g.names_copy(), config.dimension};
  const std::size_t n = g.vertex_count();
  if (n == 0) return out;

  // Corpus frequencies drive the noise distribution.
  std::vector<double> freq(n, 0.0);
  std::size_t corpus_tokens = 0;
  for (const auto& walk : walks) {
    for (const auto v : walk) {
      if (v >= n) throw std::out_of_range{"train_sgns: walk vertex out of range"};
      freq[v] += 1.0;
      ++corpus_tokens;
    }
  }
  if (corpus_tokens == 0) return out;  // empty corpus -> zero embeddings
  std::vector<double> noise(n);
  for (std::size_t v = 0; v < n; ++v) noise[v] = std::pow(freq[v], config.noise_power);
  const AliasTable noise_sampler{noise};

  const std::size_t dim = config.dimension;
  util::Rng rng{config.seed};
  std::vector<float> vertex(n * dim);
  std::vector<float> context(n * dim, 0.0f);
  for (auto& x : vertex) {
    x = static_cast<float>((rng.uniform() - 0.5) / static_cast<double>(dim));
  }

  const std::size_t total_positions = corpus_tokens * config.epochs;
  const double lr_floor = config.initial_lr * config.min_lr_fraction;
  std::size_t position = 0;
  std::vector<float> grad(dim);

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    for (const auto& walk : walks) {
      for (std::size_t center_idx = 0; center_idx < walk.size(); ++center_idx, ++position) {
        const double progress =
            static_cast<double>(position) / static_cast<double>(total_positions);
        const double lr = std::max(lr_floor, config.initial_lr * (1.0 - progress));
        const std::uint32_t center = walk[center_idx];
        const std::size_t window = 1 + rng.uniform_index(config.window);
        const std::size_t lo = center_idx >= window ? center_idx - window : 0;
        const std::size_t hi = std::min(walk.size(), center_idx + window + 1);
        float* const center_vec = vertex.data() + static_cast<std::size_t>(center) * dim;
        for (std::size_t ctx_idx = lo; ctx_idx < hi; ++ctx_idx) {
          if (ctx_idx == center_idx) continue;
          std::fill(grad.begin(), grad.end(), 0.0f);
          for (std::size_t k = 0; k <= config.negatives; ++k) {
            std::uint32_t target = 0;
            double label = 0.0;
            if (k == 0) {
              target = walk[ctx_idx];
              label = 1.0;
            } else {
              target = static_cast<std::uint32_t>(noise_sampler.sample(rng));
              if (target == walk[ctx_idx]) continue;
            }
            float* const tgt = context.data() + static_cast<std::size_t>(target) * dim;
            const double dot = util::simd::dot(center_vec, tgt, dim);
            const auto coeff = static_cast<float>((label - fast_sigmoid(dot)) * lr);
            util::simd::fused_sigmoid_step(coeff, center_vec, tgt, grad.data(), dim);
          }
          util::simd::axpy(1.0f, grad.data(), center_vec, dim);
        }
      }
    }
  }

  for (std::size_t v = 0; v < n; ++v) {
    if (freq[v] == 0.0) continue;  // never walked: stay zero
    auto dst = out.row(v);
    for (std::size_t d = 0; d < dim; ++d) dst[d] = vertex[v * dim + d];
  }
  if (config.normalize_output) out.l2_normalize();
  return out;
}

}  // namespace dnsembed::embed
