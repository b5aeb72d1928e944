// Skip-gram with negative sampling (word2vec-style) over a random-walk
// corpus. Combined with embed/walks.hpp this yields DeepWalk (p=q=1) and
// node2vec embedders, the ablation baselines against LINE.
#pragma once

#include <cstdint>
#include <vector>

#include "embed/embedding.hpp"
#include "util/csr.hpp"

namespace dnsembed::embed {

struct SgnsConfig {
  std::size_t dimension = 128;
  /// Maximum context window; the effective window per center position is
  /// drawn uniformly from [1, window] as in word2vec.
  std::size_t window = 5;
  std::size_t negatives = 5;
  std::size_t epochs = 2;
  double initial_lr = 0.025;
  double min_lr_fraction = 1e-4;
  /// Noise distribution exponent over corpus frequencies.
  double noise_power = 0.75;
  std::uint64_t seed = 1;
  bool normalize_output = true;
};

/// Train skip-gram embeddings for the vertices of g from the given walks.
/// Vertices absent from every walk (isolated) get zero vectors.
EmbeddingMatrix train_sgns(const util::CsrGraph& g,
                           const std::vector<std::vector<std::uint32_t>>& walks,
                           const SgnsConfig& config);

}  // namespace dnsembed::embed
