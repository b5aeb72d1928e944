// LINE: Large-scale Information Network Embedding (Tang et al., WWW'15),
// the embedder the paper applies to the three domain-similarity graphs
// (paper §5, Eq. 4-6).
//
// Implementation follows the reference design:
//  - first-order proximity: maximize sigma(u_i . u_j) over observed edges;
//  - second-order proximity: maximize sigma(u_i . c_j) with per-vertex
//    context vectors c;
//  - edges are drawn with probability proportional to their weight via an
//    alias table (edge sampling), so weighted graphs need no gradient
//    rescaling;
//  - negative vertices are drawn from deg^0.75 (negative sampling);
//  - SGD with linearly decaying learning rate;
//  - kBoth trains the two objectives independently and concatenates the
//    halves, as the LINE paper recommends.
#pragma once

#include <cstdint>

#include "embed/embedding.hpp"
#include "util/csr.hpp"

namespace dnsembed::embed {

enum class LineOrder { kFirst, kSecond, kBoth };

struct LineConfig {
  /// Total output dimension. kBoth splits it between the two objectives.
  std::size_t dimension = 128;
  LineOrder order = LineOrder::kBoth;

  /// SGD steps per objective = samples_per_edge * edge_count, unless
  /// total_samples overrides it (non-zero).
  std::size_t samples_per_edge = 300;
  std::size_t total_samples = 0;

  /// Negative samples per positive edge.
  std::size_t negatives = 5;

  double initial_lr = 0.025;
  /// LR decays linearly to initial_lr * min_lr_fraction.
  double min_lr_fraction = 1e-4;

  /// Exponent of the negative-sampling noise distribution over weighted
  /// vertex degrees (0.75 from word2vec/LINE).
  double noise_power = 0.75;

  std::uint64_t seed = 1;

  /// L2-normalize rows after training (LINE normalizes embeddings before
  /// feeding classifiers).
  bool normalize_output = true;
};

/// Train LINE on a weighted undirected CSR graph (typically the
/// projection's output, or memory-mapped from a csr-graph artifact). The
/// edge sampler is built from the adjacency's upper triangle
/// (CsrGraph::for_each_edge) and the noise distribution reads the
/// weighted-degree section, so no per-vertex allocations or re-parse
/// happen between artifact load and the first SGD step. Isolated vertices
/// receive a zero vector (nothing can be learned for them). Throws
/// std::invalid_argument for a zero dimension, a non-positive learning rate
/// or a kBoth dimension too small to split.
EmbeddingMatrix train_line(const util::CsrGraph& g, const LineConfig& config);

}  // namespace dnsembed::embed
