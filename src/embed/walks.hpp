// Random-walk corpus generation over weighted graphs: uniform weighted
// walks (DeepWalk) and p/q-biased second-order walks (node2vec, via
// rejection sampling so no per-edge alias tables are materialized).
// Used by the embedding-method ablation (DESIGN.md).
#pragma once

#include <cstdint>
#include <vector>

#include "util/csr.hpp"

namespace dnsembed::embed {

struct WalkConfig {
  std::size_t walks_per_vertex = 10;
  std::size_t walk_length = 40;

  /// node2vec return parameter (bias 1/p toward revisiting the previous
  /// vertex) and in-out parameter (bias 1/q toward leaving the previous
  /// vertex's neighborhood). p = q = 1 degenerates to DeepWalk.
  double p = 1.0;
  double q = 1.0;

  std::uint64_t seed = 1;
};

/// Generate walks starting from every non-isolated vertex, in vertex order,
/// walks_per_vertex times. Each step draws a neighbor of the current row by
/// weight. Walks never include isolated vertices.
std::vector<std::vector<std::uint32_t>> generate_walks(const util::CsrGraph& g,
                                                       const WalkConfig& config);

}  // namespace dnsembed::embed
