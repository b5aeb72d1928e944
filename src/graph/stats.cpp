#include "graph/stats.hpp"

namespace dnsembed::graph {

std::vector<bool> right_degree_keep_mask(const BipartiteGraph& g,
                                         const DegreePruneOptions& options) {
  const auto max_degree = static_cast<std::size_t>(
      options.max_left_fraction * static_cast<double>(g.left_count()));
  std::vector<bool> keep(g.right_count(), false);
  for (VertexId r = 0; r < g.right_count(); ++r) {
    const std::size_t d = g.right_degree(r);
    keep[r] = d >= options.min_left_degree && d <= max_degree;
  }
  return keep;
}

}  // namespace dnsembed::graph
