// Degree statistics over bipartite graphs: the paper's domain-pruning
// rules.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/bipartite.hpp"

namespace dnsembed::graph {

/// The paper's pruning rules over a host/IP/minute x domain bipartite graph
/// (domains on the right): keep a domain iff
///   min_left_degree <= degree(domain) <= max_left_fraction * left_count.
/// Rule 1 (drop >50% of hosts) and rule 2 (drop single-host domains) are the
/// defaults; rule 3 (e2LD aggregation) happens upstream at log ingestion.
struct DegreePruneOptions {
  std::size_t min_left_degree = 2;
  double max_left_fraction = 0.5;
};

std::vector<bool> right_degree_keep_mask(const BipartiteGraph& g,
                                         const DegreePruneOptions& options = {});

}  // namespace dnsembed::graph
