#include "embed/walks.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace dnsembed::embed {

namespace {

/// Sample a neighbor of v proportionally to edge weight.
std::uint32_t sample_neighbor(const util::CsrGraph& g, std::uint32_t v, util::Rng& rng) {
  const auto neighbors = g.neighbors(v);
  const auto weights = g.neighbor_weights(v);
  double u = rng.uniform() * g.weighted_degree(v);
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return neighbors[i];
  }
  return neighbors.back();
}

}  // namespace

std::vector<std::vector<std::uint32_t>> generate_walks(const util::CsrGraph& g,
                                                       const WalkConfig& config) {
  if (config.walk_length < 1) throw std::invalid_argument{"generate_walks: zero length"};
  if (config.p <= 0.0 || config.q <= 0.0) {
    throw std::invalid_argument{"generate_walks: p and q must be positive"};
  }
  util::Rng rng{config.seed};
  const bool biased = config.p != 1.0 || config.q != 1.0;
  const double inv_p = 1.0 / config.p;
  const double inv_q = 1.0 / config.q;
  const double max_bias = std::max({inv_p, 1.0, inv_q});

  std::vector<std::vector<std::uint32_t>> walks;
  walks.reserve(g.vertex_count() * config.walks_per_vertex);
  for (std::size_t round = 0; round < config.walks_per_vertex; ++round) {
    for (std::uint32_t start = 0; start < g.vertex_count(); ++start) {
      if (g.degree(start) == 0) continue;
      std::vector<std::uint32_t> walk;
      walk.reserve(config.walk_length);
      walk.push_back(start);
      std::uint32_t prev = start;
      while (walk.size() < config.walk_length) {
        const std::uint32_t cur = walk.back();
        std::uint32_t next = 0;
        if (!biased || walk.size() == 1 || g.degree(cur) == 1) {
          // Unbiased start, DeepWalk, or a forced move (degree-1 vertex):
          // the rejection loop below would spin ~1/bias times for the same
          // outcome.
          next = sample_neighbor(g, cur, rng);
        } else {
          // node2vec rejection sampling: propose by weight, accept with
          // probability bias(next) / max_bias.
          while (true) {
            next = sample_neighbor(g, cur, rng);
            double bias = inv_q;
            if (next == prev) {
              bias = inv_p;
            } else if (g.has_edge(next, prev)) {
              bias = 1.0;
            }
            if (rng.uniform() * max_bias < bias) break;
          }
        }
        prev = cur;
        walk.push_back(next);
      }
      walks.push_back(std::move(walk));
    }
  }
  return walks;
}

}  // namespace dnsembed::embed
