// Undirected weighted graph over named vertices — the output type of the
// one-mode projections (domain similarity graphs) and the input type of the
// graph embedders (LINE / DeepWalk / node2vec).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/interner.hpp"

namespace dnsembed::graph {

using VertexId = util::StringInterner::Id;

struct WeightedEdge {
  VertexId u = 0;
  VertexId v = 0;
  double weight = 0.0;

  friend bool operator==(const WeightedEdge&, const WeightedEdge&) = default;
};

struct Neighbor {
  VertexId id = 0;
  double weight = 0.0;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

class WeightedGraph {
 public:
  /// Intern a vertex without edges (isolated vertices are legal: a domain
  /// may have no similar peer yet still needs an embedding slot).
  VertexId add_vertex(std::string_view name);

  /// Add one undirected edge with weight > 0. Parallel edges and self-loops
  /// are rejected (the projection never produces them; catching them here
  /// protects the embedders' sampling distributions).
  void add_edge(std::string_view u, std::string_view v, double weight);
  void add_edge(VertexId u, VertexId v, double weight);

  /// add_edge without the parallel-edge scan, for builders that already
  /// guarantee uniqueness (the projection emits each pair exactly once).
  /// Self-loops and non-positive weights are still rejected.
  void add_edge_unchecked(VertexId u, VertexId v, double weight);

  /// Room for `edges` edges and for degrees[v] neighbors of each vertex v,
  /// so a builder that knows the final graph (the projection) adds its
  /// edges without regrowing a list.
  void reserve(std::span<const std::size_t> degrees, std::size_t edges);

  std::size_t vertex_count() const noexcept { return names_.size(); }
  std::size_t edge_count() const noexcept { return edges_.size(); }

  const util::StringInterner& names() const noexcept { return names_; }

  std::span<const WeightedEdge> edges() const noexcept { return edges_; }
  std::span<const Neighbor> neighbors(VertexId v) const;

  std::size_t degree(VertexId v) const { return neighbors(v).size(); }

  /// Sum of incident edge weights (used for LINE's negative-sampling noise
  /// distribution and for vertex importance).
  double weighted_degree(VertexId v) const;

  bool has_edge(VertexId u, VertexId v) const;

  /// Total edge weight.
  double total_weight() const noexcept { return total_weight_; }

 private:
  util::StringInterner names_;
  std::vector<std::vector<Neighbor>> adj_;
  std::vector<WeightedEdge> edges_;
  double total_weight_ = 0.0;
};

}  // namespace dnsembed::graph
