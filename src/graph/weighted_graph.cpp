#include "graph/weighted_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace dnsembed::graph {

VertexId WeightedGraph::add_vertex(std::string_view name) {
  const VertexId id = names_.intern(name);
  if (id >= adj_.size()) adj_.resize(id + 1);
  return id;
}

void WeightedGraph::add_edge(std::string_view u, std::string_view v, double weight) {
  // Sequence the interning explicitly: ids must be assigned in argument
  // order regardless of the compiler's evaluation order.
  const VertexId uid = add_vertex(u);
  const VertexId vid = add_vertex(v);
  add_edge(uid, vid, weight);
}

void WeightedGraph::add_edge(VertexId u, VertexId v, double weight) {
  if (u >= names_.size() || v >= names_.size()) {
    throw std::out_of_range{"WeightedGraph::add_edge: unknown vertex id"};
  }
  if (u == v) throw std::invalid_argument{"WeightedGraph::add_edge: self-loop"};
  if (weight <= 0.0) throw std::invalid_argument{"WeightedGraph::add_edge: non-positive weight"};
  if (has_edge(u, v)) throw std::invalid_argument{"WeightedGraph::add_edge: parallel edge"};
  add_edge_unchecked(u, v, weight);
}

void WeightedGraph::add_edge_unchecked(VertexId u, VertexId v, double weight) {
  if (u >= names_.size() || v >= names_.size()) {
    throw std::out_of_range{"WeightedGraph::add_edge: unknown vertex id"};
  }
  if (u == v) throw std::invalid_argument{"WeightedGraph::add_edge: self-loop"};
  if (weight <= 0.0) throw std::invalid_argument{"WeightedGraph::add_edge: non-positive weight"};
  adj_[u].push_back(Neighbor{v, weight});
  adj_[v].push_back(Neighbor{u, weight});
  edges_.push_back(WeightedEdge{u, v, weight});
  total_weight_ += weight;
}

void WeightedGraph::reserve(std::span<const std::size_t> degrees, std::size_t edges) {
  if (degrees.size() > adj_.size()) {
    throw std::out_of_range{"WeightedGraph::reserve: more degrees than vertices"};
  }
  for (std::size_t v = 0; v < degrees.size(); ++v) adj_[v].reserve(degrees[v]);
  edges_.reserve(edges);
}

std::span<const Neighbor> WeightedGraph::neighbors(VertexId v) const {
  if (v >= adj_.size()) throw std::out_of_range{"WeightedGraph::neighbors: bad id"};
  return adj_[v];
}

double WeightedGraph::weighted_degree(VertexId v) const {
  double sum = 0.0;
  for (const Neighbor& n : neighbors(v)) sum += n.weight;
  return sum;
}

bool WeightedGraph::has_edge(VertexId u, VertexId v) const {
  if (u >= adj_.size() || v >= adj_.size()) return false;
  const auto& a = adj_[u].size() <= adj_[v].size() ? adj_[u] : adj_[v];
  const VertexId other = adj_[u].size() <= adj_[v].size() ? v : u;
  return std::any_of(a.begin(), a.end(),
                     [other](const Neighbor& n) { return n.id == other; });
}

}  // namespace dnsembed::graph
