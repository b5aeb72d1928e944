#include "graph/bipartite.hpp"

#include <algorithm>
#include <stdexcept>

namespace dnsembed::graph {

VertexId BipartiteGraph::add_left(std::string_view name) {
  const VertexId id = left_names_.intern(name);
  if (id >= left_adj_.size()) left_adj_.resize(id + 1);
  return id;
}

VertexId BipartiteGraph::add_right(std::string_view name) {
  const VertexId id = right_names_.intern(name);
  if (id >= right_adj_.size()) right_adj_.resize(id + 1);
  return id;
}

void BipartiteGraph::add_edge(VertexId left, VertexId right) {
  if (left >= left_adj_.size() || right >= right_adj_.size()) {
    throw std::out_of_range{"BipartiteGraph::add_edge: unknown vertex id"};
  }
  finalized_ = false;
  // A repeat of a row's last entry is dropped here rather than at
  // finalize(): builders add the same interaction in runs.
  auto& row = left_adj_[left];
  if (!row.empty() && row.back() == right) return;
  row.push_back(right);
  right_adj_[right].push_back(left);
}

void BipartiteGraph::add_edge(std::string_view left, std::string_view right) {
  // Sequenced: the left name is interned before the right one.
  const VertexId l = add_left(left);
  add_edge(l, add_right(right));
}

void BipartiteGraph::finalize() {
  if (finalized_) return;
  edge_count_ = 0;
  const auto sort_unique = [](std::vector<VertexId>& adj) {
    if (!std::is_sorted(adj.begin(), adj.end())) std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
    adj.shrink_to_fit();
  };
  for (auto& adj : left_adj_) {
    sort_unique(adj);
    edge_count_ += adj.size();
  }
  for (auto& adj : right_adj_) sort_unique(adj);
  finalized_ = true;
}

void BipartiteGraph::ensure_finalized(const char* op) const {
  if (!finalized_) {
    throw std::logic_error{std::string{"BipartiteGraph: "} + op + " requires finalize()"};
  }
}

std::size_t BipartiteGraph::edge_count() const {
  ensure_finalized("edge_count");
  return edge_count_;
}

std::span<const VertexId> BipartiteGraph::left_neighbors(VertexId left) const {
  ensure_finalized("left_neighbors");
  if (left >= left_adj_.size()) throw std::out_of_range{"BipartiteGraph: bad left id"};
  return left_adj_[left];
}

std::span<const VertexId> BipartiteGraph::right_neighbors(VertexId right) const {
  ensure_finalized("right_neighbors");
  if (right >= right_adj_.size()) throw std::out_of_range{"BipartiteGraph: bad right id"};
  return right_adj_[right];
}

BipartiteGraph BipartiteGraph::filter_right(const std::vector<bool>& keep) const {
  ensure_finalized("filter_right");
  if (keep.size() != right_names_.size()) {
    throw std::invalid_argument{"BipartiteGraph::filter_right: keep mask size mismatch"};
  }
  // Copy the kept edges by id; each name is interned once, at the first
  // kept edge that touches it.
  constexpr VertexId kUnseen = ~VertexId{0};
  std::vector<VertexId> left_id(left_adj_.size(), kUnseen);
  BipartiteGraph out;
  for (VertexId r = 0; r < right_adj_.size(); ++r) {
    if (!keep[r] || right_adj_[r].empty()) continue;
    const VertexId out_r = out.add_right(right_names_.name(r));
    for (const VertexId l : right_adj_[r]) {
      if (left_id[l] == kUnseen) left_id[l] = out.add_left(left_names_.name(l));
      out.add_edge(left_id[l], out_r);
    }
  }
  out.finalize();
  return out;
}

}  // namespace dnsembed::graph
