// Shared graph helpers for the tests. same_bipartite pins an id-level
// bipartite path to the by-name one it replaced: two graphs are the same
// when each side names the same vertices under the same ids and every
// adjacency list matches. The rest read and build similarity graphs
// (util::CsrGraph) edge by edge.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/bipartite.hpp"
#include "util/csr.hpp"

namespace dnsembed::graph {

/// One undirected similarity edge.
struct Edge {
  VertexId u = 0;
  VertexId v = 0;
  double weight = 0.0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// The graph's edge list: its upper triangle in (u, v) order.
inline std::vector<Edge> edges_of(const util::CsrGraph& g) {
  std::vector<Edge> out;
  g.for_each_edge([&](VertexId u, VertexId v, double w) { out.push_back({u, v, w}); });
  return out;
}

/// Edges sorted by (u, v).
inline std::vector<Edge> sorted_edges(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  return edges;
}

inline std::vector<Edge> sorted_edges(const util::CsrGraph& g) {
  return sorted_edges(edges_of(g));
}

/// A CSR over `names` with `edges` in the given order.
inline util::CsrGraph make_graph(const std::vector<std::string>& names,
                                 const std::vector<Edge>& edges) {
  std::vector<std::uint32_t> u;
  std::vector<std::uint32_t> v;
  std::vector<double> w;
  for (const Edge& e : edges) {
    u.push_back(e.u);
    v.push_back(e.v);
    w.push_back(e.weight);
  }
  return util::CsrGraph::build(names.size(), u, v, w, names);
}

/// The id of the vertex named `name`, if any.
inline std::optional<VertexId> find_vertex(const util::CsrGraph& g, std::string_view name) {
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.name(v) == name) return v;
  }
  return std::nullopt;
}

inline ::testing::AssertionResult same_bipartite(const BipartiteGraph& a,
                                                 const BipartiteGraph& b) {
  if (a.left_names().names() != b.left_names().names()) {
    return ::testing::AssertionFailure() << "left names or ids differ";
  }
  if (a.right_names().names() != b.right_names().names()) {
    return ::testing::AssertionFailure() << "right names or ids differ";
  }
  if (a.edge_count() != b.edge_count()) {
    return ::testing::AssertionFailure()
           << "edge counts differ: " << a.edge_count() << " vs " << b.edge_count();
  }
  for (VertexId l = 0; l < a.left_count(); ++l) {
    const auto x = a.left_neighbors(l);
    const auto y = b.left_neighbors(l);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) {
      return ::testing::AssertionFailure() << "row of left '" << a.left_names().name(l)
                                           << "' differs";
    }
  }
  for (VertexId r = 0; r < a.right_count(); ++r) {
    const auto x = a.right_neighbors(r);
    const auto y = b.right_neighbors(r);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) {
      return ::testing::AssertionFailure() << "column of right '" << a.right_names().name(r)
                                           << "' differs";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace dnsembed::graph
