// Shared assertion for the tests that pin an id-level bipartite path to the
// by-name one it replaced: two graphs are the same when each side names the
// same vertices under the same ids and every adjacency list matches.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/bipartite.hpp"

namespace dnsembed::graph {

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
