// Tests for the row-wise projection engine: determinism of the threaded
// projection and of the CSR it builds against the single-threaded map-based
// reference, its option filters (similarity floor, hub cap), and rows
// emitted by both the dense scan and the sparse sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/bipartite.hpp"
#include "graph/projection.hpp"
#include "graph_compare.hpp"
#include "util/rng.hpp"

namespace dnsembed {
namespace {

// ---------------------------------------------------------------------
// Threaded projection determinism vs. the map-based reference.

graph::BipartiteGraph random_bipartite(std::size_t hosts, std::size_t domains,
                                       std::size_t edges, std::uint64_t seed) {
  util::Rng rng{seed};
  graph::BipartiteGraph g;
  for (std::size_t e = 0; e < edges; ++e) {
    g.add_edge("h" + std::to_string(rng.uniform_index(hosts)),
               "d" + std::to_string(rng.uniform_index(domains)));
  }
  g.finalize();
  return g;
}

void expect_matches_reference(const graph::BipartiteGraph& g,
                              graph::ProjectionOptions options) {
  const auto reference = graph::project_right_reference(g, options);
  const auto want = graph::sorted_edges(reference);
  // The arena a build of the sorted reference edges gives: same rows,
  // degrees, names and edge order.
  const auto want_csr = graph::make_graph(reference.names_copy(), want);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    const auto sim = graph::project_right(g, options);
    EXPECT_EQ(sim.vertex_count(), reference.vertex_count());
    // Engine output is already sorted; must be edge-for-edge identical
    // (ids, order, and bit-exact weights) at every thread count.
    ASSERT_EQ(graph::edges_of(sim), want) << "threads=" << threads;
    ASSERT_EQ(sim.payload(), want_csr.payload()) << "threads=" << threads;
  }
}

class RowWiseProjectionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RowWiseProjectionProperty, IdenticalAcrossThreadCounts) {
  util::Rng rng{GetParam()};
  const std::size_t hosts = 10 + rng.uniform_index(60);
  const std::size_t domains = 10 + rng.uniform_index(120);
  const std::size_t edges = 50 + rng.uniform_index(2'000);
  const auto g = random_bipartite(hosts, domains, edges, GetParam() * 7919);
  expect_matches_reference(g, {});
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowWiseProjectionProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(RowWiseProjection, OptionsStillFilterAtEveryThreadCount) {
  const auto g = random_bipartite(40, 80, 1'500, 11);

  graph::ProjectionOptions min_sim;
  min_sim.min_similarity = 0.2;
  expect_matches_reference(g, min_sim);

  graph::ProjectionOptions capped;
  capped.max_pivot_degree = 10;
  expect_matches_reference(g, capped);

  graph::ProjectionOptions cosine;
  cosine.measure = graph::SimilarityMeasure::kCosine;
  cosine.min_similarity = 0.1;
  expect_matches_reference(g, cosine);

  graph::ProjectionOptions overlap;
  overlap.measure = graph::SimilarityMeasure::kOverlap;
  overlap.max_pivot_degree = 25;
  expect_matches_reference(g, overlap);
}

TEST(RowWiseProjection, MinSimilarityActuallyDropsEdges) {
  const auto g = random_bipartite(40, 80, 1'500, 13);
  graph::ProjectionOptions strict;
  strict.min_similarity = 0.5;
  strict.threads = 2;
  const auto all = graph::project_right(g);
  const auto filtered = graph::project_right(g, strict);
  EXPECT_LT(filtered.edge_count(), all.edge_count());
  for (const auto& e : graph::edges_of(filtered)) EXPECT_GE(e.weight, 0.5);
}

TEST(RowWiseProjection, MaxPivotDegreeActuallySkipsHubs) {
  graph::BipartiteGraph g;
  for (int d = 0; d < 20; ++d) g.add_edge("hub", "d" + std::to_string(d));
  g.add_edge("h1", "d0");
  g.add_edge("h1", "d1");
  g.add_edge("h2", "d0");
  g.add_edge("h2", "d1");
  g.finalize();
  graph::ProjectionOptions options;
  options.max_pivot_degree = 2;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    options.threads = threads;
    const auto sim = graph::project_right(g, options);
    ASSERT_EQ(sim.edge_count(), 1u);
    EXPECT_DOUBLE_EQ(graph::edges_of(sim)[0].weight, 2.0 / 4.0);  // inter 2, degrees 3+3
  }
}

TEST(RowWiseProjection, DenseAndSparseRowsMatchReference) {
  // Domains d0..d39 share ten hosts (dense rows: most later domains are
  // touched); d40..d199 get a few random hosts each (sparse rows).
  util::Rng rng{23};
  graph::BipartiteGraph g;
  for (int d = 0; d < 200; ++d) {
    const std::string domain = "d" + std::to_string(d);
    if (d < 40) {
      for (int h = 0; h < 10; ++h) g.add_edge("h" + std::to_string(h), domain);
    } else {
      for (int k = 0; k < 3; ++k) {
        g.add_edge("h" + std::to_string(10 + rng.uniform_index(90)), domain);
      }
    }
  }
  g.finalize();
  // The engine scans acc[u+1 .. n) when 8 * touched > n - u and sorts the
  // touched list otherwise; the graph must have rows of both kinds.
  const auto all = graph::project_right(g);
  std::vector<std::size_t> touched(g.right_count(), 0);
  for (const auto& e : graph::edges_of(all)) ++touched[e.u];
  std::size_t dense = 0;
  std::size_t sparse = 0;
  for (graph::VertexId u = 0; u < g.right_count(); ++u) {
    if (touched[u] == 0) continue;
    (8 * touched[u] > g.right_count() - u ? dense : sparse) += 1;
  }
  EXPECT_GT(dense, 0u);
  EXPECT_GT(sparse, 0u);

  expect_matches_reference(g, {});
  graph::ProjectionOptions strict;
  strict.min_similarity = 0.3;
  expect_matches_reference(g, strict);
}

TEST(RowWiseProjection, EmptyAndTinyGraphs) {
  graph::BipartiteGraph empty;
  empty.finalize();
  graph::ProjectionOptions eight;
  eight.threads = 8;
  const auto sim = graph::project_right(empty, eight);
  EXPECT_EQ(sim.vertex_count(), 0u);
  EXPECT_EQ(sim.edge_count(), 0u);

  graph::BipartiteGraph tiny;
  tiny.add_edge("h", "a");
  tiny.add_edge("h", "b");
  tiny.finalize();
  const auto tiny_sim = graph::project_right(tiny, eight);  // threads > pivots
  ASSERT_EQ(tiny_sim.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(graph::edges_of(tiny_sim)[0].weight, 1.0);
}

}  // namespace
}  // namespace dnsembed
