// Tests for util::FlatCounter invariants (growth, collisions, saturation,
// merge; graph/sketch counts with it) and for the row-wise projection
// engine: determinism of the threaded projection and of the CSR it builds
// against the single-threaded map-based reference, and rows emitted by both
// the dense scan and the sparse sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/bipartite.hpp"
#include "graph/projection.hpp"
#include "graph_compare.hpp"
#include "util/flat_counter.hpp"
#include "util/rng.hpp"

namespace dnsembed {
namespace {

// ---------------------------------------------------------------------
// FlatCounter

TEST(FlatCounter, StartsEmpty) {
  util::FlatCounter c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.capacity(), 0u);
  EXPECT_EQ(c.count(42), 0u);
}

TEST(FlatCounter, IncrementAndCount) {
  util::FlatCounter c;
  c.increment(7);
  c.increment(7);
  c.increment(9, 5);
  EXPECT_EQ(c.count(7), 2u);
  EXPECT_EQ(c.count(9), 5u);
  EXPECT_EQ(c.count(8), 0u);
  EXPECT_EQ(c.size(), 2u);
}

TEST(FlatCounter, KeyZeroIsAValidKey) {
  util::FlatCounter c;
  c.increment(0);
  c.increment(0);
  EXPECT_EQ(c.count(0), 2u);
  EXPECT_EQ(c.size(), 1u);
}

TEST(FlatCounter, GrowthPreservesAllCounts) {
  util::FlatCounter c;
  // Far past several doublings; keys chosen with colliding low bits to
  // exercise linear-probe runs (low 8 bits identical for every 256th key).
  constexpr std::uint64_t kKeys = 20'000;
  for (std::uint64_t k = 0; k < kKeys; ++k) c.increment(k << 8, static_cast<std::uint32_t>(k % 7 + 1));
  EXPECT_EQ(c.size(), kKeys);
  EXPECT_GE(c.capacity(), kKeys);
  // Power-of-two capacity.
  EXPECT_EQ(c.capacity() & (c.capacity() - 1), 0u);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(c.count(k << 8), k % 7 + 1) << "key " << (k << 8);
  }
}

TEST(FlatCounter, MatchesUnorderedMapOnRandomWorkload) {
  util::Rng rng{99};
  util::FlatCounter c;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t key = rng.uniform_index(5'000);  // heavy collisions
    c.increment(key);
    ++reference[key];
  }
  EXPECT_EQ(c.size(), reference.size());
  for (const auto& [key, count] : reference) ASSERT_EQ(c.count(key), count);
  // for_each visits exactly the reference entries.
  std::size_t visited = 0;
  c.for_each([&](std::uint64_t key, std::uint32_t count) {
    ++visited;
    ASSERT_EQ(reference.at(key), count);
  });
  EXPECT_EQ(visited, reference.size());
}

TEST(FlatCounter, CountSaturatesInsteadOfWrapping) {
  util::FlatCounter c;
  c.increment(1, util::FlatCounter::kMaxCount - 1);
  c.increment(1, 5);
  EXPECT_EQ(c.count(1), util::FlatCounter::kMaxCount);
  c.increment(1);
  EXPECT_EQ(c.count(1), util::FlatCounter::kMaxCount);
}

TEST(FlatCounter, MergeFromAddsAndSaturates) {
  util::FlatCounter a;
  util::FlatCounter b;
  a.increment(1, 10);
  a.increment(2, util::FlatCounter::kMaxCount);
  b.increment(1, 3);
  b.increment(2, 7);
  b.increment(3, 1);
  a.merge_from(b);
  EXPECT_EQ(a.count(1), 13u);
  EXPECT_EQ(a.count(2), util::FlatCounter::kMaxCount);
  EXPECT_EQ(a.count(3), 1u);
  EXPECT_EQ(a.size(), 3u);
  // b is untouched.
  EXPECT_EQ(b.count(1), 3u);
}

TEST(FlatCounter, ClearResets) {
  util::FlatCounter c;
  c.increment(5, 2);
  c.clear();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.count(5), 0u);
  c.increment(5);
  EXPECT_EQ(c.count(5), 1u);
}

TEST(FlatCounter, ReserveAvoidsRehash) {
  util::FlatCounter c{1'000};
  const std::size_t cap = c.capacity();
  EXPECT_GE(cap, 1'000u);
  for (std::uint64_t k = 0; k < 1'000; ++k) c.increment(k * 0x9e3779b9ull);
  EXPECT_EQ(c.capacity(), cap);
}

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

class ShardedProjectionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedProjectionProperty, IdenticalAcrossThreadCounts) {
  util::Rng rng{GetParam()};
  const std::size_t hosts = 10 + rng.uniform_index(60);
  const std::size_t domains = 10 + rng.uniform_index(120);
  const std::size_t edges = 50 + rng.uniform_index(2'000);
  const auto g = random_bipartite(hosts, domains, edges, GetParam() * 7919);
  expect_matches_reference(g, {});
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedProjectionProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ShardedProjection, OptionsStillFilterAtEveryThreadCount) {
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

TEST(ShardedProjection, MinSimilarityActuallyDropsEdges) {
  const auto g = random_bipartite(40, 80, 1'500, 13);
  graph::ProjectionOptions strict;
  strict.min_similarity = 0.5;
  strict.threads = 2;
  const auto all = graph::project_right(g);
  const auto filtered = graph::project_right(g, strict);
  EXPECT_LT(filtered.edge_count(), all.edge_count());
  for (const double w : filtered.edge_w()) EXPECT_GE(w, 0.5);
}

TEST(ShardedProjection, MaxPivotDegreeActuallySkipsHubs) {
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
    EXPECT_DOUBLE_EQ(sim.edge_w()[0], 2.0 / 4.0);  // inter 2, degrees 3+3
  }
}

TEST(ShardedProjection, DenseAndSparseRowsMatchReference) {
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
  for (const auto u : all.edge_u()) ++touched[u];
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

TEST(ShardedProjection, EmptyAndTinyGraphs) {
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
  EXPECT_DOUBLE_EQ(tiny_sim.edge_w()[0], 1.0);
}

}  // namespace
}  // namespace dnsembed
