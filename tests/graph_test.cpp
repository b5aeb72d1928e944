// Tests for bipartite graphs, one-mode Jaccard projection, weighted graphs,
// pruning masks, and graph statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "graph/bipartite.hpp"
#include "graph/projection.hpp"
#include "graph/stats.hpp"
#include "graph/weighted_graph.hpp"
#include "graph_compare.hpp"

namespace dnsembed::graph {
namespace {

// Small host-domain graph used across tests:
//   h1 -> {a, b}; h2 -> {a, b}; h3 -> {b, c}; h4 -> {c}
BipartiteGraph sample_hdbg() {
  BipartiteGraph g;
  g.add_edge("h1", "a.com");
  g.add_edge("h1", "b.com");
  g.add_edge("h2", "a.com");
  g.add_edge("h2", "b.com");
  g.add_edge("h3", "b.com");
  g.add_edge("h3", "c.com");
  g.add_edge("h4", "c.com");
  g.finalize();
  return g;
}

TEST(Bipartite, CountsAndDegrees) {
  const auto g = sample_hdbg();
  EXPECT_EQ(g.left_count(), 4u);
  EXPECT_EQ(g.right_count(), 3u);
  EXPECT_EQ(g.edge_count(), 7u);
  const auto a = *g.right_names().find("a.com");
  const auto b = *g.right_names().find("b.com");
  const auto c = *g.right_names().find("c.com");
  EXPECT_EQ(g.right_degree(a), 2u);
  EXPECT_EQ(g.right_degree(b), 3u);
  EXPECT_EQ(g.right_degree(c), 2u);
  const auto h1 = *g.left_names().find("h1");
  EXPECT_EQ(g.left_degree(h1), 2u);
}

TEST(Bipartite, DuplicateEdgesCollapse) {
  BipartiteGraph g;
  for (int i = 0; i < 5; ++i) g.add_edge("h", "d.com");
  g.finalize();
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.left_degree(0), 1u);
}

TEST(Bipartite, AccessorsRequireFinalize) {
  BipartiteGraph g;
  g.add_edge("h", "d.com");
  EXPECT_THROW(g.edge_count(), std::logic_error);
  EXPECT_THROW(g.left_neighbors(0), std::logic_error);
  g.finalize();
  EXPECT_NO_THROW(g.edge_count());
  // Adding an edge un-finalizes.
  g.add_edge("h2", "d.com");
  EXPECT_THROW(g.edge_count(), std::logic_error);
}

TEST(Bipartite, NeighborsSortedUnique) {
  BipartiteGraph g;
  g.add_edge("h", "z.com");
  g.add_edge("h", "a.com");
  g.add_edge("h", "z.com");
  g.finalize();
  const auto nb = g.left_neighbors(0);
  ASSERT_EQ(nb.size(), 2u);
  EXPECT_LT(nb[0], nb[1]);
}

TEST(Bipartite, FilterRightKeepsSelectedDomains) {
  const auto g = sample_hdbg();
  std::vector<bool> keep(g.right_count(), true);
  keep[*g.right_names().find("b.com")] = false;
  const auto filtered = g.filter_right(keep);
  EXPECT_EQ(filtered.right_count(), 2u);
  EXPECT_FALSE(filtered.right_names().find("b.com").has_value());
  // h1 still touches a.com; h4 still touches c.com.
  EXPECT_EQ(filtered.edge_count(), 4u);
  EXPECT_THROW(g.filter_right(std::vector<bool>(2, true)), std::invalid_argument);
}

/// The by-name restriction filter_right replaced: re-add every kept edge by
/// name, right-major.
BipartiteGraph filter_right_by_name(const BipartiteGraph& g, const std::vector<bool>& keep) {
  BipartiteGraph out;
  for (VertexId r = 0; r < g.right_count(); ++r) {
    if (!keep[r]) continue;
    for (const VertexId l : g.right_neighbors(r)) {
      out.add_edge(g.left_names().name(l), g.right_names().name(r));
    }
  }
  out.finalize();
  return out;
}

TEST(Bipartite, FilterRightMatchesByNameReAdd) {
  std::mt19937 rng{20261017};
  BipartiteGraph g;
  for (int i = 0; i < 3000; ++i) {
    g.add_edge("h" + std::to_string(rng() % 60), "d" + std::to_string(rng() % 400) + ".test");
  }
  g.add_right("isolated.test");  // kept but edgeless: dropped by both
  g.finalize();
  for (int round = 0; round < 4; ++round) {
    std::vector<bool> keep(g.right_count());
    for (std::size_t r = 0; r < keep.size(); ++r) keep[r] = rng() % 3 != 0;
    keep.back() = true;
    EXPECT_TRUE(same_bipartite(g.filter_right(keep), filter_right_by_name(g, keep)))
        << "round " << round;
  }
}

TEST(Bipartite, IdBuildMatchesNameBuild) {
  BipartiteGraph by_name;
  by_name.add_edge("h1", "a.com");
  by_name.add_edge("h2", "b.com");
  by_name.add_edge("h1", "b.com");
  by_name.finalize();
  BipartiteGraph by_id;
  const VertexId h1 = by_id.add_left("h1");
  const VertexId a = by_id.add_right("a.com");
  by_id.add_edge(h1, a);
  const VertexId h2 = by_id.add_left("h2");
  const VertexId b = by_id.add_right("b.com");
  by_id.add_edge(h2, b);
  by_id.add_edge(h1, b);
  by_id.add_edge(h1, b);  // duplicate collapses
  by_id.finalize();
  EXPECT_TRUE(same_bipartite(by_id, by_name));
  EXPECT_EQ(by_id.add_left("h2"), h2);  // interning is idempotent
  EXPECT_THROW(by_id.add_edge(h1, VertexId{7}), std::out_of_range);
}

TEST(Bipartite, OutOfRangeIdsThrow) {
  const auto g = sample_hdbg();
  EXPECT_THROW(g.left_neighbors(99), std::out_of_range);
  EXPECT_THROW(g.right_neighbors(99), std::out_of_range);
}

TEST(WeightedGraphTest, BasicEdgesAndDegrees) {
  WeightedGraph g;
  g.add_edge("a", "b", 0.5);
  g.add_edge("a", "c", 0.25);
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  const auto a = *g.names().find("a");
  const auto b = *g.names().find("b");
  const auto c = *g.names().find("c");
  EXPECT_EQ(a, 0u);  // interned in argument order
  EXPECT_EQ(g.degree(a), 2u);
  EXPECT_DOUBLE_EQ(g.weighted_degree(a), 0.75);
  EXPECT_DOUBLE_EQ(g.total_weight(), 0.75);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_FALSE(g.has_edge(b, c));
}

TEST(WeightedGraphTest, RejectsInvalidEdges) {
  WeightedGraph g;
  const auto a = g.add_vertex("a");
  const auto b = g.add_vertex("b");
  EXPECT_THROW(g.add_edge(a, a, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(a, b, 0.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(a, b, -1.0), std::invalid_argument);
  g.add_edge(a, b, 1.0);
  EXPECT_THROW(g.add_edge(a, b, 0.5), std::invalid_argument);  // parallel
  EXPECT_THROW(g.add_edge(a, VertexId{9}, 1.0), std::out_of_range);
}

TEST(WeightedGraphTest, IsolatedVerticesAllowed) {
  WeightedGraph g;
  g.add_vertex("lonely");
  EXPECT_EQ(g.vertex_count(), 1u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 0.0);
}

TEST(Projection, JaccardWeightsMatchHandComputation) {
  const auto g = sample_hdbg();
  const auto sim = project_right(g);
  ASSERT_EQ(sim.vertex_count(), 3u);
  const auto a = *sim.names().find("a.com");
  const auto b = *sim.names().find("b.com");
  const auto c = *sim.names().find("c.com");
  // H(a)={h1,h2}, H(b)={h1,h2,h3}, H(c)={h3,h4}.
  // qs(a,b) = 2/3, qs(b,c) = 1/4, qs(a,c) = 0 (no edge).
  ASSERT_TRUE(sim.has_edge(a, b));
  ASSERT_TRUE(sim.has_edge(b, c));
  EXPECT_FALSE(sim.has_edge(a, c));
  for (const auto& e : sim.edges()) {
    if ((e.u == a && e.v == b) || (e.u == b && e.v == a)) {
      EXPECT_NEAR(e.weight, 2.0 / 3.0, 1e-12);
    } else {
      EXPECT_NEAR(e.weight, 0.25, 1e-12);
    }
  }
}

TEST(Projection, IdenticalNeighborSetsGiveSimilarityOne) {
  BipartiteGraph g;
  g.add_edge("h1", "x.com");
  g.add_edge("h1", "y.com");
  g.add_edge("h2", "x.com");
  g.add_edge("h2", "y.com");
  g.finalize();
  const auto sim = project_right(g);
  ASSERT_EQ(sim.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(sim.edges()[0].weight, 1.0);
}

TEST(Projection, MinSimilarityDropsWeakEdges) {
  const auto g = sample_hdbg();
  ProjectionOptions options;
  options.min_similarity = 0.5;
  const auto sim = project_right(g, options);
  EXPECT_EQ(sim.edge_count(), 1u);  // only qs(a,b)=2/3 survives
}

TEST(Projection, MaxPivotDegreeSkipsHubs) {
  BipartiteGraph g;
  // Hub host queries everything; two quiet hosts query {x,y} jointly.
  for (const char* d : {"x.com", "y.com", "z.com", "w.com"}) g.add_edge("hub", d);
  g.add_edge("h1", "x.com");
  g.add_edge("h1", "y.com");
  g.add_edge("h2", "x.com");
  g.add_edge("h2", "y.com");
  g.finalize();
  ProjectionOptions options;
  options.max_pivot_degree = 2;
  const auto sim = project_right(g, options);
  // Only the pair (x, y) is counted (hub skipped); intersection 2 of
  // degrees 3 and 3 -> 2/4.
  ASSERT_EQ(sim.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(sim.edges()[0].weight, 0.5);
}

TEST(Projection, LeftProjectionCapturesSharedInterests) {
  const auto g = sample_hdbg();
  const auto hosts = project_left(g);
  const auto h1 = *hosts.names().find("h1");
  const auto h2 = *hosts.names().find("h2");
  const auto h4 = *hosts.names().find("h4");
  ASSERT_TRUE(hosts.has_edge(h1, h2));  // identical query sets
  EXPECT_FALSE(hosts.has_edge(h1, h4));
  for (const auto& e : hosts.edges()) {
    if ((e.u == h1 && e.v == h2) || (e.u == h2 && e.v == h1)) {
      EXPECT_DOUBLE_EQ(e.weight, 1.0);
    }
  }
}

TEST(Projection, EmptyGraphProjectsToEmpty) {
  BipartiteGraph g;
  g.finalize();
  const auto sim = project_right(g);
  EXPECT_EQ(sim.vertex_count(), 0u);
  EXPECT_EQ(sim.edge_count(), 0u);
}

TEST(Pruning, KeepMaskAppliesPaperRules) {
  BipartiteGraph g;
  // 10 hosts. "popular.com" queried by 6 (>50%), "rare.com" by 1,
  // "normal.com" by 3.
  for (int i = 0; i < 6; ++i) g.add_edge("h" + std::to_string(i), "popular.com");
  g.add_edge("h0", "rare.com");
  for (int i = 0; i < 3; ++i) g.add_edge("h" + std::to_string(i), "normal.com");
  for (int i = 6; i < 10; ++i) g.add_edge("h" + std::to_string(i), "normal.com2");
  g.finalize();
  ASSERT_EQ(g.left_count(), 10u);
  const auto keep = right_degree_keep_mask(g);
  EXPECT_FALSE(keep[*g.right_names().find("popular.com")]);  // > 50% of hosts
  EXPECT_FALSE(keep[*g.right_names().find("rare.com")]);     // single host
  EXPECT_TRUE(keep[*g.right_names().find("normal.com")]);
  EXPECT_TRUE(keep[*g.right_names().find("normal.com2")]);
}

TEST(Pruning, BoundaryAtExactlyHalf) {
  BipartiteGraph g;
  for (int i = 0; i < 4; ++i) g.add_edge("h" + std::to_string(i), "filler" + std::to_string(i));
  g.add_edge("h0", "half.com");
  g.add_edge("h1", "half.com");
  g.finalize();
  // 4 hosts; half.com has degree 2 == 50% -> kept (rule is "over 50%").
  const auto keep = right_degree_keep_mask(g);
  EXPECT_TRUE(keep[*g.right_names().find("half.com")]);
}


TEST(Projection, AlternativeSimilarityMeasures) {
  // H(a)={h1,h2}, H(b)={h1,h2,h3}: inter=2, |a|=2, |b|=3.
  const auto g = sample_hdbg();
  const auto weight_between = [&](const graph::WeightedGraph& sim, const char* x,
                                  const char* y) {
    const auto u = *sim.names().find(x);
    for (const auto& n : sim.neighbors(u)) {
      if (sim.names().name(n.id) == y) return n.weight;
    }
    return -1.0;
  };
  ProjectionOptions cosine;
  cosine.measure = SimilarityMeasure::kCosine;
  EXPECT_NEAR(weight_between(project_right(g, cosine), "a.com", "b.com"),
              2.0 / std::sqrt(6.0), 1e-12);
  ProjectionOptions overlap;
  overlap.measure = SimilarityMeasure::kOverlap;
  EXPECT_NEAR(weight_between(project_right(g, overlap), "a.com", "b.com"), 1.0, 1e-12);
}

TEST(Projection, MeasuresAgreeOnIdenticalSets) {
  BipartiteGraph g;
  g.add_edge("h1", "x.com");
  g.add_edge("h2", "x.com");
  g.add_edge("h1", "y.com");
  g.add_edge("h2", "y.com");
  g.finalize();
  for (const auto measure : {SimilarityMeasure::kJaccard, SimilarityMeasure::kCosine,
                             SimilarityMeasure::kOverlap}) {
    ProjectionOptions options;
    options.measure = measure;
    const auto sim = project_right(g, options);
    ASSERT_EQ(sim.edge_count(), 1u);
    EXPECT_DOUBLE_EQ(sim.edges()[0].weight, 1.0);
  }
}

TEST(Projection, OverlapDominatesJaccardDominatedByNothingAboveOne) {
  // For any pair: overlap >= cosine >= jaccard, all in (0, 1].
  BipartiteGraph g;
  for (int h = 0; h < 6; ++h) g.add_edge("h" + std::to_string(h), "big.com");
  g.add_edge("h0", "small.com");
  g.add_edge("h1", "small.com");
  g.finalize();
  const auto get = [&](SimilarityMeasure m) {
    ProjectionOptions o;
    o.measure = m;
    const auto sim = project_right(g, o);
    return sim.edges().front().weight;
  };
  const double j = get(SimilarityMeasure::kJaccard);
  const double c = get(SimilarityMeasure::kCosine);
  const double o = get(SimilarityMeasure::kOverlap);
  EXPECT_LT(j, c);
  EXPECT_LT(c, o);
  EXPECT_LE(o, 1.0);
  EXPECT_NEAR(j, 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(c, 2.0 / std::sqrt(12.0), 1e-12);
  EXPECT_NEAR(o, 1.0, 1e-12);
}

}  // namespace
}  // namespace dnsembed::graph
