// Tests for bipartite graphs, one-mode Jaccard projection, the weighted
// similarity graph (util::CsrGraph), pruning masks, and graph statistics.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/bipartite.hpp"
#include "graph/io.hpp"
#include "graph/projection.hpp"
#include "graph/stats.hpp"
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

/// The reference store: each side's names in first-seen order and the
/// distinct edges in a std::set.
struct SetBipartite {
  std::vector<std::string> left;
  std::vector<std::string> right;
  std::map<std::string, VertexId> left_id;
  std::map<std::string, VertexId> right_id;
  std::set<std::pair<VertexId, VertexId>> edges;  // (left, right)

  VertexId add_left(const std::string& name) {
    const auto [it, fresh] = left_id.try_emplace(name, static_cast<VertexId>(left.size()));
    if (fresh) left.push_back(name);
    return it->second;
  }
  VertexId add_right(const std::string& name) {
    const auto [it, fresh] = right_id.try_emplace(name, static_cast<VertexId>(right.size()));
    if (fresh) right.push_back(name);
    return it->second;
  }

  std::vector<std::vector<VertexId>> rows() const {
    std::vector<std::vector<VertexId>> out(left.size());
    for (const auto& [l, r] : edges) out[l].push_back(r);
    return out;
  }
  std::vector<std::vector<VertexId>> columns() const {
    std::vector<std::vector<VertexId>> out(right.size());
    for (const auto& [l, r] : edges) out[r].push_back(l);
    return out;
  }

  /// filter_right's contract: the kept edges re-added by name,
  /// right-major, in id order.
  SetBipartite filter_right(const std::vector<bool>& keep) const {
    SetBipartite out;
    const auto cols = columns();
    for (VertexId r = 0; r < right.size(); ++r) {
      if (!keep[r]) continue;
      for (const VertexId l : cols[r]) {
        out.edges.insert({out.add_left(left[l]), out.add_right(right[r])});
      }
    }
    return out;
  }

  /// The bipartite arena's numbering: lefts as they are, rights in first
  /// appearance of a left-major scan, edgeless rights last in id order.
  SetBipartite left_major() const {
    SetBipartite out;
    for (const auto& name : left) out.add_left(name);
    const auto by_left = rows();
    for (VertexId l = 0; l < left.size(); ++l) {
      for (const VertexId r : by_left[l]) out.edges.insert({l, out.add_right(right[r])});
    }
    for (const auto& name : right) out.add_right(name);
    return out;
  }
};

::testing::AssertionResult matches(const BipartiteGraph& g, const SetBipartite& ref) {
  if (g.left_names().names() != ref.left || g.right_names().names() != ref.right) {
    return ::testing::AssertionFailure() << "names or ids differ";
  }
  if (g.edge_count() != ref.edges.size()) {
    return ::testing::AssertionFailure()
           << "edge count " << g.edge_count() << " vs " << ref.edges.size();
  }
  const auto rows = ref.rows();
  for (VertexId l = 0; l < rows.size(); ++l) {
    const auto got = g.left_neighbors(l);
    if (!std::equal(got.begin(), got.end(), rows[l].begin(), rows[l].end())) {
      return ::testing::AssertionFailure() << "row of left " << l << " differs";
    }
  }
  const auto cols = ref.columns();
  for (VertexId r = 0; r < cols.size(); ++r) {
    const auto got = g.right_neighbors(r);
    if (!std::equal(got.begin(), got.end(), cols[r].begin(), cols[r].end())) {
      return ::testing::AssertionFailure() << "column of right " << r << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Bipartite, RandomizedAgainstSetReference) {
  std::mt19937 rng{20261019};
  const auto path =
      (std::filesystem::temp_directory_path() /
       ("dnsembed_bg_random_" + std::to_string(::getpid()) + ".bg"))
          .string();
  for (int round = 0; round < 24; ++round) {
    BipartiteGraph g;
    SetBipartite ref;
    const unsigned lefts = 1 + rng() % 40;
    const unsigned rights = 1 + rng() % 80;
    const auto left_name = [&] { return "h" + std::to_string(rng() % lefts); };
    const auto right_name = [&] { return "d" + std::to_string(rng() % rights) + ".test"; };
    std::pair<VertexId, VertexId> last{0, 0};
    const int ops = static_cast<int>(rng() % 1500);
    for (int op = 0; op < ops; ++op) {
      const unsigned kind = rng() % 100;
      if (kind < 6) {
        // A vertex without edges (it may gain some later), also after
        // finalize(), which keeps the graph finalized.
        const std::string name = kind % 2 ? left_name() : right_name();
        const VertexId id = kind % 2 ? g.add_left(name) : g.add_right(name);
        ASSERT_EQ(id, kind % 2 ? ref.add_left(name) : ref.add_right(name));
        if (g.finalized()) {
          ASSERT_TRUE(matches(g, ref)) << "round " << round;
        }
      } else if (kind < 30 && !ref.edges.empty()) {
        // A repeated edge: the last one (a run) or any earlier one.
        auto edge = last;
        if (kind >= 18) edge = *std::next(ref.edges.begin(), rng() % ref.edges.size());
        g.add_edge(edge.first, edge.second);
        last = edge;
      } else if (kind < 34) {
        // Finalize mid-build; the next edge un-finalizes.
        g.finalize();
        g.finalize();
        ASSERT_TRUE(matches(g, ref)) << "round " << round << " op " << op;
      } else {
        const std::string l = left_name();
        const std::string r = right_name();
        const bool was_finalized = g.finalized();
        g.add_edge(l, r);
        last = {ref.add_left(l), ref.add_right(r)};
        ref.edges.insert(last);
        if (was_finalized) {
          ASSERT_THROW(g.edge_count(), std::logic_error);
        }
      }
    }
    g.finalize();
    ASSERT_TRUE(matches(g, ref)) << "round " << round;

    std::vector<bool> keep(ref.right.size());
    for (std::size_t r = 0; r < keep.size(); ++r) keep[r] = rng() % 3 != 0;
    EXPECT_TRUE(matches(g.filter_right(keep), ref.filter_right(keep))) << "round " << round;

    save_bipartite_file(path, g);
    EXPECT_TRUE(matches(load_bipartite_file(path), ref.left_major())) << "round " << round;
  }
  std::filesystem::remove(path);
}

TEST(Bipartite, AssignRowsRejectsMalformedRows) {
  BipartiteGraph g;
  g.add_left("h1");
  g.add_left("h2");
  g.add_right("a.com");
  g.add_right("b.com");
  EXPECT_THROW(g.assign_rows({0, 1}, {0}), std::invalid_argument);        // too few offsets
  EXPECT_THROW(g.assign_rows({0, 2, 1}, {0, 1}), std::invalid_argument);  // ends short
  EXPECT_THROW(g.assign_rows({0, 2, 1}, {0}), std::invalid_argument);     // not monotone
  EXPECT_THROW(g.assign_rows({0, 1, 2}, {0, 2}), std::invalid_argument);  // id out of range
  EXPECT_THROW(g.assign_rows({0, 2, 2}, {1, 1}), std::invalid_argument);  // repeated id
  EXPECT_THROW(g.assign_rows({0, 2, 2}, {1, 0}), std::invalid_argument);  // descending
  EXPECT_FALSE(g.finalized());
  g.assign_rows({0, 2, 3}, {0, 1, 1});
  ASSERT_TRUE(g.finalized());
  EXPECT_EQ(g.edge_count(), 3u);
  const auto b = g.right_neighbors(1);
  EXPECT_EQ(std::vector<VertexId>(b.begin(), b.end()), (std::vector<VertexId>{0, 1}));
}

// The weighted similarity graph is the CSR arena: these cases pin the
// builder contract the projection and the embedders rely on.
TEST(WeightedGraphTest, BasicEdgesAndDegrees) {
  const auto g = make_graph({"a", "b", "c"}, {{0, 1, 0.5}, {0, 2, 0.25}});
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  const auto a = *find_vertex(g, "a");
  const auto b = *find_vertex(g, "b");
  const auto c = *find_vertex(g, "c");
  EXPECT_EQ(a, 0u);  // names keep their ids
  EXPECT_EQ(g.degree(a), 2u);
  EXPECT_DOUBLE_EQ(g.weighted_degree(a), 0.75);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_TRUE(g.has_edge(b, a));
  EXPECT_FALSE(g.has_edge(b, c));
}

TEST(WeightedGraphTest, RejectsInvalidEdges) {
  const std::vector<std::string> names{"a", "b"};
  EXPECT_THROW(make_graph(names, {{0, 0, 1.0}}), std::invalid_argument);   // self-loop
  EXPECT_THROW(make_graph(names, {{0, 1, 0.0}}), std::invalid_argument);   // zero weight
  EXPECT_THROW(make_graph(names, {{0, 1, -1.0}}), std::invalid_argument);  // negative
  EXPECT_THROW(make_graph(names, {{0, 9, 1.0}}), std::invalid_argument);   // unknown id
}

TEST(WeightedGraphTest, IsolatedVerticesAllowed) {
  const auto g = make_graph({"lonely"}, {});
  EXPECT_EQ(g.vertex_count(), 1u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 0.0);
}

TEST(Projection, JaccardWeightsMatchHandComputation) {
  const auto g = sample_hdbg();
  const auto sim = project_right(g);
  ASSERT_EQ(sim.vertex_count(), 3u);
  const auto a = *find_vertex(sim, "a.com");
  const auto b = *find_vertex(sim, "b.com");
  const auto c = *find_vertex(sim, "c.com");
  // H(a)={h1,h2}, H(b)={h1,h2,h3}, H(c)={h3,h4}.
  // qs(a,b) = 2/3, qs(b,c) = 1/4, qs(a,c) = 0 (no edge).
  ASSERT_TRUE(sim.has_edge(a, b));
  ASSERT_TRUE(sim.has_edge(b, c));
  EXPECT_FALSE(sim.has_edge(a, c));
  for (const auto& e : edges_of(sim)) {
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
  EXPECT_DOUBLE_EQ(edges_of(sim)[0].weight, 1.0);
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
  EXPECT_DOUBLE_EQ(edges_of(sim)[0].weight, 0.5);
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
  const auto weight_between = [&](const util::CsrGraph& sim, const char* x, const char* y) {
    const auto u = *find_vertex(sim, x);
    const auto row = sim.neighbors(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (sim.name(row[i]) == y) return sim.neighbor_weights(u)[i];
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
    EXPECT_DOUBLE_EQ(edges_of(sim)[0].weight, 1.0);
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
    return edges_of(sim).front().weight;
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
