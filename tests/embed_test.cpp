// Tests for the embedding stack: alias sampling correctness, embedding
// matrix operations, and the semantic property that matters for the paper —
// vertices in the same dense community embed closer than vertices in
// different communities (LINE, DeepWalk, node2vec).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "embed/alias.hpp"
#include "embed/embedder.hpp"
#include "embed/embedding.hpp"
#include "embed/line.hpp"
#include "embed/sgns.hpp"
#include "embed/walks.hpp"
#include "graph_compare.hpp"
#include "util/rng.hpp"

namespace dnsembed::embed {
namespace {

TEST(Alias, MatchesInputDistribution) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  AliasTable table{weights};
  EXPECT_EQ(table.size(), 4u);
  util::Rng rng{42};
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[table.sample(rng)];
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(n), weights[i] / 10.0, 0.01) << "index " << i;
    EXPECT_NEAR(table.probability(i), weights[i] / 10.0, 1e-12);
  }
}

TEST(Alias, HandlesZeroWeightEntries) {
  AliasTable table{{0.0, 5.0, 0.0}};
  util::Rng rng{1};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(table.sample(rng), 1u);
  EXPECT_DOUBLE_EQ(table.probability(0), 0.0);
  EXPECT_DOUBLE_EQ(table.probability(1), 1.0);
}

TEST(Alias, HandlesSingleElement) {
  AliasTable table{{3.0}};
  util::Rng rng{1};
  EXPECT_EQ(table.sample(rng), 0u);
}

TEST(Alias, HighlySkewedDistribution) {
  AliasTable table{{1e-6, 1.0}};
  util::Rng rng{5};
  int zero = 0;
  for (int i = 0; i < 100000; ++i) {
    if (table.sample(rng) == 0) ++zero;
  }
  EXPECT_LT(zero, 20);
}

TEST(Alias, RejectsInvalidWeights) {
  EXPECT_THROW((AliasTable{std::vector<double>{}}), std::invalid_argument);
  EXPECT_THROW((AliasTable{std::vector<double>{0.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW((AliasTable{std::vector<double>{1.0, -1.0}}), std::invalid_argument);
}

/// Walker's construction as two growing vectors of indices and a separate
/// scaled-mass array: the form build_walker replaced with one in-place pass
/// and one worklist. `moves` counts large buckets that turned small and
/// `leftovers` the residue that got probability 1.
struct TwoStackWalker {
  std::vector<double> prob;
  std::vector<std::size_t> alias;
  std::size_t moves = 0;
  std::size_t leftovers = 0;
};

TwoStackWalker two_stack_walker(const std::vector<double>& weights) {
  double total = 0.0;
  for (const double w : weights) total += w;
  const std::size_t n = weights.size();
  TwoStackWalker out{std::vector<double>(n, 0.0), std::vector<std::size_t>(n, 0)};
  std::vector<double> scaled(n);
  std::vector<std::size_t> small;
  std::vector<std::size_t> large;
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] / total * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    small.pop_back();
    const std::size_t l = large.back();
    out.prob[s] = scaled[s];
    out.alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
      ++out.moves;
    }
  }
  for (const std::size_t i : small) out.prob[i] = 1.0;
  for (const std::size_t i : large) out.prob[i] = 1.0;
  out.leftovers = small.size() + large.size();
  return out;
}

TEST(Alias, InPlaceBuilderMatchesTwoStackConstruction) {
  struct Entry {
    double prob;
    std::uint32_t alias;
  };
  util::Rng rng{31};
  std::size_t moves = 0;
  for (const std::size_t n : {1u, 2u, 3u, 17u, 1000u, 4096u}) {
    for (int round = 0; round < 4; ++round) {
      std::vector<double> weights(n);
      for (auto& w : weights) w = std::pow(10.0, rng.uniform(-3.0, 3.0));
      if (round == 3 && n > 2) weights[n / 2] = 0.0;
      const auto want = two_stack_walker(weights);
      std::vector<Entry> entries;
      for (const double w : weights) entries.push_back({w, 7});
      double total = 0.0;
      for (const double w : weights) total += w;
      EXPECT_EQ(build_walker(std::span{entries}, &Entry::alias), total);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(entries[i].prob, want.prob[i]) << "n=" << n << " bucket " << i;
        EXPECT_EQ(entries[i].alias, want.alias[i]) << "n=" << n << " bucket " << i;
      }
      EXPECT_GE(want.leftovers, 1u) << "n=" << n;
      moves += want.moves;
    }
  }
  EXPECT_GT(moves, 1000u) << "the weights must move many buckets from large to small";
}

TEST(Embedding, RowAccessAndLookup) {
  EmbeddingMatrix m{{"a.com", "b.com"}, 3};
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.dimension(), 3u);
  m.row(0)[0] = 1.0f;
  m.row(1)[2] = 2.0f;
  EXPECT_EQ(m.index_of("a.com"), 0u);
  EXPECT_EQ(m.index_of("b.com"), 1u);
  EXPECT_FALSE(m.index_of("c.com").has_value());
  const auto v = m.vector_for("b.com");
  ASSERT_TRUE(v.has_value());
  EXPECT_FLOAT_EQ((*v)[2], 2.0f);
  EXPECT_THROW(m.row(5), std::out_of_range);
}

TEST(Embedding, RejectsDuplicateNamesAndZeroDim) {
  EXPECT_THROW((EmbeddingMatrix{{"a", "a"}, 2}), std::invalid_argument);
  EXPECT_THROW((EmbeddingMatrix{{"a"}, 0}), std::invalid_argument);
}

TEST(Embedding, L2NormalizePreservesZeroRows) {
  EmbeddingMatrix m{{"a", "zero"}, 2};
  m.row(0)[0] = 3.0f;
  m.row(0)[1] = 4.0f;
  m.l2_normalize();
  EXPECT_FLOAT_EQ(m.row(0)[0], 0.6f);
  EXPECT_FLOAT_EQ(m.row(0)[1], 0.8f);
  EXPECT_FLOAT_EQ(m.row(1)[0], 0.0f);
  EXPECT_FLOAT_EQ(m.row(1)[1], 0.0f);
}

TEST(Embedding, CosineSimilarity) {
  EmbeddingMatrix m{{"x", "y", "z", "zero"}, 2};
  m.row(0)[0] = 1.0f;                      // (1, 0)
  m.row(1)[0] = 2.0f;                      // (2, 0): parallel
  m.row(2)[1] = 5.0f;                      // (0, 5): orthogonal
  EXPECT_NEAR(m.cosine(0, 1), 1.0, 1e-6);
  EXPECT_NEAR(m.cosine(0, 2), 0.0, 1e-6);
  EXPECT_DOUBLE_EQ(m.cosine(0, 3), 0.0);  // zero vector
}

TEST(Embedding, ConcatByNameWithMissingRows) {
  EmbeddingMatrix a{{"d1", "d2"}, 2};
  a.row(0)[0] = 1.0f;
  a.row(1)[1] = 2.0f;
  EmbeddingMatrix b{{"d2", "d3"}, 1};
  b.row(0)[0] = 7.0f;

  const auto combined = EmbeddingMatrix::concat({"d1", "d2", "d3"}, {&a, &b});
  EXPECT_EQ(combined.dimension(), 3u);
  // d1: [1, 0 | 0] (absent from b).
  EXPECT_FLOAT_EQ(combined.row(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(combined.row(0)[2], 0.0f);
  // d2: [0, 2 | 7].
  EXPECT_FLOAT_EQ(combined.row(1)[1], 2.0f);
  EXPECT_FLOAT_EQ(combined.row(1)[2], 7.0f);
  // d3: [0, 0 | absent from a].
  EXPECT_FLOAT_EQ(combined.row(2)[0], 0.0f);
  EXPECT_THROW(EmbeddingMatrix::concat({"d"}, {}), std::invalid_argument);
}

TEST(Embedding, CsvRoundTrip) {
  EmbeddingMatrix m{{"a.com", "b.com"}, 2};
  m.row(0)[0] = 0.5f;
  m.row(0)[1] = -1.25f;
  m.row(1)[0] = 3.0f;
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnsembed_embed_test.csv").string();
  m.save_csv(path);
  const auto loaded = EmbeddingMatrix::load_csv(path);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.dimension(), 2u);
  EXPECT_FLOAT_EQ(loaded.row(0)[0], 0.5f);
  EXPECT_FLOAT_EQ(loaded.row(0)[1], -1.25f);
  EXPECT_FLOAT_EQ(loaded.row(1)[0], 3.0f);
  EXPECT_EQ(loaded.names()[0], "a.com");
  std::remove(path.c_str());
}

// Two dense communities bridged by a single weak edge, then `isolated`
// edgeless vertices. Any reasonable embedder must place intra-community
// pairs closer than inter-community pairs on average.
util::CsrGraph two_communities(std::size_t size_each,
                               const std::vector<std::string>& isolated = {}) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t i = 0; i < size_each; ++i) {
      names.push_back("c" + std::to_string(c) + "_" + std::to_string(i));
    }
  }
  names.insert(names.end(), isolated.begin(), isolated.end());
  std::vector<graph::Edge> edges;
  for (std::size_t c = 0; c < 2; ++c) {
    const auto base = static_cast<graph::VertexId>(c * size_each);
    for (std::size_t i = 0; i < size_each; ++i) {
      for (std::size_t j = i + 1; j < size_each; ++j) {
        edges.push_back({base + static_cast<graph::VertexId>(i),
                         base + static_cast<graph::VertexId>(j), 1.0});
      }
    }
  }
  edges.push_back({0, static_cast<graph::VertexId>(size_each), 0.05});  // weak bridge
  return graph::make_graph(names, edges);
}

struct SeparationResult {
  double intra = 0.0;
  double inter = 0.0;
};

SeparationResult community_separation(const EmbeddingMatrix& m, std::size_t size_each) {
  SeparationResult r;
  int intra_n = 0;
  int inter_n = 0;
  for (std::size_t i = 0; i < 2 * size_each; ++i) {
    for (std::size_t j = i + 1; j < 2 * size_each; ++j) {
      const bool same = (i < size_each) == (j < size_each);
      const double cos = m.cosine(i, j);
      if (same) {
        r.intra += cos;
        ++intra_n;
      } else {
        r.inter += cos;
        ++inter_n;
      }
    }
  }
  r.intra /= intra_n;
  r.inter /= inter_n;
  return r;
}

TEST(Line, SeparatesCommunities) {
  const auto g = two_communities(8);
  LineConfig config;
  config.dimension = 16;
  config.samples_per_edge = 400;
  config.seed = 7;
  const auto m = train_line(g, config);
  const auto sep = community_separation(m, 8);
  EXPECT_GT(sep.intra, sep.inter + 0.3)
      << "intra=" << sep.intra << " inter=" << sep.inter;
}

TEST(Line, FirstAndSecondOrderAloneAlsoSeparate) {
  const auto g = two_communities(8);
  for (const LineOrder order : {LineOrder::kFirst, LineOrder::kSecond}) {
    LineConfig config;
    config.dimension = 16;
    config.order = order;
    config.samples_per_edge = 400;
    config.seed = 11;
    const auto m = train_line(g, config);
    const auto sep = community_separation(m, 8);
    EXPECT_GT(sep.intra, sep.inter + 0.2) << "order=" << static_cast<int>(order);
  }
}

TEST(Line, DeterministicForFixedSeed) {
  const auto g = two_communities(4);
  LineConfig config;
  config.dimension = 8;
  config.samples_per_edge = 50;
  config.seed = 3;
  const auto a = train_line(g, config);
  const auto b = train_line(g, config);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t d = 0; d < a.dimension(); ++d) {
      EXPECT_FLOAT_EQ(a.row(i)[d], b.row(i)[d]);
    }
  }
}

TEST(Line, IsolatedVerticesGetZeroVectors) {
  const auto g = two_communities(4, {"isolated.com"});
  LineConfig config;
  config.dimension = 8;
  config.samples_per_edge = 20;
  const auto m = train_line(g, config);
  const auto v = m.vector_for("isolated.com");
  ASSERT_TRUE(v.has_value());
  for (const float x : *v) EXPECT_FLOAT_EQ(x, 0.0f);
}

TEST(Line, NormalizedRowsHaveUnitNorm) {
  const auto g = two_communities(4);
  LineConfig config;
  config.dimension = 8;
  config.samples_per_edge = 50;
  const auto m = train_line(g, config);
  for (std::size_t i = 0; i < m.size(); ++i) {
    double norm2 = 0.0;
    for (const float x : m.row(i)) norm2 += static_cast<double>(x) * x;
    EXPECT_NEAR(norm2, 1.0, 1e-5);
  }
}

TEST(Line, EmptyAndEdgelessGraphs) {
  const util::CsrGraph empty;
  LineConfig config;
  config.dimension = 4;
  const auto m0 = train_line(empty, config);
  EXPECT_EQ(m0.size(), 0u);

  const auto edgeless = graph::make_graph({"a"}, {});
  const auto m1 = train_line(edgeless, config);
  EXPECT_EQ(m1.size(), 1u);
  for (const float x : m1.row(0)) EXPECT_FLOAT_EQ(x, 0.0f);
}

TEST(Line, RejectsBadConfig) {
  const auto g = two_communities(2);
  LineConfig config;
  config.dimension = 0;
  EXPECT_THROW(train_line(g, config), std::invalid_argument);
  config.dimension = 1;
  config.order = LineOrder::kBoth;
  EXPECT_THROW(train_line(g, config), std::invalid_argument);
  config.dimension = 8;
  config.initial_lr = 0.0;
  EXPECT_THROW(train_line(g, config), std::invalid_argument);
}

// The name predates single-lane LINE; the case checks separation at the
// default seed.
TEST(Line, MultithreadedTrainingStillSeparates) {
  const auto g = two_communities(8);
  LineConfig config;
  config.dimension = 16;
  config.samples_per_edge = 400;
  const auto m = train_line(g, config);
  const auto sep = community_separation(m, 8);
  EXPECT_GT(sep.intra, sep.inter + 0.3);
}

TEST(Walks, CoverAllNonIsolatedVertices) {
  const auto g = two_communities(5, {"isolated"});
  WalkConfig config;
  config.walks_per_vertex = 3;
  config.walk_length = 10;
  const auto walks = generate_walks(g, config);
  EXPECT_EQ(walks.size(), 3u * 10u);  // 10 non-isolated vertices
  for (const auto& walk : walks) {
    EXPECT_EQ(walk.size(), 10u);
    for (const auto v : walk) {
      EXPECT_NE(g.name(v), "isolated");
      // Every consecutive pair must be an edge.
    }
    for (std::size_t i = 1; i < walk.size(); ++i) {
      EXPECT_TRUE(g.has_edge(walk[i - 1], walk[i]));
    }
  }
}

TEST(Walks, BiasedWalksRespectParameters) {
  // Star graph: center 0, leaves 1..5. With huge p (never return), a walk
  // from a leaf must alternate leaf -> center -> different leaf.
  std::vector<std::string> names{"center"};
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 1; v <= 5; ++v) {
    names.push_back("leaf" + std::to_string(v));
    edges.push_back({0, v, 1.0});
  }
  const auto g = graph::make_graph(names, edges);
  WalkConfig config;
  config.walks_per_vertex = 5;
  config.walk_length = 9;
  config.p = 1e6;  // returning to the previous vertex is ~forbidden
  config.q = 1.0;
  const auto walks = generate_walks(g, config);
  int returns = 0;
  int opportunities = 0;
  for (const auto& walk : walks) {
    for (std::size_t i = 2; i < walk.size(); ++i) {
      // Return = revisiting walk[i-2] from walk[i-1]. Only count steps with
      // a real choice: from a degree-1 leaf the return is forced.
      if (walk[i - 2] != walk[i - 1] && g.degree(walk[i - 1]) > 1) {
        ++opportunities;
        if (walk[i] == walk[i - 2]) ++returns;
      }
    }
  }
  ASSERT_GT(opportunities, 100);
  // From the center, 1 of 5 neighbors is the previous leaf; with p=1e6 the
  // return probability collapses to ~0 (vs 20% unbiased).
  EXPECT_LT(static_cast<double>(returns) / opportunities, 0.02);
}

TEST(Walks, RejectsBadConfig) {
  const auto g = two_communities(2);
  WalkConfig config;
  config.walk_length = 0;
  EXPECT_THROW(generate_walks(g, config), std::invalid_argument);
  config.walk_length = 5;
  config.p = 0.0;
  EXPECT_THROW(generate_walks(g, config), std::invalid_argument);
}

TEST(Sgns, DeepWalkSeparatesCommunities) {
  const auto g = two_communities(8);
  WalkConfig walk;
  walk.walks_per_vertex = 20;
  walk.walk_length = 20;
  walk.seed = 5;
  SgnsConfig config;
  config.dimension = 16;
  config.epochs = 3;
  config.seed = 5;
  const auto m = train_sgns(g, generate_walks(g, walk), config);
  const auto sep = community_separation(m, 8);
  EXPECT_GT(sep.intra, sep.inter + 0.3);
}

TEST(Sgns, EmptyCorpusYieldsZeros) {
  const auto g = two_communities(2);
  SgnsConfig config;
  config.dimension = 4;
  const auto m = train_sgns(g, {}, config);
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (const float x : m.row(i)) EXPECT_FLOAT_EQ(x, 0.0f);
  }
}

TEST(Sgns, RejectsOutOfRangeWalks) {
  const auto g = two_communities(2);
  SgnsConfig config;
  config.dimension = 4;
  EXPECT_THROW(train_sgns(g, {{99}}, config), std::out_of_range);
}

TEST(Embedder, DispatchesAllMethods) {
  const auto g = two_communities(6);
  for (const EmbedMethod method :
       {EmbedMethod::kLine, EmbedMethod::kDeepWalk, EmbedMethod::kNode2Vec}) {
    EmbedConfig config;
    config.method = method;
    config.dimension = 12;
    config.seed = 9;
    config.line.samples_per_edge = 200;
    config.walk.walks_per_vertex = 10;
    config.walk.walk_length = 15;
    if (method == EmbedMethod::kNode2Vec) {
      config.walk.p = 0.5;
      config.walk.q = 2.0;
    }
    const auto m = embed_graph(g, config);
    EXPECT_EQ(m.size(), g.vertex_count());
    EXPECT_EQ(m.dimension(), 12u);
    const auto sep = community_separation(m, 6);
    EXPECT_GT(sep.intra, sep.inter) << "method " << static_cast<int>(method);
  }
}

}  // namespace
}  // namespace dnsembed::embed
