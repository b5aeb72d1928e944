// Tests for graph edge-list persistence and the bipartite arena.
#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "graph/io.hpp"
#include "graph_compare.hpp"
#include "util/artifact.hpp"
#include "util/csv.hpp"
#include "util/fsio.hpp"

namespace dnsembed::graph {
namespace {

TEST(GraphIo, BipartiteRoundTrip) {
  BipartiteGraph g;
  g.add_edge("h1", "a.com");
  g.add_edge("h1", "b.com");
  g.add_edge("h2", "a.com");
  g.finalize();

  std::stringstream stream;
  save_bipartite_csv(stream, g);
  const auto loaded = load_bipartite_csv(stream);
  EXPECT_EQ(loaded.left_count(), 2u);
  EXPECT_EQ(loaded.right_count(), 2u);
  EXPECT_EQ(loaded.edge_count(), 3u);
  const auto h1 = *loaded.left_names().find("h1");
  EXPECT_EQ(loaded.left_degree(h1), 2u);
}

TEST(GraphIo, BipartiteRejectsMalformed) {
  std::stringstream bad{"left,right\nonly-one-field\n"};
  EXPECT_THROW(load_bipartite_csv(bad), std::runtime_error);
  std::stringstream empty_field{"left,right\nx,\n"};
  EXPECT_THROW(load_bipartite_csv(empty_field), std::runtime_error);
}

TEST(GraphIo, WeightedRoundTripWithIsolatedVertices) {
  const auto g = make_graph({"a.com", "b.com", "c.com", "lonely.net"},
                            {{0, 1, 0.5}, {0, 2, 0.125}});

  // Edges in edge order, then the isolated vertices.
  std::stringstream stream;
  save_weighted_csv(stream, g);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(stream, line)) rows.push_back(util::parse_csv_line(line));
  const std::vector<std::vector<std::string>> want{{"u", "v", "weight"},
                                                   {"a.com", "b.com", std::to_string(0.5)},
                                                   {"a.com", "c.com", std::to_string(0.125)},
                                                   {"lonely.net", "", ""}};
  EXPECT_EQ(rows, want);
}

TEST(GraphIo, EmptyGraphsRoundTrip) {
  BipartiteGraph bg;
  bg.finalize();
  std::stringstream s1;
  save_bipartite_csv(s1, bg);
  EXPECT_EQ(load_bipartite_csv(s1).edge_count(), 0u);

  std::stringstream s2;
  save_weighted_csv(s2, make_graph({}, {}));
  EXPECT_EQ(s2.str(), "u,v,weight\n");
}

BipartiteGraph csv_round_trip(const BipartiteGraph& g) {
  std::stringstream stream;
  save_bipartite_csv(stream, g);
  return load_bipartite_csv(stream);
}

BipartiteGraph arena_round_trip(const BipartiteGraph& g, const std::string& name) {
  const auto path =
      (std::filesystem::temp_directory_path() / ("dnsembed_bg_" + name + ".bg")).string();
  save_bipartite_file(path, g);
  auto loaded = load_bipartite_file(path);
  std::filesystem::remove(path);
  return loaded;
}

TEST(GraphIo, BipartiteArenaRoundTripMatchesCsvRoundTrip) {
  // Right ids a=0, b=1, c=2, but a left-major scan meets a, c, b: the
  // arena must renumber them as the CSV loader does.
  BipartiteGraph g;
  g.add_edge("h1", "a.com");
  g.add_edge("h2", "b.com");
  g.add_edge("h1", "c.com");
  g.add_edge("h3", "b.com");
  g.add_edge("h3", "a.com");
  g.finalize();
  const auto via_csv = csv_round_trip(g);
  ASSERT_EQ(via_csv.right_names().name(1), "c.com");
  EXPECT_TRUE(same_bipartite(arena_round_trip(g, "small"), via_csv));

  std::mt19937 rng{7};
  BipartiteGraph big;
  for (int i = 0; i < 4000; ++i) {
    big.add_edge("m" + std::to_string(rng() % 300), "d" + std::to_string(rng() % 900) + ".test");
  }
  big.finalize();
  EXPECT_TRUE(same_bipartite(arena_round_trip(big, "big"), csv_round_trip(big)));
}

TEST(GraphIo, BipartiteArenaKeepsEdgelessVertices) {
  BipartiteGraph g;
  g.add_left("idle-host");
  g.add_edge("h1", "a.com");
  g.add_right("unqueried.com");
  g.finalize();
  const auto loaded = arena_round_trip(g, "edgeless");
  EXPECT_EQ(loaded.left_count(), 2u);
  EXPECT_EQ(loaded.right_count(), 2u);
  EXPECT_EQ(loaded.edge_count(), 1u);
  EXPECT_EQ(loaded.right_names().name(1), "unqueried.com");
  EXPECT_EQ(loaded.left_degree(*loaded.left_names().find("idle-host")), 0u);
}

TEST(GraphIo, BipartiteArenaEmptyAndWrongKind) {
  BipartiteGraph empty;
  empty.finalize();
  EXPECT_EQ(arena_round_trip(empty, "empty").edge_count(), 0u);

  // A text-era container of the old kind is rejected, not misparsed.
  const auto path =
      (std::filesystem::temp_directory_path() / "dnsembed_bg_text_era.bg").string();
  util::save_artifact(path, "bipartite-graph", "left,right\nh1,a.com\n");
  EXPECT_THROW(load_bipartite_file(path), util::CorruptArtifact);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dnsembed::graph
