// CSR/dense-matrix arena tests: build invariants (sorted adjacency,
// degrees, the edge list as the upper triangle), input validation, payload
// round-trips, mmap loads that are actually zero-copy, loads of the former
// layout, corruption rejection, and the ArenaWriter/ArenaView section
// contract including the misaligned-body fallback copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/bipartite.hpp"
#include "graph/io.hpp"
#include "graph_compare.hpp"
#include "util/artifact.hpp"
#include "util/csr.hpp"
#include "util/fsio.hpp"

namespace dnsembed::util {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("dnsembed_csr_" + name)).string();
}

// Triangle plus a pendant and an isolated vertex; edge order is scrambled
// relative to (u,v) order on purpose.
const std::vector<std::uint32_t> kTriangleU = {2, 0, 1, 3};
const std::vector<std::uint32_t> kTriangleV = {0, 1, 2, 1};
const std::vector<double> kTriangleW = {0.5, 1.0, 0.25, 2.0};

CsrGraph triangle_graph() {
  const std::vector<std::string> names = {"a.test", "b.test", "c.test", "d.test", "lone.test"};
  return CsrGraph::build(5, kTriangleU, kTriangleV, kTriangleW, names);
}

// ---------------------------------------------------------------------
// CsrGraph build invariants

TEST(CsrGraph, BuildProducesSortedAdjacencyAndDegrees) {
  const auto g = triangle_graph();
  EXPECT_EQ(g.vertex_count(), 5u);
  EXPECT_EQ(g.edge_count(), 4u);

  // Adjacency is sorted per vertex; both endpoints see each edge.
  const std::vector<std::uint32_t> n0 = {1, 2};
  const std::vector<std::uint32_t> n1 = {0, 2, 3};
  EXPECT_EQ(std::vector<std::uint32_t>(g.neighbors(0).begin(), g.neighbors(0).end()), n0);
  EXPECT_EQ(std::vector<std::uint32_t>(g.neighbors(1).begin(), g.neighbors(1).end()), n1);
  EXPECT_EQ(g.degree(4), 0u);

  // Neighbor weights line up with the sorted columns.
  EXPECT_DOUBLE_EQ(g.neighbor_weights(0)[0], 1.0);   // 0-1
  EXPECT_DOUBLE_EQ(g.neighbor_weights(0)[1], 0.5);   // 0-2
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 1.0 + 0.25 + 2.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(4), 0.0);

  // The edge list is the upper triangle in row order, whatever the input
  // order was.
  const std::vector<graph::Edge> edges = {{0, 1, 1.0}, {0, 2, 0.5}, {1, 2, 0.25}, {1, 3, 2.0}};
  EXPECT_EQ(graph::edges_of(g), edges);

  ASSERT_TRUE(g.has_names());
  EXPECT_EQ(g.name(0), "a.test");
  EXPECT_EQ(g.name(4), "lone.test");
}

TEST(CsrGraph, BuildRejectsMalformedEdges) {
  const std::vector<std::uint32_t> ok = {0};
  const std::vector<double> w = {1.0};
  const std::vector<std::uint32_t> self = {0};
  EXPECT_THROW(CsrGraph::build(2, self, self, w), std::invalid_argument);

  const std::vector<std::uint32_t> big = {7};
  EXPECT_THROW(CsrGraph::build(2, ok, big, w), std::invalid_argument);

  const std::vector<std::uint32_t> one = {1};
  const std::vector<double> zero_w = {0.0};
  EXPECT_THROW(CsrGraph::build(2, ok, one, zero_w), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Round-trips

void expect_same_graph(const CsrGraph& got, const CsrGraph& want) {
  ASSERT_EQ(got.vertex_count(), want.vertex_count());
  ASSERT_EQ(got.edge_count(), want.edge_count());
  EXPECT_EQ(graph::edges_of(got), graph::edges_of(want));
  for (std::uint32_t vertex = 0; vertex < want.vertex_count(); ++vertex) {
    ASSERT_EQ(got.degree(vertex), want.degree(vertex));
    for (std::size_t i = 0; i < want.degree(vertex); ++i) {
      EXPECT_EQ(got.neighbors(vertex)[i], want.neighbors(vertex)[i]);
      EXPECT_EQ(got.neighbor_weights(vertex)[i], want.neighbor_weights(vertex)[i]);
    }
    EXPECT_EQ(got.weighted_degree(vertex), want.weighted_degree(vertex));
    if (want.has_names()) {
      EXPECT_EQ(got.name(vertex), want.name(vertex));
    }
  }
}

TEST(CsrGraph, PayloadRoundTrips) {
  const auto g = triangle_graph();
  const auto payload = g.payload();
  const auto parsed = CsrGraph::from_payload(payload, "test");
  expect_same_graph(parsed, g);
}

TEST(CsrGraph, FileRoundTripIsZeroCopy) {
  const auto g = triangle_graph();
  const auto path = temp_path("roundtrip.csr");
  g.save_file(path);

  const auto loaded = CsrGraph::load_file(path);
  // The whole point of the arena: a mapped load reads straight out of the
  // page cache, no per-element parse or copy.
  EXPECT_TRUE(loaded.zero_copy());
  expect_same_graph(loaded, g);
  fs::remove(path);
}

TEST(CsrGraph, CorruptFileIsRejected) {
  const auto g = triangle_graph();
  const auto path = temp_path("corrupt.csr");
  g.save_file(path);
  auto bytes = fsio::read_file(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  fsio::atomic_write_file(path, bytes);
  EXPECT_THROW(CsrGraph::load_file(path), CorruptArtifact);
  fs::remove(path);
}

TEST(CsrGraph, ArenaWithFormerEdgeListSectionsLoads) {
  // Until the edge list was defined as the adjacency's upper triangle, the
  // arena also held the input edges as struct-of-arrays, in input order,
  // and their total weight, in sections the arena no longer writes (the
  // three after AWGT and the one after WDEG below). Workdirs written then
  // must resume: that layout loads as the graph built from the same edges,
  // and saves back in the current one.
  const auto g = triangle_graph();
  std::vector<std::uint64_t> offsets{0};
  std::vector<std::uint32_t> cols;
  std::vector<double> weights;
  std::vector<double> degrees;
  for (std::uint32_t x = 0; x < g.vertex_count(); ++x) {
    const auto row = g.neighbors(x);
    const auto row_weights = g.neighbor_weights(x);
    cols.insert(cols.end(), row.begin(), row.end());
    weights.insert(weights.end(), row_weights.begin(), row_weights.end());
    offsets.push_back(cols.size());
    degrees.push_back(g.weighted_degree(x));
  }
  const NameTable names = build_name_table(g.names_copy());
  const std::uint64_t head[2] = {5, 4};
  const double total = 0.5 + 1.0 + 0.25 + 2.0;
  ArenaWriter former;
  former.add(arena_tag("HEAD"), head, sizeof(head));
  former.add_typed<std::uint64_t>(arena_tag("OFFS"), offsets);
  former.add_typed<std::uint32_t>(arena_tag("COLS"), cols);
  former.add_typed<double>(arena_tag("AWGT"), weights);
  former.add_typed<std::uint32_t>(arena_tag("EDGU"), kTriangleU);
  former.add_typed<std::uint32_t>(arena_tag("EDGV"), kTriangleV);
  former.add_typed<double>(arena_tag("EDGW"), kTriangleW);
  former.add_typed<double>(arena_tag("WDEG"), degrees);
  former.add(arena_tag("TOTW"), &total, sizeof(total));
  former.add(arena_tag("NAMB"), names.blob.data(), names.blob.size());
  former.add_typed<std::uint64_t>(arena_tag("NAMO"), names.offsets);

  const auto path = temp_path("former_layout.csr");
  former.save_file(path, kCsrGraphKind);
  const auto loaded = CsrGraph::load_file(path);
  EXPECT_TRUE(loaded.zero_copy());
  expect_same_graph(loaded, g);
  EXPECT_EQ(loaded.payload(), g.payload());
  fs::remove(path);
}

// ---------------------------------------------------------------------
// DenseMatrix

TEST(DenseMatrix, BuildAndFileRoundTripZeroCopy) {
  const std::vector<std::string> names = {"r0.test", "r1.test", "r2.test"};
  std::vector<float> data(names.size() * 4);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.5f * static_cast<float>(i) - 1.0f;
  }
  const auto m = DenseMatrix::build(names, 4, data);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.row(1)[0], data[4]);
  EXPECT_EQ(m.name(2), "r2.test");

  const auto path = temp_path("dense.emb");
  m.save_file(path);
  const auto loaded = DenseMatrix::load_file(path);
  EXPECT_TRUE(loaded.zero_copy());
  ASSERT_EQ(loaded.rows(), m.rows());
  ASSERT_EQ(loaded.cols(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    EXPECT_EQ(loaded.name(i), m.name(i));
    for (std::size_t j = 0; j < m.cols(); ++j) EXPECT_EQ(loaded.row(i)[j], m.row(i)[j]);
  }
  fs::remove(path);
}

TEST(DenseMatrix, BuildRejectsShapeMismatch) {
  const std::vector<std::string> names = {"r0.test"};
  const std::vector<float> data = {1.0f, 2.0f, 3.0f};
  EXPECT_THROW(DenseMatrix::build(names, 2, data), std::invalid_argument);
}

// ---------------------------------------------------------------------
// ArenaWriter / ArenaView

TEST(Arena, SectionsRoundTripAndMissingTagThrows) {
  ArenaWriter writer;
  const std::vector<std::uint64_t> numbers = {1, 2, 3};
  const std::string blob = "hello";
  writer.add_typed<std::uint64_t>(arena_tag("NUMS"), numbers);
  writer.add(arena_tag("BLOB"), blob.data(), blob.size());

  const auto payload = writer.payload("csr-graph");
  const auto view = ArenaView::parse(payload, "test");
  EXPECT_TRUE(view.has(arena_tag("NUMS")));
  EXPECT_FALSE(view.has(arena_tag("GONE")));

  const auto nums = view.typed<std::uint64_t>(arena_tag("NUMS"), "test");
  ASSERT_EQ(nums.size(), 3u);
  EXPECT_EQ(nums[2], 3u);
  EXPECT_EQ(view.section(arena_tag("BLOB"), "test"), "hello");

  EXPECT_THROW(view.section(arena_tag("GONE"), "test"), CorruptArtifact);
  // BLOB is 5 bytes: not a multiple of u64.
  EXPECT_THROW(view.typed<std::uint64_t>(arena_tag("BLOB"), "test"), CorruptArtifact);
}

TEST(Arena, MisalignedBodyFallsBackToOwnedCopy) {
  ArenaWriter writer;
  const std::vector<std::uint64_t> numbers = {7, 8};
  writer.add_typed<std::uint64_t>(arena_tag("NUMS"), numbers);
  const auto payload = writer.payload("csr-graph");

  // Parse the same payload at all eight residues of an 8-aligned buffer:
  // exactly one shift leaves the body 8-aligned in memory (zero-copy), the
  // other seven must take the aligned fallback copy — and every one must
  // decode the same data, no faults.
  std::vector<std::uint64_t> storage((payload.size() + 8 + 7) / 8, 0);
  auto* base = reinterpret_cast<char*>(storage.data());
  std::size_t fallback_copies = 0;
  for (std::size_t shift = 0; shift < 8; ++shift) {
    std::memcpy(base + shift, payload.data(), payload.size());
    const auto view =
        ArenaView::parse(std::string_view{base + shift, payload.size()}, "test");
    if (!view.zero_copy()) ++fallback_copies;
    const auto nums = view.typed<std::uint64_t>(arena_tag("NUMS"), "test");
    ASSERT_EQ(nums.size(), 2u) << "shift " << shift;
    EXPECT_EQ(nums[0], 7u);
    EXPECT_EQ(nums[1], 8u);
  }
  EXPECT_EQ(fallback_copies, 7u);
}

TEST(Arena, TruncatedBodyIsRejected) {
  ArenaWriter writer;
  const std::vector<std::uint64_t> numbers = {1, 2, 3, 4};
  writer.add_typed<std::uint64_t>(arena_tag("NUMS"), numbers);
  const auto payload = writer.payload("csr-graph");
  for (const std::size_t keep : {std::size_t{0}, std::size_t{4}, payload.size() / 2}) {
    EXPECT_THROW(ArenaView::parse(std::string_view{payload}.substr(0, keep), "test"),
                 CorruptArtifact)
        << "kept " << keep << " bytes";
  }
}

// ---------------------------------------------------------------------
// One-buffer containers: the bytes a writer saves must be exactly
// make_artifact(kind, payload(kind)).

/// Expects the file at `path` to be the container make_artifact builds
/// around its own payload, with the payload's arena body 8-aligned in the
/// file.
void expect_canonical_container(const std::string& path, std::string_view kind) {
  const auto bytes = fsio::read_file(path);
  const auto payload = validate_artifact_view(bytes, kind, path);
  EXPECT_EQ(make_artifact(kind, payload), bytes) << kind;
  const auto pad = static_cast<unsigned char>(payload[0]);
  EXPECT_EQ((bytes.size() - payload.size() + 1 + pad) % 8, 0u) << kind;
}

TEST(Arena, SavedContainersEqualMakeArtifactOfPayload) {
  const auto csr = triangle_graph();
  const auto csr_path = temp_path("one_buffer.csr");
  csr.save_file(csr_path);
  EXPECT_EQ(fsio::read_file(csr_path), make_artifact(kCsrGraphKind, csr.payload()));
  expect_canonical_container(csr_path, kCsrGraphKind);
  fs::remove(csr_path);

  const std::vector<std::string> names = {"x.test", "y.test"};
  const std::vector<float> data = {1.0f, -2.0f, 0.5f, 4.0f, 8.0f, -0.25f};
  const auto matrix = DenseMatrix::build(names, 3, data);
  const auto matrix_path = temp_path("one_buffer.emb");
  matrix.save_file(matrix_path);
  EXPECT_EQ(fsio::read_file(matrix_path), make_artifact(kDenseMatrixKind, matrix.payload()));
  expect_canonical_container(matrix_path, kDenseMatrixKind);
  fs::remove(matrix_path);

  graph::BipartiteGraph bipartite;
  bipartite.add_edge("h1", "a.test");
  bipartite.add_edge("h2", "b.test");
  bipartite.add_edge("h1", "c.test");
  bipartite.finalize();
  const auto bipartite_path = temp_path("one_buffer.bg");
  graph::save_bipartite_file(bipartite_path, bipartite);
  expect_canonical_container(bipartite_path, graph::kBipartiteArenaKind);
  fs::remove(bipartite_path);
}

TEST(Arena, ContainerEqualsMakeArtifactAcrossPadAndDigitBoundaries) {
  // One growing section carries the payload size across 1000 bytes, where
  // the header's size field gains a digit and the pad must change; an empty
  // section rides along.
  const std::string kind = "csr-graph";
  const std::string filler(1100, 'q');
  std::size_t below = 0;
  std::size_t above = 0;
  std::vector<std::size_t> pads;
  for (std::size_t size = 880; size <= 1000; ++size) {
    ArenaWriter writer;
    writer.add(arena_tag("EMPTY"), nullptr, 0);
    writer.add(arena_tag("FILL"), filler.data(), size);
    const auto payload = writer.payload(kind);
    const auto container = writer.container(kind);
    ASSERT_EQ(container, make_artifact(kind, payload)) << "section size " << size;
    const std::size_t pad = static_cast<unsigned char>(payload[0]);
    ASSERT_EQ((container.size() - payload.size() + 1 + pad) % 8, 0u) << "section size " << size;
    (payload.size() < 1000 ? below : above) += 1;
    if (std::find(pads.begin(), pads.end(), pad) == pads.end()) pads.push_back(pad);
    const auto view = ArenaView::parse(payload, "test");
    EXPECT_EQ(view.section(arena_tag("EMPTY"), "test").size(), 0u);
    EXPECT_EQ(view.section(arena_tag("FILL"), "test"), std::string_view(filler).substr(0, size));
  }
  EXPECT_GT(below, 0u);
  EXPECT_GT(above, 0u);
  EXPECT_GT(pads.size(), 1u);
}

TEST(CsrGraph, SortedEdgeListMatchesShuffledBuild) {
  // A (u, v)-sorted edge list takes the already-ascending path; the same
  // edges in scrambled order take the sort. Both must give the same arena.
  const std::vector<std::uint32_t> u = {0, 0, 1, 1, 2};
  const std::vector<std::uint32_t> v = {1, 3, 2, 3, 3};
  const std::vector<double> w = {0.5, 0.25, 1.0 / 3.0, 0.125, 0.75};
  const auto sorted = CsrGraph::build(4, u, v, w);
  const std::vector<std::uint32_t> su = {2, 0, 1, 0, 1};
  const std::vector<std::uint32_t> sv = {3, 3, 3, 1, 2};
  const std::vector<double> sw = {0.75, 0.25, 0.125, 0.5, 1.0 / 3.0};
  const auto shuffled = CsrGraph::build(4, su, sv, sw);
  for (std::uint32_t x = 0; x < 4; ++x) {
    const auto a = sorted.neighbors(x);
    const auto b = shuffled.neighbors(x);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << x;
    const auto aw = sorted.neighbor_weights(x);
    const auto bw = shuffled.neighbor_weights(x);
    ASSERT_TRUE(std::equal(aw.begin(), aw.end(), bw.begin(), bw.end())) << x;
    EXPECT_EQ(sorted.weighted_degree(x), shuffled.weighted_degree(x)) << x;
  }
  EXPECT_EQ(sorted.payload(), shuffled.payload());
}

TEST(CsrGraph, MovedGraphKeepsShortNames) {
  // Names short enough to fit a string's inline buffer ("a" + "b" is two
  // bytes) must survive both moves: the name view follows the storage.
  const std::vector<std::uint32_t> u = {0};
  const std::vector<std::uint32_t> v = {1};
  const std::vector<double> w = {1.0};
  const std::vector<std::string> names = {"a", "b"};
  CsrGraph built = CsrGraph::build(2, u, v, w, names);
  CsrGraph moved{std::move(built)};
  CsrGraph assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.name(0), "a");
  EXPECT_EQ(assigned.name(1), "b");
  EXPECT_EQ(assigned.names_copy(), names);
}

TEST(DenseMatrix, MovedMatrixKeepsShortNames) {
  const std::vector<std::string> names = {"a", "b"};
  const std::vector<float> data = {1.0f, 2.0f};
  DenseMatrix built = DenseMatrix::build(names, 1, data);
  DenseMatrix moved{std::move(built)};
  DenseMatrix assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.name(0), "a");
  EXPECT_EQ(assigned.name(1), "b");
  EXPECT_EQ(assigned.names_copy(), names);
}

}  // namespace
}  // namespace dnsembed::util
