// Loader fuzz suite: every durable artifact loader in the pipeline is fed
// seeded random damage (truncation at arbitrary offsets, bit flips over the
// whole container — header and payload alike) and must either reject the
// bytes with a typed util::CorruptArtifact or, when the damage bounced the
// container back to its original bytes, load the original value. No crash,
// no silent misload, no other exception type.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/streaming.hpp"
#include "embed/embedding.hpp"
#include "fault/io_faults.hpp"
#include "graph/bipartite.hpp"
#include "graph/io.hpp"
#include "graph_compare.hpp"
#include "intel/labels.hpp"
#include "ml/scaler.hpp"
#include "ml/svm.hpp"
#include "obs/sidecar.hpp"
#include "serve/score_index.hpp"
#include "trace/generator.hpp"
#include "trace/ground_truth.hpp"
#include "util/artifact.hpp"
#include "util/csr.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"

namespace dnsembed {
namespace {

namespace fs = std::filesystem;

constexpr int kRoundsPerMode = 48;

/// Applies seeded damage to `pristine`, then calls `decode` on the damaged
/// bytes and checks the contract: CorruptArtifact on real damage, clean
/// decode when the damage was a no-op. Any other exception (or a crash)
/// fails the test.
void fuzz_bytes(const std::string& name, const std::string& pristine,
                const std::function<void(const std::string&)>& decode) {
  util::Rng rng{0xF022 + std::hash<std::string>{}(name)};

  std::size_t rejected = 0;
  for (int round = 0; round < 2 * kRoundsPerMode; ++round) {
    std::string damaged = pristine;
    if (round < kRoundsPerMode) {
      fault::truncate_at_random_offset(damaged, rng);
    } else {
      fault::flip_random_bits(damaged, rng, 1 + round % 8);
    }
    try {
      decode(damaged);
      EXPECT_EQ(damaged, pristine)
          << name << " round " << round << ": damaged container loaded cleanly";
    } catch (const util::CorruptArtifact& e) {
      ++rejected;
      EXPECT_FALSE(e.reason().empty()) << name << " round " << round;
    }
    // Any other exception type escapes and fails the test.
  }
  EXPECT_GT(rejected, 0u) << name << ": no damage was ever detected";
}

/// fuzz_bytes through a file: each damaged container is written to disk
/// and handed to the file loader `load`.
void fuzz_loader(const std::string& name, const std::string& pristine,
                 const std::function<void(const std::string&)>& load) {
  const auto path =
      (fs::temp_directory_path() / ("dnsembed_fuzz_" + name + ".art")).string();
  fuzz_bytes(name, pristine, [&](const std::string& damaged) {
    util::fsio::atomic_write_file(path, damaged);
    load(path);
  });
  fs::remove(path);
}

std::string artifact_bytes_of(const std::function<void(const std::string&)>& save) {
  // One seed file per test case: ctest runs the cases as parallel
  // processes, and a shared path let one case read or delete another's.
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  const auto path =
      (fs::temp_directory_path() / ("dnsembed_fuzz_seed_" + std::string{test->name()} + ".art"))
          .string();
  save(path);
  auto bytes = util::fsio::read_file(path);
  fs::remove(path);
  return bytes;
}

TEST(ArtifactFuzz, BipartiteGraph) {
  // The bipartite arena ("bipartite-arena").
  graph::BipartiteGraph g;
  g.add_edge("host-1", "alpha.test");
  g.add_edge("host-1", "beta.test");
  g.add_edge("host-2", "alpha.test");
  g.finalize();
  const auto pristine =
      artifact_bytes_of([&](const std::string& p) { graph::save_bipartite_file(p, g); });
  fuzz_loader("bipartite", pristine,
              [](const std::string& p) { (void)graph::load_bipartite_file(p); });
}

// Bipartite arenas with a valid checksum but a structural defect: only the
// arena's own validation stands between these bytes and the graph, so each
// must raise CorruptArtifact (and, under ASan, read nothing out of bounds).
struct BipartiteSections {
  std::vector<std::uint64_t> head{3, 2, 4};  // left, right, edges
  std::vector<std::string> left{"h1", "h2", "h3"};
  std::vector<std::string> right{"a.test", "b.test"};
  std::vector<std::uint64_t> rows{0, 2, 3, 4};
  std::vector<std::uint32_t> right_ids{0, 1, 1, 0};
  /// When non-empty, replaces the left name offsets.
  std::vector<std::uint64_t> left_offsets;
};

std::string bipartite_arena(const BipartiteSections& s) {
  const util::NameTable left = util::build_name_table(s.left);
  const util::NameTable right = util::build_name_table(s.right);
  const auto& left_offsets = s.left_offsets.empty() ? left.offsets : s.left_offsets;
  util::ArenaWriter w;
  w.add_typed<std::uint64_t>(util::arena_tag("HEAD"), s.head);
  w.add(util::arena_tag("LNAMB"), left.blob.data(), left.blob.size());
  w.add_typed<std::uint64_t>(util::arena_tag("LNAMO"), left_offsets);
  w.add(util::arena_tag("RNAMB"), right.blob.data(), right.blob.size());
  w.add_typed<std::uint64_t>(util::arena_tag("RNAMO"), right.offsets);
  w.add_typed<std::uint64_t>(util::arena_tag("OFFS"), s.rows);
  w.add_typed<std::uint32_t>(util::arena_tag("RGHT"), s.right_ids);
  return w.container(graph::kBipartiteArenaKind);
}

graph::BipartiteGraph load_bipartite_bytes(const std::string& bytes) {
  const auto path = (fs::temp_directory_path() / "dnsembed_fuzz_bipartite_defect.bg").string();
  util::fsio::atomic_write_file(path, bytes);
  struct Remove {
    std::string path;
    ~Remove() { fs::remove(path); }
  } remove{path};
  return graph::load_bipartite_file(path);
}

TEST(ArtifactFuzz, BipartiteArenaStructuralDefects) {
  const auto pristine = load_bipartite_bytes(bipartite_arena({}));
  EXPECT_EQ(pristine.edge_count(), 4u);
  EXPECT_EQ(pristine.left_degree(0), 2u);

  const auto rejects = [](const std::string& what, const BipartiteSections& s) {
    EXPECT_THROW(load_bipartite_bytes(bipartite_arena(s)), util::CorruptArtifact) << what;
  };
  BipartiteSections s;
  s.left = {"h1", "h2", "h1"};
  rejects("duplicate left name", s);
  s = {};
  s.right = {"a.test", "a.test"};
  rejects("duplicate right name", s);
  s = {};
  s.right_ids = {0, 2, 1, 0};
  rejects("right id out of range", s);
  s = {};
  s.right_ids = {1, 0, 1, 0};
  rejects("unsorted row", s);
  s = {};
  s.right_ids = {1, 1, 1, 0};
  rejects("duplicate row entry", s);
  s = {};
  // Four right vertices, so each row read on its own would be valid.
  s.head = {3, 4, 4};
  s.right = {"a.test", "b.test", "c.test", "d.test"};
  s.rows = {0, 3, 2, 4};
  s.right_ids = {0, 1, 2, 3};
  rejects("non-monotone row offsets", s);
  s = {};
  s.rows = {0, 5, 3, 4};
  rejects("row offsets overrunning the right ids", s);
  s = {};
  s.rows = {0, 2, 3, 3};
  rejects("row offsets short of the edge count", s);
  s = {};
  s.left_offsets = {0, 2, 4, 5};
  rejects("left name table short of the blob", s);
  s = {};
  s.left_offsets = {0, 4, 2, 6};
  rejects("non-monotone left name offsets", s);
  s = {};
  s.head = {4, 2, 4};
  rejects("left count disagrees with the sections", s);
  s = {};
  s.head = {3, 3, 4};
  rejects("right count disagrees with the sections", s);
  s = {};
  s.head = {3, 2, 5};
  rejects("edge count disagrees with the sections", s);
  s = {};
  s.head = {3, 2};
  rejects("short header section", s);
  s = {};
  s.head = {~std::uint64_t{0}, 2, 4};
  rejects("implausible left count", s);
}

// CSR arenas with a valid checksum but a structural defect, as above. The
// base graph is the triangle 0-1-2 plus the isolated vertex 3; HEAD counts
// three edges, and the adjacency holds three entries above its diagonal.
struct CsrSections {
  std::vector<std::uint64_t> head{4, 3};  // vertices, edges
  std::vector<std::uint64_t> offsets{0, 2, 4, 6, 6};
  std::vector<std::uint32_t> cols{1, 2, 0, 2, 0, 1};
  std::vector<double> weights{0.5, 0.25, 0.5, 0.125, 0.25, 0.125};
  std::vector<double> degrees{0.75, 0.625, 0.375, 0.0};
};

std::string csr_arena(const CsrSections& s) {
  util::ArenaWriter w;
  w.add_typed<std::uint64_t>(util::arena_tag("HEAD"), s.head);
  w.add_typed<std::uint64_t>(util::arena_tag("OFFS"), s.offsets);
  w.add_typed<std::uint32_t>(util::arena_tag("COLS"), s.cols);
  w.add_typed<double>(util::arena_tag("AWGT"), s.weights);
  w.add_typed<double>(util::arena_tag("WDEG"), s.degrees);
  return w.container(util::kCsrGraphKind);
}

std::vector<graph::Edge> load_csr_edges(const std::string& bytes) {
  const auto path = (fs::temp_directory_path() / "dnsembed_fuzz_csr_defect.csr").string();
  util::fsio::atomic_write_file(path, bytes);
  struct Remove {
    std::string path;
    ~Remove() { fs::remove(path); }
  } remove{path};
  return graph::edges_of(graph::load_csr_file(path));
}

TEST(ArtifactFuzz, CsrArenaStructuralDefects) {
  const std::vector<graph::Edge> triangle = {{0, 1, 0.5}, {0, 2, 0.25}, {1, 2, 0.125}};
  EXPECT_EQ(load_csr_edges(csr_arena({})), triangle);

  const auto rejects = [](const std::string& what, const CsrSections& s) {
    EXPECT_THROW(load_csr_edges(csr_arena(s)), util::CorruptArtifact) << what;
  };
  CsrSections s;
  s.cols = {1, 2, 1, 2, 0, 1};  // still three entries above the diagonal
  rejects("self-loop", s);
  s = {};
  s.cols = {1, 2, 0, 0, 0, 1};
  rejects("upper triangle short of the edge count", s);
  s = {};
  s.cols = {1, 2, 2, 3, 0, 1};
  rejects("upper triangle beyond the edge count", s);
  s = {};
  s.cols = {2, 1, 0, 2, 0, 1};
  rejects("unsorted row", s);
  s = {};
  s.cols = {1, 4, 0, 2, 0, 1};
  rejects("adjacency id out of range", s);
  s = {};
  s.offsets = {0, 4, 2, 6, 6};
  rejects("non-monotone offsets", s);
  s = {};
  s.head = {4, 2};
  rejects("edge count disagrees with the adjacency", s);
  s = {};
  s.degrees = {0.75, 0.625, 0.375};
  rejects("degree section short of the vertex count", s);
}

TEST(ArtifactFuzz, CsrGraphArena) {
  // Binary mmap-loaded arena ("csr-graph"): damage must be caught by the
  // container digest or the arena's structural validation, never by a
  // fault on a mapped pointer.
  const auto g = graph::make_graph({"isolated.test", "alpha.test", "beta.test", "gamma.test"},
                                   {{1, 2, 0.75}, {2, 3, 0.125}, {1, 3, 1.0 / 3.0}});
  const auto pristine =
      artifact_bytes_of([&](const std::string& p) { graph::save_csr_file(p, g); });
  fuzz_loader("csr_graph", pristine,
              [](const std::string& p) { (void)graph::load_csr_file(p); });
}

TEST(ArtifactFuzz, EmbeddingArena) {
  embed::EmbeddingMatrix m{{"alpha.test", "beta.test", "gamma.test"}, 4};
  for (std::size_t i = 0; i < m.size(); ++i) {
    auto row = m.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = 0.5f * static_cast<float>(i) - 0.125f * static_cast<float>(j);
    }
  }
  const auto pristine =
      artifact_bytes_of([&](const std::string& p) { m.save_file(p); });
  fuzz_loader("embedding_arena", pristine,
              [](const std::string& p) { (void)embed::EmbeddingMatrix::load_file(p); });
}

TEST(ArtifactFuzz, ScoreIndex) {
  // Serve-daemon score index ("score-index"): binary arena with cache-line
  // bucket payload. Damage must surface as CorruptArtifact from the digest,
  // the arena parser, or the index's structural checks (meta shape, slot
  // geometry, live-slot count) — never as a crash or a silently wrong table.
  std::vector<std::string> names;
  std::vector<double> scores;
  for (int i = 0; i < 24; ++i) {
    names.push_back("fz" + std::to_string(i) + ".test");
    scores.push_back(0.25 * i - 3.0);
  }
  const auto index = serve::ScoreIndex::build(names, scores, 17);
  const auto pristine =
      artifact_bytes_of([&](const std::string& p) { index.save_file(p); });
  fuzz_loader("score_index", pristine,
              [](const std::string& p) { (void)serve::ScoreIndex::load_file(p); });
}

TEST(ArtifactFuzz, SvmModel) {
  ml::Dataset data;
  data.x = ml::Matrix{8, 2};
  for (std::size_t i = 0; i < 8; ++i) {
    data.x.at(i, 0) = i < 4 ? -1.0 - 0.1 * static_cast<double>(i) : 1.0;
    data.x.at(i, 1) = i < 4 ? -0.5 : 0.5 + 0.1 * static_cast<double>(i);
    data.y.push_back(i < 4 ? 0 : 1);
  }
  const auto model = ml::train_svm(data, ml::SvmConfig{});
  const auto pristine =
      artifact_bytes_of([&](const std::string& p) { model.save_file(p); });
  fuzz_loader("svm", pristine,
              [](const std::string& p) { (void)ml::SvmModel::load_file(p); });
}

TEST(ArtifactFuzz, Scaler) {
  ml::Matrix x{4, 3};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      x.at(i, j) = static_cast<double>(i * 3 + j) * 0.37 - 1.0;
    }
  }
  ml::StandardScaler scaler;
  scaler.fit(x);
  const auto pristine =
      artifact_bytes_of([&](const std::string& p) { scaler.save_file(p); });
  fuzz_loader("scaler", pristine,
              [](const std::string& p) { (void)ml::StandardScaler::load_file(p); });
}

TEST(ArtifactFuzz, LabeledSet) {
  intel::LabeledSet labels;
  labels.domains = {"alpha.test", "beta.test", "gamma.test", "delta.test"};
  labels.labels = {0, 1, 0, 1};
  const auto pristine = artifact_bytes_of(
      [&](const std::string& p) { intel::save_labeled_file(p, labels); });
  fuzz_loader("labels", pristine,
              [](const std::string& p) { (void)intel::load_labeled_file(p); });
}

// Scenario-tagged labeled sets add a third column; damage that corrupts a
// tag (bad charset, lost tab, partial tagging) must be rejected like any
// other payload damage, never parsed into a half-tagged set.
TEST(ArtifactFuzz, LabeledSetWithScenarioTags) {
  intel::LabeledSet labels;
  labels.domains = {"alpha.test", "beta.test", "gamma.test", "delta.test"};
  labels.labels = {0, 1, 0, 1};
  labels.scenarios = {"benign", "dga-cnc", "benign", "zero-day"};
  const auto pristine = artifact_bytes_of(
      [&](const std::string& p) { intel::save_labeled_file(p, labels); });
  fuzz_loader("labels_tagged", pristine,
              [](const std::string& p) { (void)intel::load_labeled_file(p); });
}

TEST(ArtifactFuzz, GroundTruth) {
  trace::GroundTruth truth;
  truth.add_benign("good-1.test");
  truth.add_benign("good-2.test");
  trace::MalwareFamily family;
  family.id = 0;
  family.kind = trace::FamilyKind::kDgaCnc;
  family.name = "family00-dga";
  family.domains = {"evil-1.test", "evil-2.test"};
  family.ips = {dns::Ipv4{10, 0, 0, 1}, dns::Ipv4{10, 0, 0, 2}};
  family.victims = {"host-3"};
  family.port = 443;
  truth.add_family(std::move(family));
  const auto pristine = artifact_bytes_of(
      [&](const std::string& p) { trace::save_ground_truth_file(p, truth); });
  fuzz_loader("truth", pristine,
              [](const std::string& p) { (void)trace::load_ground_truth_file(p); });
}

TEST(ArtifactFuzz, TelemetrySidecar) {
  // A worker's telemetry sidecar, as the supervisor reads it off the
  // worker's pipe: damage must surface as CorruptArtifact so the supervisor
  // can warn, drop that worker's telemetry, and keep the merge going — it
  // must never crash or misparse into bogus metrics.
  const std::string payload =
      "telemetry 1\n"
      "counter graph.projection.edges 1234\n"
      "counter embed.line.samples 50000\n"
      "histogram supervisor.task.cpu_seconds 2 0.5 1 3 1 2 0 1500000\n"
      "record streaming.day 2 day 1 alerts 3\n"
      "span embed.line 100 200 4 0\n";
  fuzz_bytes("sidecar", util::make_artifact(obs::kTelemetrySidecarKind, payload),
             [](const std::string& bytes) {
               (void)obs::decode_telemetry_sidecar(bytes, "sidecar");
             });
}

TEST(ArtifactFuzz, StreamingCheckpoint) {
  trace::TraceConfig trace_config;
  trace_config.seed = 21;
  trace_config.hosts = 40;
  trace_config.days = 2;
  trace_config.benign_sites = 150;
  trace_config.malware_families = 4;
  trace_config.min_victims = 3;
  trace_config.max_victims = 8;
  trace::CollectingSink sink;
  const auto result = trace::generate_trace(trace_config, sink);
  const intel::VirusTotalSim vt{result.truth, intel::VirusTotalConfig{}};

  core::StreamingConfig config;
  config.window_days = 2;
  config.embedding.line.total_samples = 50'000;
  core::StreamingDetector detector{config, result.truth, vt};
  detector.advance_day(sink.dns());

  const auto pristine = artifact_bytes_of(
      [&](const std::string& p) { detector.save_checkpoint_file(p); });
  fuzz_loader("checkpoint", pristine, [&](const std::string& p) {
    core::StreamingDetector fresh{config, result.truth, vt};
    fresh.load_checkpoint_file(p);
  });
}

}  // namespace
}  // namespace dnsembed
