// Resumable pipeline runner: a --resume over a completed workdir must skip
// every stage and reproduce the report byte-for-byte; corrupting one
// artifact must recompute exactly the owning stage (and still converge on
// the same bytes, with a manifest the next --resume skips whole); a changed
// knob must recompute the stage that reads it and every stage whose inputs
// then change bytes, and nothing else (a trace knob: everything; a report
// knob: the report alone, to a fresh run's bytes); a manifest from before
// per-stage keys must recompute once; a workdir whose bipartite graphs are
// text-era containers must recompute the trace stage; a blown
// stage deadline must throw but leave committed artifacts resumable. The
// in-memory chain must compute the objects the workdir holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/run.hpp"
#include "graph/io.hpp"
#include "intel/labels.hpp"
#include "intel/virustotal.hpp"
#include "trace/ground_truth.hpp"
#include "util/artifact.hpp"
#include "util/fsio.hpp"
#include "util/hash.hpp"

namespace dnsembed::core {
namespace {

namespace fs = std::filesystem;

RunOptions small_options(const std::string& workdir) {
  RunOptions options;
  options.workdir = workdir;
  auto& config = options.config;
  config.trace.seed = 31;
  config.trace.hosts = 40;
  config.trace.days = 2;
  config.trace.benign_sites = 150;
  config.trace.malware_families = 4;
  config.trace.min_victims = 3;
  config.trace.max_victims = 8;
  config.embedding_dimension = 8;
  config.embedding.line.total_samples = 50'000;
  config.kfold = 3;
  config.xmeans.k_min = 4;
  config.xmeans.k_max = 16;
  return options;
}

class RunResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One workdir per test case: ctest runs the discovered cases in
    // parallel, so a shared directory would be clobbered mid-run.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string{"dnsembed_run_resume_"} + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

TEST_F(RunResumeTest, ResumeSkipsEveryValidStage) {
  auto options = small_options(dir_);
  const auto first = run_resumable(options);
  ASSERT_EQ(first.stages.size(), 5u);
  EXPECT_EQ(first.resumed_stages, 0u);
  const auto report = util::fsio::read_file(first.report_path);

  options.resume = true;
  const auto second = run_resumable(options);
  EXPECT_EQ(second.resumed_stages, second.stages.size());
  EXPECT_EQ(util::fsio::read_file(second.report_path), report);
}

TEST_F(RunResumeTest, CorruptArtifactRecomputesOwningStage) {
  auto options = small_options(dir_);
  const auto first = run_resumable(options);
  const auto report = util::fsio::read_file(first.report_path);

  // Flip one byte mid-file: the digest check must catch it and re-run the
  // behavior stage; downstream stages revalidate against the regenerated
  // (identical) artifacts and stay resumed.
  const auto victim = dir_ + "/ip_sim.csr";
  auto bytes = util::fsio::read_file(victim);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  util::fsio::atomic_write_file(victim, bytes);

  options.resume = true;
  const auto second = run_resumable(options);
  ASSERT_EQ(second.stages.size(), 5u);
  for (const auto& stage : second.stages) {
    EXPECT_EQ(stage.resumed, stage.name != "behavior") << stage.name;
  }
  EXPECT_EQ(util::fsio::read_file(second.report_path), report);

  // The partly resumed run rewrote the manifest with every stage.
  const auto third = run_resumable(options);
  EXPECT_EQ(third.resumed_stages, 5u);
}

TEST_F(RunResumeTest, MissingArtifactRecomputesOwningStage) {
  auto options = small_options(dir_);
  run_resumable(options);
  fs::remove(dir_ + "/combined.emb");

  options.resume = true;
  const auto second = run_resumable(options);
  for (const auto& stage : second.stages) {
    EXPECT_EQ(stage.resumed, stage.name != "embed") << stage.name;
  }

  // The partly resumed run rewrote the manifest with every stage.
  const auto third = run_resumable(options);
  EXPECT_EQ(third.resumed_stages, 5u);
}

TEST_F(RunResumeTest, TextEraBipartiteGraphsRecomputeTraceStage) {
  auto options = small_options(dir_);
  const auto first = run_resumable(options);
  const auto report = util::fsio::read_file(first.report_path);

  // Turn the finished workdir into one written before the bipartite arena:
  // each .bg becomes a text container (kind "bipartite-graph", CSV payload)
  // and manifest.run records those files' digests, so only the kind check
  // can tell them apart.
  const auto manifest_path = dir_ + "/manifest.run";
  auto manifest = util::load_artifact(manifest_path, "run-manifest");
  for (const char* file : {"hdbg.bg", "dibg.bg", "dtbg.bg"}) {
    const auto path = dir_ + "/" + file;
    std::ostringstream csv;
    graph::save_bipartite_csv(csv, graph::load_bipartite_file(path));
    const auto old_digest = util::hex64(util::xxhash64(util::fsio::read_file(path)));
    util::save_artifact(path, "bipartite-graph", csv.str());
    const auto new_digest = util::hex64(util::xxhash64(util::fsio::read_file(path)));
    const auto row = std::string{"artifact "} + file + " " + old_digest;
    const auto at = manifest.find(row);
    ASSERT_NE(at, std::string::npos) << file;
    manifest.replace(at, row.size(), std::string{"artifact "} + file + " " + new_digest);
  }
  util::save_artifact(manifest_path, "run-manifest", manifest);

  options.resume = true;
  const auto second = run_resumable(options);
  ASSERT_EQ(second.stages.size(), 5u);
  EXPECT_EQ(second.stages[0].name, "trace");
  EXPECT_FALSE(second.stages[0].resumed);
  EXPECT_EQ(util::fsio::read_file(second.report_path), report);

  const auto third = run_resumable(options);
  EXPECT_EQ(third.resumed_stages, 5u);
}

TEST_F(RunResumeTest, ConfigChangeInvalidatesAllStages) {
  auto options = small_options(dir_);
  run_resumable(options);

  options.resume = true;
  options.config.trace.seed += 1;
  const auto second = run_resumable(options);
  EXPECT_EQ(second.resumed_stages, 0u);
}

/// The names of the stages a run recomputed, in run order.
std::vector<std::string> recomputed(const RunSummary& summary) {
  std::vector<std::string> names;
  for (const auto& stage : summary.stages) {
    if (!stage.resumed) names.push_back(stage.name);
  }
  return names;
}

TEST_F(RunResumeTest, KnobChangeRecomputesTheStagesThatReadIt) {
  run_resumable(small_options(dir_));

  // A stage's key covers its own knobs and every earlier artifact's digest,
  // so a changed knob recomputes its stage and each later stage whose
  // inputs then differ. Labels reads no embedding, but its key follows the
  // embed stage's artifacts all the same.
  struct Row {
    const char* knob;
    void (*change)(PipelineConfig&);
    std::vector<std::string> recomputed;
  };
  const std::vector<Row> table{
      {"kfold", [](PipelineConfig& c) { c.kfold = 4; }, {"report"}},
      {"svm.c", [](PipelineConfig& c) { c.svm.c *= 2.0; }, {"report"}},
      {"xmeans.k_max", [](PipelineConfig& c) { c.xmeans.k_max = 8; }, {"report"}},
      {"labeling.seed", [](PipelineConfig& c) { c.labeling.seed += 1; }, {"labels", "report"}},
      {"embedding.line.total_samples",
       [](PipelineConfig& c) { c.embedding.line.total_samples = 40'000; },
       {"embed", "labels", "report"}},
      {"embedding_dimension", [](PipelineConfig& c) { c.embedding_dimension = 10; },
       {"embed", "labels", "report"}},
      {"prune.min_left_degree", [](PipelineConfig& c) { c.behavior.prune.min_left_degree = 3; },
       {"behavior", "embed", "labels", "report"}},
  };
  for (const auto& row : table) {
    const auto copy = dir_ + "_" + row.knob;
    fs::remove_all(copy);
    fs::copy(dir_, copy, fs::copy_options::recursive);
    auto options = small_options(copy);
    options.resume = true;
    row.change(options.config);
    EXPECT_EQ(recomputed(run_resumable(options)), row.recomputed) << row.knob;
    fs::remove_all(copy);
  }
}

TEST_F(RunResumeTest, ReportKnobResumesFourStagesToAFreshRunsBytes) {
  auto options = small_options(dir_);
  run_resumable(options);

  options.resume = true;
  options.config.xmeans.k_max = 8;
  const auto resumed = run_resumable(options);
  EXPECT_EQ(resumed.resumed_stages, 4u);
  EXPECT_EQ(recomputed(resumed), std::vector<std::string>{"report"});

  auto fresh = small_options(dir_ + "_fresh");
  fresh.config.xmeans.k_max = 8;
  run_resumable(fresh);
  for (const char* file : {"report.md", "manifest.run"}) {
    EXPECT_TRUE(util::fsio::read_file(dir_ + "/" + file) ==
                util::fsio::read_file(dir_ + "_fresh/" + file))
        << file;
  }
  fs::remove_all(dir_ + "_fresh");
}

TEST_F(RunResumeTest, ManifestWithConfigLineRecomputesOnce) {
  // A manifest written before per-stage keys opens with a whole-config
  // hash line. It no longer parses, so the workdir recomputes once, and
  // the manifest that run writes resumes whole.
  auto options = small_options(dir_);
  run_resumable(options);
  const auto manifest_path = dir_ + "/manifest.run";
  util::save_artifact(manifest_path, "run-manifest",
                      "config 3f5a8ef79b64f7ae\n" +
                          util::load_artifact(manifest_path, "run-manifest"));

  options.resume = true;
  EXPECT_EQ(run_resumable(options).resumed_stages, 0u);
  EXPECT_EQ(run_resumable(options).resumed_stages, 5u);
}

TEST_F(RunResumeTest, TraceStageKeyIsPinned) {
  // manifest.run stores each stage's key to detect a stale stage, so the
  // same knobs must keep giving the same key from build to build, or every
  // workdir written earlier would recompute on --resume. The trace stage
  // follows no artifact, so its key hashes its name and knob text alone:
  // "trace\n31,0,40,2,150,4,0,18446744073709551615,0.75,0,0.5,12,0,3,6\n".
  run_resumable(small_options(dir_));
  const auto manifest = util::load_artifact(dir_ + "/manifest.run", "run-manifest");
  EXPECT_EQ(manifest.substr(0, manifest.find('\n')), "stage trace d2a02caee1e103c7 5");
}

TEST_F(RunResumeTest, DeadlineThrowsThenResumeCompletes) {
  auto options = small_options(dir_);
  options.stage_deadline_seconds = 1e-6;
  EXPECT_THROW(run_resumable(options), StageDeadlineExceeded);

  options.stage_deadline_seconds = 0.0;
  options.resume = true;
  const auto summary = run_resumable(options);
  EXPECT_EQ(summary.stages.size(), 5u);
  EXPECT_TRUE(util::fsio::file_exists(summary.report_path));

  // Same bytes as an uninterrupted run of the same config.
  auto reference = small_options(dir_ + "_ref");
  const auto uninterrupted = run_resumable(reference);
  EXPECT_EQ(util::fsio::read_file(summary.report_path),
            util::fsio::read_file(uninterrupted.report_path));
  fs::remove_all(dir_ + "_ref");
}

/// A similarity graph as its edges by vertex name, (smaller name, larger
/// name, weight), sorted: equal for two graphs that differ only in how
/// their vertices are numbered.
std::vector<std::tuple<std::string, std::string, double>> named_edges(const util::CsrGraph& g) {
  std::vector<std::tuple<std::string, std::string, double>> out;
  g.for_each_edge([&](std::uint32_t a, std::uint32_t b, double w) {
    std::string u{g.name(a)};
    std::string v{g.name(b)};
    if (v < u) std::swap(u, v);
    out.emplace_back(std::move(u), std::move(v), w);
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(RunResumeTest, InMemoryChainMatchesWorkdirArtifacts) {
  // The cli_crash_recovery run shape, single-process.
  auto options = small_options(dir_);
  options.config.embedding.line.total_samples = 100'000;
  const auto& config = options.config;
  (void)run_resumable(options);
  const auto path = [&](const std::string& file) { return (fs::path{dir_} / file).string(); };
  const auto kept = util::load_artifact(path("kept.domains"), "domain-list");

  // On the trace stage's graphs, the in-memory chain (build_behavior_model,
  // embed_channels) computes what the behavior and embed stages saved, byte
  // for byte.
  BehaviorModelConfig behavior = config.behavior;
  for (const auto& channel : kChannels) {
    behavior.*channel.projection = channel_projection(config, channel);
  }
  const auto model = build_behavior_model(graph::load_bipartite_file(path("hdbg.bg")),
                                          graph::load_bipartite_file(path("dibg.bg")),
                                          graph::load_bipartite_file(path("dtbg.bg")), behavior);
  std::string kept_payload = "domains " + std::to_string(model.kept_domains.size()) + "\n";
  for (const auto& domain : model.kept_domains) kept_payload += domain + "\n";
  EXPECT_EQ(kept_payload, kept);
  for (const auto& channel : kChannels) {
    EXPECT_TRUE((model.*channel.projected).payload() ==
                graph::load_csr_file(path(channel.similarity)).payload())
        << channel.similarity;
  }
  const auto same_arena = [&](const embed::EmbeddingMatrix& embedding, const std::string& file) {
    embedding.save_file(path("in_memory.emb"));
    EXPECT_TRUE(util::fsio::read_file(path("in_memory.emb")) == util::fsio::read_file(path(file)))
        << file;
  };
  const auto embedded = embed_channels(model, pipeline_embedding(config));
  for (std::size_t i = 0; i < std::size(kChannels); ++i) {
    same_arena(embedded.channels[i], kChannels[i].embedding);
  }
  same_arena(embedded.combined, "combined.emb");
  const auto truth = trace::load_ground_truth_file(path("truth.gt"));
  const intel::VirusTotalSim vt{truth, config.virustotal};
  EXPECT_EQ(intel::labeled_payload(
                intel::build_labeled_set(model.kept_domains, truth, vt, config.labeling)),
            intel::labeled_payload(intel::load_labeled_file(path("labeled.set"))));

  // run_pipeline keeps the trace's own vertex order, while a reloaded
  // bipartite arena numbers right vertices in left-major order, so its
  // graphs are the workdir's up to that numbering: the same kept domains
  // and similarity edges (weights bit for bit), by name. LINE's draws and
  // the labeled set's benign sample follow that order, so its embeddings
  // and labels are not the workdir's.
  const auto result = run_pipeline(config);
  auto kept_in_memory = result.model.kept_domains;
  auto kept_saved = model.kept_domains;
  std::sort(kept_in_memory.begin(), kept_in_memory.end());
  std::sort(kept_saved.begin(), kept_saved.end());
  EXPECT_EQ(kept_in_memory, kept_saved);
  for (const auto& channel : kChannels) {
    EXPECT_TRUE(named_edges(result.model.*channel.projected) ==
                named_edges(model.*channel.projected))
        << channel.similarity;
  }
}

}  // namespace
}  // namespace dnsembed::core
