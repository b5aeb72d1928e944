// Microbenchmarks: bipartite graph construction and one-mode Jaccard
// projection at several scales — the row-wise exact engine at several
// thread counts against the map-based reference, and the minhash/LSH
// sketched backend against exact counting on a million-edge clustered
// graph.
//
// After the google-benchmark run, a machine-readable perf record is written
// to BENCH_projection.json (override the path with DNSEMBED_BENCH_JSON):
// the machine (cores, CPU model, SIMD rung, build type), then one row per
// measurement with the min and median wall time over its repetitions, then
// the gate verdicts. The full run enforces three regression gates (exit 1
// on violation):
//   - scaling: exact T=max must stay within 0.9x of T=1 wall;
//   - speed:   sketched must beat exact by >= 5x on the 1M-edge graph;
//   - quality: downstream combined-channel AUC under the sketched backend
//              must stay within 0.01 of exact on a small pipeline.
//
// Smoke mode (DNSEMBED_BENCH_SMOKE=1): tiny graphs, one repetition, no
// timing gates, no google-benchmark pass. It fails unless the exact
// projection emits edges, the sketched one emits edges, and every sketched
// edge is an exact edge with the same weight bits (sketched weights are
// exact, so at one similarity floor its edges are a subset of exact's).
// `--sketched` restricts the smoke run to the sketched backend.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "graph/bipartite.hpp"
#include "graph/projection.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dnsembed;

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

void BM_BipartiteBuild(benchmark::State& state) {
  const auto edges = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(random_bipartite(200, 1000, edges, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_BipartiteBuild)->Arg(10000)->Arg(100000);

// Map-based single-threaded baseline (pre-sharding implementation).
void BM_ProjectRightReference(benchmark::State& state) {
  const auto edges = static_cast<std::size_t>(state.range(0));
  const auto g = random_bipartite(200, 1000, edges, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::project_right_reference(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_ProjectRightReference)->Arg(10000)->Arg(50000)->Arg(100000);

// Row-wise exact engine: Args are {edges, threads}.
void BM_ProjectRight(benchmark::State& state) {
  const auto edges = static_cast<std::size_t>(state.range(0));
  const auto g = random_bipartite(200, 1000, edges, 2);
  graph::ProjectionOptions options;
  options.threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::project_right(g, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_ProjectRight)
    ->Args({10000, 1})
    ->Args({50000, 1})
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({100000, 8});

void BM_ProjectRightThresholded(benchmark::State& state) {
  const auto g = random_bipartite(200, 1000, 50000, 3);
  graph::ProjectionOptions options;
  options.min_similarity = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::project_right(g, options));
  }
}
BENCHMARK(BM_ProjectRightThresholded);

void BM_ProjectRightSketched(benchmark::State& state) {
  const auto g = random_bipartite(200, 1000, 100000, 2);
  graph::ProjectionOptions options;
  options.min_similarity = 0.1;
  options.mode = graph::ProjectionMode::kSketched;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::project_right(g, options));
  }
}
BENCHMARK(BM_ProjectRightSketched);

// ---------------------------------------------------------------------
// BENCH_projection.json + regression gates.

bool smoke_mode() {
  const char* env = std::getenv("DNSEMBED_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

/// Repetitions per full-mode measurement (smoke runs each once).
constexpr int kReps = 3;

/// The sketched backend's target workload: a few hundred "background" hosts
/// of huge degree touching random domains (each contributes deg² pair-count
/// work to the exact engine yet near-zero candidates, because random pairs
/// have tiny Jaccard), plus many small host/domain communities whose
/// in-cluster pairs have J ≈ 0.5 and survive the similarity floor. The
/// exact engine's cost is dominated by counting pairs the threshold then
/// throws away; the sketch never looks at them.
graph::BipartiteGraph clustered_bipartite(std::size_t clusters, std::size_t cluster_domains,
                                          std::size_t cluster_hosts,
                                          std::size_t background_hosts,
                                          std::size_t background_edges, std::uint64_t seed) {
  util::Rng rng{seed};
  graph::BipartiteGraph g;
  for (std::size_t c = 0; c < clusters; ++c) {
    for (std::size_t h = 0; h < cluster_hosts; ++h) {
      const std::string host = "ch" + std::to_string(c) + "_" + std::to_string(h);
      for (std::size_t d = 0; d < cluster_domains; ++d) {
        g.add_edge(host, "d" + std::to_string(c * cluster_domains + d));
      }
    }
  }
  const std::size_t total_domains = clusters * cluster_domains;
  for (std::size_t e = 0; e < background_edges; ++e) {
    g.add_edge("bh" + std::to_string(rng.uniform_index(background_hosts)),
               "d" + std::to_string(rng.uniform_index(total_domains)));
  }
  g.finalize();
  return g;
}

/// Downstream quality probe for the AUC gate: the full small pipeline
/// (trace -> behavior -> embed -> labels -> SVM) with the given projection
/// backend; returns the combined-channel ROC AUC.
double combined_auc(graph::ProjectionMode mode) {
  core::PipelineConfig config;
  config.trace.hosts = 60;
  config.trace.days = 2;
  config.trace.benign_sites = 300;
  config.trace.malware_families = 6;
  config.embedding_dimension = 8;
  config.embedding.line.total_samples = 150'000;
  config.kfold = 3;
  config.keep_flows = false;
  config.projection_mode = mode;
  // Library-default sketch parameters (rows = 2 per band): the A/B measures
  // exactly what a user opting into --projection-mode sketched gets. The
  // similarity floor matches the defaults' design point (near-total
  // candidate recall above J ~ 0.3); below that floor r = 2 banding
  // intentionally sheds weak pairs, so an A/B at e.g. 0.1 would compare
  // two different graphs rather than two backends.
  for (auto* proj : {&config.behavior.query_projection, &config.behavior.ip_projection,
                     &config.behavior.temporal_projection}) {
    proj->min_similarity = 0.3;
  }
  const auto result = core::run_pipeline(config);
  return core::evaluate_channels(result, config).combined.auc;
}

struct Row {
  std::string name;
  std::size_t edges = 0;
  std::size_t threads = 1;
  bench::Timing timing;
  std::string extra;  // preformatted JSON fragment, e.g. ", \"recall\": 0.99"
};

/// BENCH_projection.json: {smoke, machine, repetitions, rows, gates}.
/// `gates` is a preformatted JSON object (empty in smoke mode).
bool write_rows(const std::vector<Row>& rows, bool smoke, const std::string& gates) {
  const char* path = std::getenv("DNSEMBED_BENCH_JSON");
  if (path == nullptr) path = "BENCH_projection.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_graph: cannot write %s\n", path);
    return false;
  }
  std::fprintf(out, "{\n  \"smoke\": %s,\n  ", smoke ? "true" : "false");
  bench::write_machine_json(out);
  std::fprintf(out, ",\n  \"repetitions\": %d,\n  \"rows\": [\n", smoke ? 1 : kReps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double min_ms = rows[i].timing.min_ms;
    const double items_per_s =
        min_ms > 0.0 ? static_cast<double>(rows[i].edges) / (min_ms / 1e3) : 0.0;
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"edges\": %zu, \"threads\": %zu, "
                 "\"effective_threads\": %zu, \"min_ms\": %.3f, \"median_ms\": %.3f, "
                 "\"items_per_s\": %.0f%s}%s\n",
                 rows[i].name.c_str(), rows[i].edges, rows[i].threads,
                 util::resolve_threads(rows[i].threads), min_ms, rows[i].timing.median_ms,
                 items_per_s, rows[i].extra.c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"gates\": {%s}\n}\n", gates.c_str());
  std::fclose(out);
  std::printf("wrote %s\n", path);
  return true;
}

/// True when every edge of `sketched` is an edge of `exact` (both
/// (u, v)-sorted, over the same vertex ids) with the same weight bits.
bool sketched_edges_are_exact(const util::CsrGraph& sketched, const util::CsrGraph& exact) {
  const auto key = [](std::uint32_t u, std::uint32_t v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  };
  std::vector<std::uint64_t> exact_keys;
  for (std::size_t i = 0; i < exact.edge_count(); ++i) {
    exact_keys.push_back(key(exact.edge_u()[i], exact.edge_v()[i]));
  }
  for (std::size_t i = 0; i < sketched.edge_count(); ++i) {
    const std::uint32_t u = sketched.edge_u()[i];
    const std::uint32_t v = sketched.edge_v()[i];
    const double w = sketched.edge_w()[i];
    const auto it = std::lower_bound(exact_keys.begin(), exact_keys.end(), key(u, v));
    if (it == exact_keys.end() || *it != key(u, v) ||
        std::memcmp(&exact.edge_w()[it - exact_keys.begin()], &w, sizeof w) != 0) {
      std::fprintf(stderr,
                   "micro_graph: smoke FAIL — sketched edge (%u, %u, %.17g) is not an exact "
                   "edge with the same weight bits\n",
                   u, v, w);
      return false;
    }
  }
  return true;
}

int run_smoke(bool sketched_only) {
  const auto g = clustered_bipartite(100, 10, 3, 50, 5000, 7);
  const std::size_t edges = g.edge_count();
  graph::ProjectionOptions options;
  options.min_similarity = 0.3;
  std::vector<Row> rows;
  util::CsrGraph exact;
  if (!sketched_only) {
    rows.push_back({"project_right_exact/smoke", edges, 1,
                    bench::time_reps([&] { exact = graph::project_right(g, options); }, 1), ""});
    if (exact.edge_count() == 0) {
      std::fprintf(stderr, "micro_graph: smoke FAIL — exact projection emitted no edges\n");
      return 1;
    }
    std::printf("smoke: exact projection emitted %zu edges over %zu vertices\n",
                exact.edge_count(), exact.vertex_count());
  }
  options.mode = graph::ProjectionMode::kSketched;
  util::CsrGraph sketched;
  rows.push_back({"project_right_sketched/smoke", edges, 1,
                  bench::time_reps([&] { sketched = graph::project_right(g, options); }, 1), ""});
  if (sketched.edge_count() == 0) {
    std::fprintf(stderr, "micro_graph: smoke FAIL — sketched projection emitted no edges\n");
    return 1;
  }
  std::printf("smoke: sketched projection emitted %zu edges over %zu vertices\n",
              sketched.edge_count(), sketched.vertex_count());
  if (!sketched_only && !sketched_edges_are_exact(sketched, exact)) return 1;
  if (!write_rows(rows, /*smoke=*/true, "")) return 1;
  return 0;
}

int run_full() {
  std::vector<Row> rows;
  bool ok = true;
  const auto gate = [&](bool pass, const char* what) {
    if (!pass) {
      std::fprintf(stderr, "micro_graph: GATE FAIL — %s\n", what);
      ok = false;
    }
  };

  // --- Scaling gate on the 100k random graph: T=max must stay within
  // 0.9x of T=1 (effective threads are capped at the hardware count, so
  // oversubscription cannot tank the engine).
  constexpr std::size_t kEdges = 100000;
  const auto random_g = random_bipartite(200, 1000, kEdges, 2);
  rows.push_back({"project_right_reference/100k", kEdges, 1, bench::time_reps([&] {
                    benchmark::DoNotOptimize(graph::project_right_reference(random_g));
                  }, kReps),
                  ""});
  double wall_t1 = 0.0;
  double wall_tmax = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}, std::size_t{0}}) {
    graph::ProjectionOptions options;
    options.threads = threads;
    const auto timing = bench::time_reps(
        [&] { benchmark::DoNotOptimize(graph::project_right(random_g, options)); }, kReps);
    rows.push_back({threads == 0 ? "project_right_exact/100k/max" : "project_right_exact/100k",
                    kEdges, threads, timing, ""});
    if (threads == 1) wall_t1 = timing.min_ms;
    if (threads == 0) wall_tmax = timing.min_ms;
  }
  const bool scaling_ok = wall_tmax <= wall_t1 / 0.9;
  gate(scaling_ok, "exact T=max slower than 0.9x of T=1 (scaling regression)");

  // --- Speed gate: exact vs sketched on the ~1M-edge clustered graph.
  const auto big = clustered_bipartite(5000, 20, 5, 500, 500000, 7);
  const std::size_t big_edges = big.edge_count();
  std::printf("clustered graph: %zu edges, %zu domains, %zu hosts\n", big_edges,
              big.right_count(), big.left_count());
  graph::ProjectionOptions exact_options;
  exact_options.min_similarity = 0.3;
  util::CsrGraph exact_graph;
  const auto exact_timing = bench::time_reps(
      [&] { exact_graph = graph::project_right(big, exact_options); }, kReps);
  const double exact_wall = exact_timing.min_ms;
  rows.push_back({"project_right_exact/1M_clustered", big_edges, 1, exact_timing, ""});

  // Accuracy-vs-speed sweep over (signature_size, bands); recall is the
  // fraction of exact edges recovered (sketched weights are exact, so with
  // an identical similarity floor its edge set is a subset of exact's).
  double default_wall = 0.0;
  const std::pair<std::size_t, std::size_t> sweep[] = {{64, 32}, {128, 32}, {128, 64}, {256, 64}};
  for (const auto& [signature, bands] : sweep) {
    graph::ProjectionOptions options = exact_options;
    options.mode = graph::ProjectionMode::kSketched;
    options.sketch.signature_size = signature;
    options.sketch.bands = bands;
    util::CsrGraph sketched;
    const auto timing =
        bench::time_reps([&] { sketched = graph::project_right(big, options); }, kReps);
    const double recall = exact_graph.edge_count() == 0
                              ? 1.0
                              : static_cast<double>(sketched.edge_count()) /
                                    static_cast<double>(exact_graph.edge_count());
    char extra[160];
    std::snprintf(extra, sizeof extra,
                  ", \"signature\": %zu, \"bands\": %zu, \"recall\": %.4f", signature, bands,
                  recall);
    rows.push_back({"project_right_sketched/1M_clustered", big_edges, 1, timing, extra});
    if (signature == 64 && bands == 32) default_wall = timing.min_ms;
  }
  const bool speed_ok = default_wall * 5.0 <= exact_wall;
  gate(speed_ok,
       "default sketched projection (sig=64, bands=32) less than 5x faster than "
       "exact on the 1M-edge graph");

  // --- Quality gate: downstream combined-channel AUC, exact vs sketched.
  const double auc_exact = combined_auc(graph::ProjectionMode::kExact);
  const double auc_sketched = combined_auc(graph::ProjectionMode::kSketched);
  {
    char extra[96];
    std::snprintf(extra, sizeof extra, ", \"auc_exact\": %.4f, \"auc_sketched\": %.4f",
                  auc_exact, auc_sketched);
    rows.push_back({"pipeline_auc/exact_vs_sketched", 0, 1, {}, extra});
  }
  const double auc_gap = auc_exact > auc_sketched ? auc_exact - auc_sketched
                                                  : auc_sketched - auc_exact;
  const bool quality_ok = auc_gap <= 0.01;
  gate(quality_ok, "sketched downstream AUC drifted more than 0.01 from exact");

  char gates[512];
  std::snprintf(gates, sizeof gates,
                "\"scaling\": {\"t1_ms\": %.3f, \"tmax_ms\": %.3f, \"pass\": %s}, "
                "\"speed\": {\"exact_ms\": %.3f, \"sketched_ms\": %.3f, \"ratio\": %.3f, "
                "\"min_ratio\": 5.0, \"pass\": %s}, "
                "\"quality\": {\"auc_gap\": %.4f, \"max_gap\": 0.01, \"pass\": %s}",
                wall_t1, wall_tmax, scaling_ok ? "true" : "false", exact_wall, default_wall,
                default_wall > 0.0 ? exact_wall / default_wall : 0.0,
                speed_ok ? "true" : "false", auc_gap, quality_ok ? "true" : "false");
  if (!write_rows(rows, /*smoke=*/false, gates)) return 1;
  std::printf("gates: scaling %.1fms(T=1) vs %.1fms(T=max); sketched %.1fms vs exact "
              "%.1fms (%.1fx); auc %.4f vs %.4f\n",
              wall_t1, wall_tmax, default_wall, exact_wall,
              default_wall > 0.0 ? exact_wall / default_wall : 0.0, auc_exact, auc_sketched);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool sketched_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sketched") == 0) {
      sketched_only = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  if (smoke_mode()) return run_smoke(sketched_only);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_full();
}
