// Microbenchmarks: bipartite graph construction and one-mode Jaccard
// projection at several scales — the row-wise exact engine at several
// thread counts against the map-based reference, and on a million-edge
// hub-heavy clustered graph.
//
// After the google-benchmark run, a machine-readable perf record is written
// to BENCH_projection.json (override the path with DNSEMBED_BENCH_JSON):
// the machine (cores, CPU model, SIMD rung, build type), then one row per
// measurement with the min and median wall time over its repetitions, then
// the gate verdict. The full run enforces one regression gate (exit 1 on
// violation):
//   - scaling: exact T=max must stay within 0.9x of T=1 wall.
// The million-edge row is a record of the engine on hub-heavy input, not a
// gate.
//
// Smoke mode (DNSEMBED_BENCH_SMOKE=1): a tiny graph, one repetition, no
// timing gate, no google-benchmark pass. It fails unless the projection
// emits edges.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
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

// ---------------------------------------------------------------------
// BENCH_projection.json + the scaling gate.

bool smoke_mode() {
  const char* env = std::getenv("DNSEMBED_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

/// Repetitions per full-mode measurement (smoke runs each once).
constexpr int kReps = 3;

/// Hub-heavy input: a few hundred "background" hosts of huge degree touching
/// random domains (each contributes deg² pair-count work, yet random pairs
/// have tiny Jaccard), plus many small host/domain communities whose
/// in-cluster pairs have J ≈ 0.5 and survive the similarity floor. Most of
/// the engine's cost is counting pairs the floor then throws away.
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

struct Row {
  std::string name;
  std::size_t edges = 0;
  std::size_t threads = 1;
  bench::Timing timing;
  std::string extra;  // preformatted JSON fragment, e.g. ", \"similarity_edges\": 12"
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

int run_smoke() {
  const auto g = clustered_bipartite(100, 10, 3, 50, 5000, 7);
  const std::size_t edges = g.edge_count();
  graph::ProjectionOptions options;
  options.min_similarity = 0.3;
  util::CsrGraph exact;
  const std::vector<Row> rows{
      {"project_right_exact/smoke", edges, 1,
       bench::time_reps([&] { exact = graph::project_right(g, options); }, 1), ""}};
  if (exact.edge_count() == 0) {
    std::fprintf(stderr, "micro_graph: smoke FAIL — exact projection emitted no edges\n");
    return 1;
  }
  std::printf("smoke: exact projection emitted %zu edges over %zu vertices\n",
              exact.edge_count(), exact.vertex_count());
  if (!write_rows(rows, /*smoke=*/true, "")) return 1;
  return 0;
}

int run_full() {
  std::vector<Row> rows;

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
  if (!scaling_ok) {
    std::fprintf(stderr, "micro_graph: GATE FAIL — exact T=max slower than 0.9x of T=1 "
                         "(scaling regression)\n");
  }

  // --- Record (no gate): the ~1M-edge hub-heavy clustered graph.
  const auto big = clustered_bipartite(5000, 20, 5, 500, 500000, 7);
  const std::size_t big_edges = big.edge_count();
  std::printf("clustered graph: %zu edges, %zu domains, %zu hosts\n", big_edges,
              big.right_count(), big.left_count());
  graph::ProjectionOptions big_options;
  big_options.min_similarity = 0.3;
  util::CsrGraph big_graph;
  const auto big_timing =
      bench::time_reps([&] { big_graph = graph::project_right(big, big_options); }, kReps);
  char big_extra[64];
  std::snprintf(big_extra, sizeof big_extra, ", \"similarity_edges\": %zu",
                big_graph.edge_count());
  rows.push_back({"project_right_exact/1M_clustered", big_edges, 1, big_timing, big_extra});

  char gates[128];
  std::snprintf(gates, sizeof gates,
                "\"scaling\": {\"t1_ms\": %.3f, \"tmax_ms\": %.3f, \"pass\": %s}", wall_t1,
                wall_tmax, scaling_ok ? "true" : "false");
  if (!write_rows(rows, /*smoke=*/false, gates)) return 1;
  std::printf("gates: scaling %.1fms(T=1) vs %.1fms(T=max); 1M clustered %.1fms, %zu edges\n",
              wall_t1, wall_tmax, big_timing.min_ms, big_graph.edge_count());
  return scaling_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (smoke_mode()) return run_smoke();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_full();
}
