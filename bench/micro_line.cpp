// Microbenchmarks for the SIMD math-kernel layer and the LINE trainer.
//
// After the google-benchmark run, BENCH_line.json (override the path with
// DNSEMBED_BENCH_JSON) records the machine (cores, CPU model, SIMD rung,
// build type) and the min and median wall time over several repetitions of
// LINE training at the scalar and the widest SIMD rung: on a sparse
// 20k-edge graph at dims 16, 24 (the CLI default) and 128, and on a dense
// ~700k-edge graph shaped like the query channel at dim 24, whose edge
// sampler is larger than L2. In full mode the binary FAILS (nonzero exit)
// when the SIMD path is not at least 1.5x the scalar path at dim=128 — the
// acceptance gate for the kernel layer.
//
// Smoke mode (DNSEMBED_BENCH_SMOKE=1): tiny step count, one repetition, no
// speedup gate (timings are noise at that scale) — it exists so CI catches
// dispatch regressions fast: every row, the dense one included, must train
// to finite embeddings and the forced rung must actually be selected.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "embed/line.hpp"
#include "util/csr.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dnsembed;

bool smoke_mode() {
  const char* env = std::getenv("DNSEMBED_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

/// `edges` random pairs over `vertices` (repeats allowed), weights in
/// [0.5, 2).
util::CsrGraph sparse_graph(std::size_t vertices, std::size_t edges, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<std::uint32_t> eu;
  std::vector<std::uint32_t> ev;
  std::vector<double> ew;
  for (std::size_t e = 0; e < edges; ++e) {
    const auto u = static_cast<std::uint32_t>(rng.uniform_index(vertices));
    auto w = static_cast<std::uint32_t>(rng.uniform_index(vertices));
    if (u == w) w = static_cast<std::uint32_t>((w + 1) % vertices);
    eu.push_back(u);
    ev.push_back(w);
    ew.push_back(rng.uniform(0.5, 2.0));
  }
  return util::CsrGraph::build(vertices, eu, ev, ew);
}

/// Each vertex pair is an edge with probability `density`, weights in
/// (0, 1] like Jaccard similarities: 1,529 vertices at 0.6 give ~700k
/// edges, the query channel of a default `dnsembed run`.
util::CsrGraph dense_graph(std::size_t vertices, double density, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<std::uint32_t> eu;
  std::vector<std::uint32_t> ev;
  std::vector<double> ew;
  for (std::uint32_t u = 0; u < vertices; ++u) {
    for (std::uint32_t v = u + 1; v < vertices; ++v) {
      if (!rng.bernoulli(density)) continue;
      eu.push_back(u);
      ev.push_back(v);
      ew.push_back(1.0 - rng.uniform());
    }
  }
  return util::CsrGraph::build(vertices, eu, ev, ew);
}

embed::LineConfig line_config(std::size_t dim, std::size_t samples) {
  embed::LineConfig config;
  config.dimension = dim;
  config.total_samples = samples;
  config.seed = 42;
  return config;
}

// --------------------------------------------------------------- gbench

void BM_SimdDotF32(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto level = static_cast<util::simd::Level>(state.range(1));
  if (!util::simd::level_supported(level)) {
    state.SkipWithError("level unsupported on this CPU");
    return;
  }
  const auto prev = util::simd::active_level();
  util::simd::force_level(level);
  util::Rng rng{7};
  std::vector<float> a(dim);
  std::vector<float> b(dim);
  for (auto& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::simd::dot(a.data(), b.data(), dim));
  }
  util::simd::force_level(prev);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_SimdDotF32)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({1024, 0})
    ->Args({1024, 2});

void BM_LineTrain(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto g = sparse_graph(1000, 20000, 3);
  const auto config = line_config(dim, 100000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(embed::train_line(g, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(config.total_samples));
}
BENCHMARK(BM_LineTrain)->Arg(24)->Arg(128)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// BENCH_line.json: {smoke, machine, repetitions, samples, rows, gate}; one
// row per (graph, rung, dim) with the min and median wall time.

struct Timing {
  double min_ms;
  double median_ms;
};

Timing time_reps(const std::function<void()>& fn, int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch watch;
    fn();
    ms.push_back(watch.millis());
  }
  std::sort(ms.begin(), ms.end());
  const std::size_t mid = ms.size() / 2;
  return {ms.front(), ms.size() % 2 == 1 ? ms[mid] : (ms[mid - 1] + ms[mid]) / 2.0};
}

bool finite_embedding(const embed::EmbeddingMatrix& m) {
  for (std::size_t v = 0; v < m.size(); ++v) {
    for (const float x : m.row(v)) {
      if (!std::isfinite(x)) return false;
    }
  }
  return true;
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(line.find_first_not_of(" \t", colon + 1));
    std::replace(model.begin(), model.end(), '"', '\'');
    return model;
  }
  return "unknown";
}

int write_line_json() {
  const char* path = std::getenv("DNSEMBED_BENCH_JSON");
  if (path == nullptr) path = "BENCH_line.json";
  const bool smoke = smoke_mode();
  const std::size_t samples = smoke ? 30000 : 600000;
  const int reps = smoke ? 1 : 5;

  struct Graph {
    const char* name;
    util::CsrGraph csr;
    std::vector<std::size_t> dims;
  };
  std::vector<Graph> graphs;
  graphs.push_back({"sparse", sparse_graph(1000, 20000, 3), {16, 24, 128}});
  graphs.push_back({"dense", dense_graph(1529, 0.6, 5), {24}});

  const util::simd::Level best_level = util::simd::active_level();
  const std::vector<util::simd::Level> levels =
      best_level == util::simd::Level::kScalar
          ? std::vector<util::simd::Level>{util::simd::Level::kScalar}
          : std::vector<util::simd::Level>{util::simd::Level::kScalar, best_level};

  struct Row {
    const Graph* graph;
    util::simd::Level level;
    std::size_t dim;
    Timing timing;
  };
  std::vector<Row> rows;
  for (const util::simd::Level level : levels) {
    if (util::simd::force_level(level) != level) {
      std::fprintf(stderr, "micro_line: FAIL: could not force %s rung\n",
                   util::simd::level_name(level));
      return 1;
    }
    for (const Graph& graph : graphs) {
      for (const std::size_t dim : graph.dims) {
        const auto config = line_config(dim, samples);
        embed::EmbeddingMatrix last;
        const Timing timing =
            time_reps([&] { last = embed::train_line(graph.csr, config); }, reps);
        if (!finite_embedding(last)) {
          std::fprintf(stderr, "micro_line: FAIL: non-finite embedding at %s %s dim=%zu\n",
                       graph.name, util::simd::level_name(level), dim);
          return 1;
        }
        rows.push_back({&graph, level, dim, timing});
      }
    }
  }
  util::simd::force_level(best_level);

  // Gate: SIMD must carry its weight where the flops live.
  const auto min_ms_at = [&](util::simd::Level level, std::size_t dim) {
    for (const Row& r : rows) {
      if (std::string{r.graph->name} == "sparse" && r.level == level && r.dim == dim) {
        return r.timing.min_ms;
      }
    }
    return -1.0;
  };
  const bool gated = !smoke && best_level != util::simd::Level::kScalar;
  const double speedup = gated ? min_ms_at(util::simd::Level::kScalar, 128) /
                                     min_ms_at(best_level, 128)
                               : 0.0;

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_line: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"smoke\": %s,\n  \"machine\": {\"cores\": %u, \"usable_cpus\": %zu, "
               "\"cpu\": \"%s\", \"simd\": \"%s\", \"build_type\": \"%s\"},\n"
               "  \"repetitions\": %d,\n  \"samples\": %zu,\n  \"rows\": [\n",
               smoke ? "true" : "false", std::thread::hardware_concurrency(),
               util::resolve_threads(0), cpu_model().c_str(),
               util::simd::level_name(best_level), DNSEMBED_BUILD_TYPE, reps, samples);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"line_train\", \"graph\": \"%s\", \"vertices\": %zu, "
                 "\"edges\": %zu, \"simd\": \"%s\", \"dim\": %zu, \"min_ms\": %.3f, "
                 "\"median_ms\": %.3f, \"samples_per_s\": %.0f}%s\n",
                 r.graph->name, r.graph->csr.vertex_count(), r.graph->csr.edge_count(),
                 util::simd::level_name(r.level), r.dim, r.timing.min_ms, r.timing.median_ms,
                 static_cast<double>(samples) / (r.timing.min_ms / 1e3),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"gate\": {\"dim\": 128, \"min_speedup\": 1.5, "
                    "\"speedup\": %.3f, \"enforced\": %s}\n}\n",
               speedup, gated ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s (%s mode, active rung %s)\n", path, smoke ? "smoke" : "full",
              util::simd::level_name(best_level));
  if (!gated) return 0;

  std::printf("dim=128: scalar %.1f ms, %s %.1f ms -> %.2fx (gate: >= 1.5x)\n",
              min_ms_at(util::simd::Level::kScalar, 128), util::simd::level_name(best_level),
              min_ms_at(best_level, 128), speedup);
  if (speedup < 1.5) {
    std::fprintf(stderr, "micro_line: FAIL: %s is only %.2fx scalar at dim=128 "
                         "(gate 1.5x)\n",
                 util::simd::level_name(best_level), speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!smoke_mode()) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_line_json();
}
