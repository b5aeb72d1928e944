// Observability overhead microbench. The obs design promises that
// instrumentation left compiled into hot loops costs at most one predicted
// branch per event when no sink is configured (metrics disabled). This
// binary measures that directly and FAILS (nonzero exit) when the
// enabled-but-unsinked overhead on the pair-counting workload exceeds 3%,
// so a regression in the disabled path cannot land silently.
//
// Two measurements:
//  1. The gate: a FlatCounter pair-counting kernel (the projection inner
//     loop's memory behavior) with a per-event obs::Counter::add beside it,
//     metrics disabled, vs the identical kernel with no obs call at all.
//     This is stricter than production, which only instruments per pivot.
//  2. Informational: full project_right() wall time with metrics disabled
//     vs enabled, at production (per-pivot) instrumentation granularity.
//
// Cross-process telemetry gates on a supervised mini-run (2 workers,
// 2 projection shards):
//  3. Correctness: the deterministic pipeline counters merged from worker
//     sidecars must equal the single-process totals exactly, and the trace
//     must carry one process lane per worker task. Always enforced, even in
//     smoke mode.
//  4. Cost: sidecar write + merge (telemetry on vs off on the same
//     supervised run) must cost <= 3% wall. Skipped under
//     DNSEMBED_BENCH_SMOKE=1 — mini-run timings are too noisy for CI.
//
// Results land in BENCH_obs.json (override with DNSEMBED_BENCH_JSON).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/run.hpp"
#include "graph/bipartite.hpp"
#include "graph/projection.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/flat_counter.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dnsembed;

constexpr std::size_t kKeys = 1 << 20;

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<std::uint64_t> keys(n);
  for (auto& key : keys) key = rng() % (n / 4);  // ~4 hits per key
  return keys;
}

/// The projection inner loop's shape: hash + probe + increment per key.
/// noinline so both variants compare the same codegen boundary.
__attribute__((noinline)) std::size_t loop_plain(const std::vector<std::uint64_t>& keys,
                                                 util::FlatCounter& table) {
  for (const auto key : keys) table.increment_unchecked(key);
  return table.size();
}

__attribute__((noinline)) std::size_t loop_instrumented(
    const std::vector<std::uint64_t>& keys, util::FlatCounter& table) {
  static obs::Counter& counter = obs::metrics().counter("bench.obs.pair_events");
  for (const auto key : keys) {
    counter.add(1);  // one guarded event per key: the worst-case density
    table.increment_unchecked(key);
  }
  return table.size();
}

double best_wall_ms(const std::function<void()>& fn, int reps = 5) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch watch;
    fn();
    best = std::min(best, watch.millis());
  }
  return best;
}

void BM_PairCountPlain(benchmark::State& state) {
  const auto keys = random_keys(kKeys, 1);
  for (auto _ : state) {
    util::FlatCounter table{kKeys / 4};
    table.ensure(keys.size());
    benchmark::DoNotOptimize(loop_plain(keys, table));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKeys));
}
BENCHMARK(BM_PairCountPlain);

void BM_PairCountInstrumentedDisabled(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  const auto keys = random_keys(kKeys, 1);
  for (auto _ : state) {
    util::FlatCounter table{kKeys / 4};
    table.ensure(keys.size());
    benchmark::DoNotOptimize(loop_instrumented(keys, table));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKeys));
}
BENCHMARK(BM_PairCountInstrumentedDisabled);

void BM_PairCountInstrumentedEnabled(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  const auto keys = random_keys(kKeys, 1);
  for (auto _ : state) {
    util::FlatCounter table{kKeys / 4};
    table.ensure(keys.size());
    benchmark::DoNotOptimize(loop_instrumented(keys, table));
  }
  obs::set_metrics_enabled(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKeys));
}
BENCHMARK(BM_PairCountInstrumentedEnabled);

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

// ------------------------------------------ supervised telemetry section

/// The faultsim mini-pipeline shape: small enough that seven runs stay in
/// bench territory, real enough that all 13 worker tasks execute.
core::RunOptions mini_run_options(const std::string& workdir) {
  core::RunOptions options;
  options.workdir = workdir;
  options.supervise.workers = 2;
  options.supervise.projection_shards = 2;
  options.supervise.max_retries = 2;
  options.supervise.heartbeat_interval_seconds = 0.05;
  auto& config = options.config;
  config.trace.seed = 31;
  config.trace.hosts = 24;
  config.trace.days = 2;
  config.trace.benign_sites = 100;
  config.trace.malware_families = 3;
  config.trace.min_victims = 3;
  config.trace.max_victims = 8;
  config.embedding_dimension = 8;
  config.embedding.line.total_samples = 20'000;
  config.kfold = 3;
  return options;
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [counter, value] : snapshot.counters) {
    if (counter == name) return value;
  }
  return 0;
}

struct SupervisedTelemetry {
  std::uint64_t single_edges = 0, merged_edges = 0;
  std::uint64_t single_samples = 0, merged_samples = 0;
  std::size_t lanes = 0, tasks_run = 0;
  double off_ms = 0.0, on_ms = 0.0, overhead = 0.0;
  bool counters_match = false;
};

SupervisedTelemetry measure_supervised_telemetry(bool smoke) {
  SupervisedTelemetry result;
  const auto scratch =
      (std::filesystem::temp_directory_path() / "dnsembed_micro_obs").string();
  std::filesystem::remove_all(scratch);

  const auto telemetry = [](bool on) {
    obs::set_metrics_enabled(on);
    obs::SpanRecorder::instance().set_enabled(on);
    obs::metrics().reset_values();
    obs::SpanRecorder::instance().clear();
  };
  const int reps = smoke ? 1 : 3;

  // Single-process totals of the two deterministic pipeline counters:
  // disjoint projection edge emissions, one add per LINE SGD sample.
  telemetry(true);
  auto single = mini_run_options(scratch + "/single");
  single.supervise.workers = 0;
  (void)core::run_resumable(single);
  {
    const auto snapshot = obs::metrics().snapshot();
    result.single_edges = counter_value(snapshot, "graph.projection.edges");
    result.single_samples = counter_value(snapshot, "embed.line.samples");
  }

  // Supervised, telemetry on: sidecar write + merge in the measured path.
  double on_best = 1e300;
  for (int r = 0; r < reps; ++r) {
    telemetry(true);
    util::Stopwatch watch;
    const auto summary =
        core::run_resumable(mini_run_options(scratch + "/on" + std::to_string(r)));
    on_best = std::min(on_best, watch.millis());
    if (r == 0) {
      const auto snapshot = obs::metrics().snapshot();
      result.merged_edges = counter_value(snapshot, "graph.projection.edges");
      result.merged_samples = counter_value(snapshot, "embed.line.samples");
      result.lanes = obs::SpanRecorder::instance().process_lanes().size();
      result.tasks_run = summary.supervision.tasks_run;
    }
  }

  // Supervised, telemetry off: same run, no sidecars written or merged.
  double off_best = 1e300;
  for (int r = 0; r < reps; ++r) {
    telemetry(false);
    util::Stopwatch watch;
    (void)core::run_resumable(mini_run_options(scratch + "/off" + std::to_string(r)));
    off_best = std::min(off_best, watch.millis());
  }

  telemetry(false);
  std::filesystem::remove_all(scratch);
  result.on_ms = on_best;
  result.off_ms = off_best;
  result.overhead = on_best / off_best - 1.0;
  result.counters_match = result.merged_edges == result.single_edges &&
                          result.merged_samples == result.single_samples &&
                          result.single_edges > 0 && result.single_samples > 0;
  return result;
}

/// Gate + BENCH_obs.json. Returns nonzero when the disabled-path overhead
/// on the pair-count kernel exceeds the 3% budget.
int write_obs_json() {
  const char* path = std::getenv("DNSEMBED_BENCH_JSON");
  if (path == nullptr) path = "BENCH_obs.json";
  constexpr double kBudget = 0.03;

  const auto keys = random_keys(kKeys, 1);
  const auto run = [&](auto&& loop) {
    return best_wall_ms([&] {
      util::FlatCounter table{kKeys / 4};
      table.ensure(keys.size());
      benchmark::DoNotOptimize(loop(keys, table));
    });
  };

  obs::set_metrics_enabled(false);
  const double plain_ms = run(loop_plain);
  const double disabled_ms = run(loop_instrumented);
  obs::set_metrics_enabled(true);
  const double enabled_ms = run(loop_instrumented);
  obs::set_metrics_enabled(false);

  // Informational: the production projection with per-pivot instrumentation.
  const auto g = random_bipartite(200, 1000, 100000, 2);
  graph::ProjectionOptions options;
  options.threads = 1;
  const double project_disabled_ms =
      best_wall_ms([&] { benchmark::DoNotOptimize(graph::project_right(g, options)); }, 3);
  obs::set_metrics_enabled(true);
  const double project_enabled_ms =
      best_wall_ms([&] { benchmark::DoNotOptimize(graph::project_right(g, options)); }, 3);
  obs::set_metrics_enabled(false);

  const double disabled_overhead = disabled_ms / plain_ms - 1.0;
  const double enabled_overhead = enabled_ms / plain_ms - 1.0;
  const double project_overhead = project_enabled_ms / project_disabled_ms - 1.0;

  const bool smoke = std::getenv("DNSEMBED_BENCH_SMOKE") != nullptr;
  const auto supervised = measure_supervised_telemetry(smoke);

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_obs: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"events\": %zu,\n"
               "  \"pair_count_plain_ms\": %.3f,\n"
               "  \"pair_count_instrumented_disabled_ms\": %.3f,\n"
               "  \"pair_count_instrumented_enabled_ms\": %.3f,\n"
               "  \"disabled_overhead\": %.4f,\n"
               "  \"enabled_overhead\": %.4f,\n"
               "  \"project_right_disabled_ms\": %.3f,\n"
               "  \"project_right_enabled_ms\": %.3f,\n"
               "  \"project_right_enabled_overhead\": %.4f,\n"
               "  \"budget\": %.2f,\n"
               "  \"supervised\": {\n"
               "    \"smoke\": %s,\n"
               "    \"merged_counters_match\": %s,\n"
               "    \"projection_edges\": %llu,\n"
               "    \"line_samples\": %llu,\n"
               "    \"trace_lanes\": %zu,\n"
               "    \"tasks_run\": %zu,\n"
               "    \"telemetry_off_ms\": %.1f,\n"
               "    \"telemetry_on_ms\": %.1f,\n"
               "    \"sidecar_overhead\": %.4f\n"
               "  }\n"
               "}\n",
               kKeys, plain_ms, disabled_ms, enabled_ms, disabled_overhead,
               enabled_overhead, project_disabled_ms, project_enabled_ms,
               project_overhead, kBudget, smoke ? "true" : "false",
               supervised.counters_match ? "true" : "false",
               static_cast<unsigned long long>(supervised.merged_edges),
               static_cast<unsigned long long>(supervised.merged_samples),
               supervised.lanes, supervised.tasks_run, supervised.off_ms,
               supervised.on_ms, supervised.overhead);
  std::fclose(out);

  std::printf("wrote %s\n", path);
  std::printf("disabled-path overhead: %.2f%% (budget %.0f%%); enabled: %.2f%%; "
              "project_right enabled: %.2f%%\n",
              disabled_overhead * 100.0, kBudget * 100.0, enabled_overhead * 100.0,
              project_overhead * 100.0);
  std::printf("supervised mini-run: merged counters %s (%llu edges, %llu samples), "
              "%zu trace lanes; sidecar overhead %.2f%%%s\n",
              supervised.counters_match ? "match" : "DIVERGED",
              static_cast<unsigned long long>(supervised.merged_edges),
              static_cast<unsigned long long>(supervised.merged_samples),
              supervised.lanes, supervised.overhead * 100.0,
              smoke ? " (smoke: not gated)" : "");
  int rc = 0;
  // Timing gates are skipped in smoke mode: one rep on a busy CI box flaps
  // around a 3% budget. Correctness gates below always run.
  if (!smoke && disabled_overhead > kBudget) {
    std::fprintf(stderr,
                 "micro_obs: FAIL: disabled instrumentation costs %.2f%% on the "
                 "pair-count loop (budget %.0f%%)\n",
                 disabled_overhead * 100.0, kBudget * 100.0);
    rc = 1;
  }
  if (!supervised.counters_match) {
    std::fprintf(stderr,
                 "micro_obs: FAIL: merged worker counters diverged from the "
                 "single-process run (edges %llu vs %llu, samples %llu vs %llu)\n",
                 static_cast<unsigned long long>(supervised.merged_edges),
                 static_cast<unsigned long long>(supervised.single_edges),
                 static_cast<unsigned long long>(supervised.merged_samples),
                 static_cast<unsigned long long>(supervised.single_samples));
    rc = 1;
  }
  if (supervised.lanes != supervised.tasks_run) {
    std::fprintf(stderr,
                 "micro_obs: FAIL: merged trace has %zu process lanes for %zu "
                 "worker tasks\n",
                 supervised.lanes, supervised.tasks_run);
    rc = 1;
  }
  if (!smoke && supervised.overhead > kBudget) {
    std::fprintf(stderr,
                 "micro_obs: FAIL: sidecar write+merge costs %.2f%% on the "
                 "supervised mini-run (budget %.0f%%)\n",
                 supervised.overhead * 100.0, kBudget * 100.0);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_obs_json();
}
