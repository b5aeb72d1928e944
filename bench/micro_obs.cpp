// Observability overhead microbench. The obs design promises that
// telemetry costs little beside the work it describes. This binary
// measures the code production runs and FAILS (nonzero exit) when an
// overhead exceeds 3%, so a regression cannot land silently.
//
//  1. project_right(), metrics enabled vs disabled. The projection counts
//     its telemetry into locals in the pivot pre-pass and publishes it once
//     per call; its row loop carries no instrumentation. The two variants
//     run interleaved (disabled, enabled, enabled, disabled, ...) on one
//     CPU, and the gate reads the median of each round's enabled/disabled
//     ratio, so a slow phase of a shared vCPU hits both alike instead of
//     one of them.
//
// Cross-process telemetry on a supervised mini-run (2 workers, one
// projection task per channel):
//  2. Correctness: the deterministic pipeline telemetry merged from worker
//     sidecars (projection edges, pivots and pairs, the pivot-degree
//     histogram, LINE samples) must equal the single-process totals
//     exactly, and the trace must carry one process lane per worker task.
//     Always enforced, even in smoke mode.
//  3. Cost: the sidecar work telemetry adds to a supervised run, timed
//     directly rather than read off two noisy run walls. Each task costs
//     one sidecar encode in the worker, after its body returns, and one
//     decode + merge + lane import in the supervisor; the bytes travel on
//     the worker's pipe, and no file is written. Right after each run, both
//     operations are timed once per task on that task's spans (its trace
//     lane of the run) with the whole single-process run's counters,
//     histograms and records (an upper bound: a task records only its own
//     share), put back into this process's registry first, so a run and
//     its sidecar cost share the vCPU's current speed. The sum, counted as
//     if none of it overlapped other work (an upper bound too: two workers
//     run side by side), over the rest of that run's wall is the round's
//     overhead; the gate reads the median over the rounds.
// Timing gates are skipped under DNSEMBED_BENCH_SMOKE=1, which runs one
// round of each.
//
// Results land in BENCH_obs.json (override with DNSEMBED_BENCH_JSON).
#include <benchmark/benchmark.h>
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/run.hpp"
#include "graph/bipartite.hpp"
#include "graph/projection.hpp"
#include "obs/metrics.hpp"
#include "obs/sidecar.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

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

/// The timed graph: 200 hosts, 300 domains, 20k random edges. One pass
/// takes a few milliseconds, so the two variants of a round run within one
/// speed phase of a shared vCPU. The graph is small, so the per-call
/// publish weighs more here than on a campus-size graph.
const graph::BipartiteGraph& timed_graph() {
  static const graph::BipartiteGraph g = random_bipartite(200, 300, 20000, 2);
  return g;
}

/// Pins the calling thread to the CPU it is on while alive, so a timed
/// in-process loop does not migrate between vCPUs of different speeds
/// mid-sample; the previous affinity mask is restored afterwards.
class PinToCurrentCpu {
 public:
  PinToCurrentCpu() {
    if (sched_getaffinity(0, sizeof previous_, &previous_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinToCurrentCpu() {
    if (pinned_) sched_setaffinity(0, sizeof previous_, &previous_);
  }
  PinToCurrentCpu(const PinToCurrentCpu&) = delete;
  PinToCurrentCpu& operator=(const PinToCurrentCpu&) = delete;

 private:
  cpu_set_t previous_{};
  bool pinned_ = false;
};

// ------------------------------------------ supervised telemetry section

/// The faultsim mini-pipeline shape: small enough that ten runs stay in
/// bench territory, real enough that all 10 worker tasks execute.
core::RunOptions mini_run_options(const std::string& workdir) {
  core::RunOptions options;
  options.workdir = workdir;
  options.supervise.workers = 2;
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

/// The deterministic pipeline telemetry a supervised run must reproduce
/// once its workers' sidecars are merged.
struct PipelineCounters {
  std::uint64_t edges = 0, pivots = 0, pairs = 0, samples = 0;
  std::vector<std::uint64_t> pivot_degree;  // bucket counts

  static PipelineCounters of(const obs::MetricsSnapshot& snapshot) {
    PipelineCounters counters;
    counters.edges = counter_value(snapshot, "graph.projection.edges");
    counters.pivots = counter_value(snapshot, "graph.projection.pivots");
    counters.pairs = counter_value(snapshot, "graph.projection.pairs");
    counters.samples = counter_value(snapshot, "embed.line.samples");
    for (const auto& histogram : snapshot.histograms) {
      if (histogram.name == "graph.projection.pivot_degree") {
        counters.pivot_degree = histogram.buckets;
      }
    }
    return counters;
  }

  bool operator==(const PipelineCounters&) const = default;
};

/// One task's sidecar operations, timed in this process: the fastest of a
/// few repetitions of each.
struct SidecarOps {
  double encode_ms = 0.0;  // the worker's encode
  double merge_ms = 0.0;   // the supervisor's decode + merge + lane import
};

/// Before every encode this process's registry and span buffer are put
/// back into the state `telemetry` describes (untimed): its counters,
/// histograms, records and spans.
SidecarOps time_task_sidecar(const obs::TelemetrySidecar& telemetry, int repetitions) {
  const auto worker_state = [&] {
    obs::metrics().reset_values();
    auto& recorder = obs::SpanRecorder::instance();
    recorder.clear();
    obs::merge_sidecar_metrics(telemetry);
    for (const auto& record : telemetry.records) {
      obs::metrics().append_record(record.name, record.fields);
    }
    for (const auto& event : telemetry.spans) {
      recorder.record(event.name, event.begin_ns, event.end_ns, event.seq);
    }
  };
  std::vector<double> encode_ms, merge_ms;
  for (int k = 0; k < repetitions; ++k) {
    worker_state();
    util::Stopwatch encode;
    const std::string bytes = obs::encode_telemetry_sidecar();
    encode_ms.push_back(encode.millis());
    util::Stopwatch merge;
    auto merged = obs::decode_telemetry_sidecar(bytes, "bench");
    obs::merge_sidecar_metrics(merged);
    obs::SpanRecorder::instance().add_process_lane("bench", std::move(merged.spans));
    merge_ms.push_back(merge.millis());
  }
  return {bench::summarize(std::move(encode_ms)).min_ms,
          bench::summarize(std::move(merge_ms)).min_ms};
}

double median(std::vector<double> values) {
  return bench::summarize(std::move(values)).median_ms;
}

struct SupervisedTelemetry {
  PipelineCounters single, merged;
  std::size_t lanes = 0, tasks_run = 0;
  // Per round, over that round's tasks:
  bench::Timing wall;        // the supervised run
  bench::Timing encode;      // encodes, summed
  bench::Timing merge;       // decodes + merges, summed
  bench::Timing sidecar;     // encodes and merges, summed
  double overhead = 0.0;     // median over rounds of sidecar / other wall
  bool counters_match = false;
};

SupervisedTelemetry measure_supervised_telemetry(int rounds, int repetitions) {
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

  // Single-process totals of the deterministic pipeline telemetry, and the
  // whole run's counters, histograms and records, which each task's
  // sidecar is timed with.
  telemetry(true);
  auto single = mini_run_options(scratch + "/single");
  single.supervise.workers = 0;
  (void)core::run_resumable(single);
  result.single = PipelineCounters::of(obs::metrics().snapshot());
  auto run_metrics = obs::decode_telemetry_sidecar(obs::encode_telemetry_sidecar(), "single");
  run_metrics.spans.clear();

  // Supervised runs with telemetry on; the first supplies the merged
  // counters and trace lanes. Right after each run the sidecar operations
  // are timed, so the run's wall and its sidecar cost share the vCPU's
  // current speed: each task (one trace lane) costs one encode and one
  // merge.
  std::vector<double> walls, encodes, merges, sidecars, ratios;
  for (int r = 0; r < rounds; ++r) {
    telemetry(true);
    const auto workdir = scratch + "/run" + std::to_string(r);
    util::Stopwatch watch;
    const auto summary = core::run_resumable(mini_run_options(workdir));
    const double wall_ms = watch.millis();
    if (r == 0) {
      result.merged = PipelineCounters::of(obs::metrics().snapshot());
      result.lanes = obs::SpanRecorder::instance().process_lanes().size();
      result.tasks_run = summary.supervision.tasks_run;
    }
    double encode_ms = 0.0, merge_ms = 0.0, sidecar_ms = 0.0;
    for (auto& lane : obs::SpanRecorder::instance().process_lanes()) {
      auto task_telemetry = run_metrics;
      task_telemetry.spans = std::move(lane.events);
      const auto ops = time_task_sidecar(task_telemetry, repetitions);
      encode_ms += ops.encode_ms;
      merge_ms += ops.merge_ms;
      sidecar_ms += ops.encode_ms + ops.merge_ms;
    }
    walls.push_back(wall_ms);
    encodes.push_back(encode_ms);
    merges.push_back(merge_ms);
    sidecars.push_back(sidecar_ms);
    ratios.push_back(sidecar_ms / (wall_ms - sidecar_ms));
  }
  telemetry(false);
  std::filesystem::remove_all(scratch);

  result.wall = bench::summarize(std::move(walls));
  result.encode = bench::summarize(std::move(encodes));
  result.merge = bench::summarize(std::move(merges));
  result.sidecar = bench::summarize(std::move(sidecars));
  result.overhead = median(std::move(ratios));
  result.counters_match = result.merged == result.single && result.single.edges > 0 &&
                          result.single.pairs > 0 && result.single.samples > 0 &&
                          !result.single.pivot_degree.empty();
  return result;
}

void write_timing(std::FILE* out, const char* name, const bench::Timing& t) {
  std::fprintf(out, "\"%s\": {\"min_ms\": %.3f, \"median_ms\": %.3f}", name, t.min_ms,
               t.median_ms);
}

struct ProjectRightTimings {
  bench::Timing disabled, enabled;
  double overhead = 0.0;  // median over rounds of enabled / disabled, minus 1
};

/// Measurement 1 on one CPU (project_right runs inline at threads = 1).
/// Each round times both variants back to back, in alternating order, so a
/// slow phase of a shared vCPU, or a cost left behind by the previous
/// variant, falls on both alike; the overhead is the median of the rounds'
/// ratios. (A ratio of minimums swung by ±25% here: a minimum needs both
/// variants to catch the guest's fastest phase.)
ProjectRightTimings measure_project_right(int rounds) {
  const PinToCurrentCpu pin;
  const auto& g = timed_graph();
  graph::ProjectionOptions options;
  options.threads = 1;
  const auto time_once = [&](bool metrics) {
    obs::set_metrics_enabled(metrics);
    util::Stopwatch watch;
    benchmark::DoNotOptimize(graph::project_right(g, options));
    return watch.millis();
  };
  std::vector<double> disabled, enabled, ratios;
  for (int r = 0; r < rounds; ++r) {
    const bool enabled_first = r % 2 == 1;
    const double first = time_once(enabled_first);
    const double second = time_once(!enabled_first);
    disabled.push_back(enabled_first ? second : first);
    enabled.push_back(enabled_first ? first : second);
    ratios.push_back(enabled.back() / disabled.back());
  }
  obs::set_metrics_enabled(false);
  return {bench::summarize(std::move(disabled)), bench::summarize(std::move(enabled)),
          median(std::move(ratios)) - 1.0};
}

/// Gates + BENCH_obs.json. Returns nonzero when a gate fails.
int write_obs_json() {
  const char* path = std::getenv("DNSEMBED_BENCH_JSON");
  if (path == nullptr) path = "BENCH_obs.json";
  constexpr double kBudget = 0.03;
  const bool smoke = std::getenv("DNSEMBED_BENCH_SMOKE") != nullptr;
  const int rounds = smoke ? 1 : 401;
  const int run_rounds = smoke ? 1 : 9;
  const int repetitions = smoke ? 1 : 3;

  const auto project = measure_project_right(rounds);
  const double project_overhead = project.overhead;
  const auto supervised = measure_supervised_telemetry(run_rounds, repetitions);

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_obs: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out, "{\n  \"smoke\": %s,\n  ", smoke ? "true" : "false");
  bench::write_machine_json(out);
  std::fprintf(out, ",\n  \"budget\": %.2f,\n", kBudget);
  std::fprintf(out, "  \"project_right\": {\"rounds\": %d, ", rounds);
  write_timing(out, "disabled", project.disabled);
  std::fprintf(out, ", ");
  write_timing(out, "enabled", project.enabled);
  std::fprintf(out, ", \"enabled_overhead\": %.4f},\n", project_overhead);
  std::fprintf(out,
               "  \"supervised\": {\"merged_counters_match\": %s, "
               "\"projection_edges\": %llu, \"projection_pivots\": %llu, "
               "\"projection_pairs\": %llu, \"line_samples\": %llu, \"trace_lanes\": %zu, "
               "\"tasks_run\": %zu, \"rounds\": %d, ",
               supervised.counters_match ? "true" : "false",
               static_cast<unsigned long long>(supervised.merged.edges),
               static_cast<unsigned long long>(supervised.merged.pivots),
               static_cast<unsigned long long>(supervised.merged.pairs),
               static_cast<unsigned long long>(supervised.merged.samples), supervised.lanes,
               supervised.tasks_run, run_rounds);
  write_timing(out, "wall", supervised.wall);
  std::fprintf(out, ",\n    \"repetitions\": %d, ", repetitions);
  write_timing(out, "encode", supervised.encode);
  std::fprintf(out, ", ");
  write_timing(out, "merge", supervised.merge);
  std::fprintf(out, ", ");
  write_timing(out, "sidecar", supervised.sidecar);
  std::fprintf(out, ", \"sidecar_overhead\": %.4f}\n}\n", supervised.overhead);
  std::fclose(out);

  std::printf("wrote %s\n", path);
  std::printf("project_right metrics enabled: %.2f%% (budget %.0f%%)\n",
              project_overhead * 100.0, kBudget * 100.0);
  std::printf("supervised mini-run: merged counters %s (%llu edges, %llu samples), "
              "%zu trace lanes; sidecars (median) %.2f ms of a %.1f ms run (%zu tasks): "
              "%.2f%%%s\n",
              supervised.counters_match ? "match" : "DIVERGED",
              static_cast<unsigned long long>(supervised.merged.edges),
              static_cast<unsigned long long>(supervised.merged.samples), supervised.lanes,
              supervised.sidecar.median_ms, supervised.wall.median_ms, supervised.tasks_run,
              supervised.overhead * 100.0,
              smoke ? " (smoke: not gated)" : "");
  int rc = 0;
  // Timing gates are skipped in smoke mode: one round on a busy CI box
  // flaps around a 3% budget. Correctness gates below always run.
  const auto timing_gate = [&](double value, const char* what) {
    if (smoke || value <= kBudget) return;
    std::fprintf(stderr, "micro_obs: FAIL: %s costs %.2f%% (budget %.0f%%)\n", what,
                 value * 100.0, kBudget * 100.0);
    rc = 1;
  };
  timing_gate(project_overhead, "enabled metrics on project_right");
  timing_gate(supervised.overhead, "sidecar encode+merge on the supervised mini-run");
  if (!supervised.counters_match) {
    const auto& merged = supervised.merged;
    const auto& single = supervised.single;
    std::fprintf(stderr,
                 "micro_obs: FAIL: merged worker telemetry diverged from the "
                 "single-process run (edges %llu vs %llu, pivots %llu vs %llu, pairs %llu vs "
                 "%llu, samples %llu vs %llu, pivot_degree buckets %s)\n",
                 static_cast<unsigned long long>(merged.edges),
                 static_cast<unsigned long long>(single.edges),
                 static_cast<unsigned long long>(merged.pivots),
                 static_cast<unsigned long long>(single.pivots),
                 static_cast<unsigned long long>(merged.pairs),
                 static_cast<unsigned long long>(single.pairs),
                 static_cast<unsigned long long>(merged.samples),
                 static_cast<unsigned long long>(single.samples),
                 merged.pivot_degree == single.pivot_degree ? "equal" : "differ");
    rc = 1;
  }
  if (supervised.lanes != supervised.tasks_run) {
    std::fprintf(stderr,
                 "micro_obs: FAIL: merged trace has %zu process lanes for %zu "
                 "worker tasks\n",
                 supervised.lanes, supervised.tasks_run);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main() { return write_obs_json(); }
