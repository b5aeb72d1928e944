// Supervised-runner smoke bench. Runs the same pipeline config three ways —
// single-process reference, --workers 1, and --workers 4 with every task's
// first attempt crash-injected — and FAILS (nonzero exit) unless every
// supervised run matches the reference byte for byte: report.md and
// manifest.run, which holds the digest of every stage artifact. This is the
// determinism contract of the orchestrator ("bit-identical at any worker
// count, even through retries") gated as an executable check, with the
// wall times and restart counters recorded for trend-watching.
//
// Each repetition runs the three configurations in turn, so a slow phase of
// a shared vCPU falls on all of them alike; the record keeps the min and
// median wall time of each over the repetitions.
//
// No timing gate: worker count trades latency for isolation on this box's
// core count, so the numbers are informational. Results land in
// BENCH_run.json (override with DNSEMBED_BENCH_JSON); DNSEMBED_BENCH_SMOKE=1
// shrinks the trace and runs one repetition for CI.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/run.hpp"
#include "util/fsio.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dnsembed;

core::RunOptions base_options(const std::string& workdir, bool smoke) {
  core::RunOptions options;
  options.workdir = workdir;
  auto& config = options.config;
  config.trace.seed = 31;
  config.trace.hosts = smoke ? 40 : 80;
  config.trace.days = 2;
  config.trace.benign_sites = smoke ? 150 : 300;
  config.trace.malware_families = 4;
  config.trace.min_victims = 3;
  config.trace.max_victims = 8;
  config.embedding_dimension = 8;
  config.embedding.line.total_samples = smoke ? 50'000 : 200'000;
  config.kfold = 3;
  config.xmeans.k_min = 4;
  config.xmeans.k_max = 16;
  return options;
}

/// One configuration's runs: wall times, the last run's supervisor
/// counters (the same every repetition), and whether every run wrote the
/// reference bytes.
struct Config {
  const char* name;
  core::RunOptions options;
  std::vector<double> wall_ms;
  core::SupervisionStats supervision;
  bool identical = true;
};

/// Runs `config` once in a fresh workdir; returns report.md followed by
/// manifest.run.
std::string timed_run(Config& config) {
  std::filesystem::remove_all(config.options.workdir);
  util::Stopwatch watch;
  const auto summary = core::run_resumable(config.options);
  config.wall_ms.push_back(watch.millis());
  config.supervision = summary.supervision;
  return util::fsio::read_file(summary.report_path) +
         util::fsio::read_file(config.options.workdir + "/manifest.run");
}

}  // namespace

int main() {
  const bool smoke = std::getenv("DNSEMBED_BENCH_SMOKE") != nullptr;
  const char* json_path = std::getenv("DNSEMBED_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_run.json";
  const int repetitions = smoke ? 1 : 3;

  const auto scratch =
      (std::filesystem::temp_directory_path() / "dnsembed_micro_run").string();
  std::filesystem::remove_all(scratch);

  // Single-process reference.
  Config reference{"single_process", base_options(scratch + "/ref", smoke), {}, {}, true};
  // --workers 1: same task decomposition, one child in flight.
  Config w1{"workers1", base_options(scratch + "/w1", smoke), {}, {}, true};
  w1.options.supervise.workers = 1;
  // --workers 4 with every task's first attempt killed (exit 137): the
  // supervisor must restart each task once and still converge on the
  // reference bytes.
  Config w4{"workers4_crash_injected", base_options(scratch + "/w4", smoke), {}, {}, true};
  w4.options.supervise.workers = 4;
  w4.options.supervise.process_faults.proc_crash_rate = 1.0;
  w4.options.supervise.process_faults.proc_max_faults_per_task = 1;

  std::string reference_outputs;
  for (int r = 0; r < repetitions; ++r) {
    const auto outputs = timed_run(reference);
    if (r == 0) reference_outputs = outputs;
    reference.identical = reference.identical && outputs == reference_outputs;
    w1.identical = w1.identical && timed_run(w1) == reference_outputs;
    w4.identical = w4.identical && timed_run(w4) == reference_outputs;
  }
  std::filesystem::remove_all(scratch);

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_run: cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"smoke\": %s,\n  ", smoke ? "true" : "false");
  bench::write_machine_json(out);
  std::fprintf(out, ",\n  \"repetitions\": %d", repetitions);
  for (const Config* config : {&reference, &w1, &w4}) {
    const auto wall = bench::summarize(config->wall_ms);
    const auto& sv = config->supervision;
    std::fprintf(out,
                 ",\n  \"%s\": {\"min_ms\": %.1f, \"median_ms\": %.1f, \"tasks_run\": %zu, "
                 "\"restarts\": %zu, \"crashes\": %zu, \"report_identical\": %s}",
                 config->name, wall.min_ms, wall.median_ms, sv.tasks_run, sv.restarts,
                 sv.crashes, config->identical ? "true" : "false");
  }
  std::fprintf(out, "\n}\n");
  std::fclose(out);

  std::printf("wrote %s\n", json_path);
  std::printf(
      "median of %d: single-process %.0f ms; workers=1 %.0f ms (%zu tasks); workers=4 with "
      "crash injection %.0f ms (%zu restarts)\n",
      repetitions, bench::summarize(reference.wall_ms).median_ms,
      bench::summarize(w1.wall_ms).median_ms, w1.supervision.tasks_run,
      bench::summarize(w4.wall_ms).median_ms, w4.supervision.restarts);
  if (!reference.identical || !w1.identical || !w4.identical) {
    std::fprintf(stderr,
                 "micro_run: FAIL: a report or manifest diverged from the first "
                 "single-process run (single=%s workers1=%s workers4=%s)\n",
                 reference.identical ? "ok" : "DIFF", w1.identical ? "ok" : "DIFF",
                 w4.identical ? "ok" : "DIFF");
    return 1;
  }
  return 0;
}
