// Supervised-runner smoke bench. Runs the same pipeline config three ways —
// single-process reference, --workers 1, and --workers 4 with every task's
// first attempt crash-injected — and FAILS (nonzero exit) unless both
// supervised runs match the reference byte for byte: report.md and
// manifest.run, which holds the digest of every stage artifact. This is the
// determinism contract of the orchestrator ("bit-identical at any worker
// count, even through retries") gated as an executable check, with the
// wall times and restart counters recorded for trend-watching.
//
// No timing gate: worker count trades latency for isolation on this box's
// core count, so the numbers are informational. Results land in
// BENCH_run.json (override with DNSEMBED_BENCH_JSON); DNSEMBED_BENCH_SMOKE=1
// shrinks the trace for CI.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

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

struct RunResult {
  double wall_ms = 0.0;
  core::RunSummary summary;
  /// report.md followed by manifest.run.
  std::string outputs;
};

RunResult timed_run(const core::RunOptions& options) {
  util::Stopwatch watch;
  RunResult result;
  result.summary = core::run_resumable(options);
  result.wall_ms = watch.millis();
  result.outputs = util::fsio::read_file(result.summary.report_path) +
                   util::fsio::read_file(options.workdir + "/manifest.run");
  return result;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("DNSEMBED_BENCH_SMOKE") != nullptr;
  const char* json_path = std::getenv("DNSEMBED_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_run.json";

  const auto scratch =
      (std::filesystem::temp_directory_path() / "dnsembed_micro_run").string();
  std::filesystem::remove_all(scratch);

  // Single-process reference.
  const auto reference = timed_run(base_options(scratch + "/ref", smoke));

  // --workers 1: same task decomposition, one child in flight.
  auto w1_options = base_options(scratch + "/w1", smoke);
  w1_options.supervise.workers = 1;
  w1_options.supervise.projection_shards = 2;
  const auto w1 = timed_run(w1_options);

  // --workers 4 with every task's first attempt killed (exit 137): the
  // supervisor must restart each task once and still converge on the
  // reference bytes.
  auto w4_options = base_options(scratch + "/w4", smoke);
  w4_options.supervise.workers = 4;
  w4_options.supervise.projection_shards = 2;
  w4_options.supervise.process_faults.proc_crash_rate = 1.0;
  w4_options.supervise.process_faults.proc_max_faults_per_task = 1;
  const auto w4 = timed_run(w4_options);

  const bool w1_identical = w1.outputs == reference.outputs;
  const bool w4_identical = w4.outputs == reference.outputs;
  std::filesystem::remove_all(scratch);

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_run: cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"smoke\": %s,\n"
               "  \"single_process_ms\": %.1f,\n"
               "  \"workers1_ms\": %.1f,\n"
               "  \"workers1_tasks_run\": %zu,\n"
               "  \"workers1_restarts\": %zu,\n"
               "  \"workers1_report_identical\": %s,\n"
               "  \"workers4_crash_injected_ms\": %.1f,\n"
               "  \"workers4_tasks_run\": %zu,\n"
               "  \"workers4_restarts\": %zu,\n"
               "  \"workers4_crashes\": %zu,\n"
               "  \"workers4_report_identical\": %s\n"
               "}\n",
               smoke ? "true" : "false", reference.wall_ms, w1.wall_ms,
               w1.summary.supervision.tasks_run,
               w1.summary.supervision.restarts, w1_identical ? "true" : "false",
               w4.wall_ms, w4.summary.supervision.tasks_run,
               w4.summary.supervision.restarts, w4.summary.supervision.crashes,
               w4_identical ? "true" : "false");
  std::fclose(out);

  std::printf("wrote %s\n", json_path);
  std::printf(
      "single-process %.0f ms; workers=1 %.0f ms (%zu tasks); workers=4 with "
      "crash injection %.0f ms (%zu restarts)\n",
      reference.wall_ms, w1.wall_ms, w1.summary.supervision.tasks_run,
      w4.wall_ms, w4.summary.supervision.restarts);
  if (!w1_identical || !w4_identical) {
    std::fprintf(stderr,
                 "micro_run: FAIL: supervised report or manifest diverged from "
                 "the single-process reference (workers1=%s workers4=%s)\n",
                 w1_identical ? "ok" : "DIFF", w4_identical ? "ok" : "DIFF");
    return 1;
  }
  return 0;
}
