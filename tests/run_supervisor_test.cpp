// Supervised (multi-process) runner: at any worker count the report and
// every stage artifact (the digests in manifest.run) must be byte-identical
// to the inline run; injected worker crashes, hangs, and garbage outputs
// must be detected, retried, and still converge on the same bytes; a
// channel's projection task that exhausts its retry budget must be
// quarantined (edgeless graph, degraded report + manifest row) and
// the quarantine must survive --resume; a mid-stage deadline hit must leave
// the workdir resumable to an identical report; a worker must exit as soon
// as its body returns, not a heartbeat interval later; the per-task resource
// rows must come in first-spawn order.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/run.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/fsio.hpp"

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

RunOptions supervised_options(const std::string& workdir) {
  auto options = small_options(workdir);
  options.supervise.workers = 2;
  options.supervise.max_retries = 2;
  options.supervise.heartbeat_interval_seconds = 0.05;
  return options;
}

// A supervised run decomposes into exactly 10 tasks: trace, behavior.prune,
// 3 channel projections, 3 channel embeds, labels, report.
constexpr std::size_t kTaskCount = 10;

class RunSupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One workdir per test case: ctest runs the discovered cases in
    // parallel, so a shared directory would be clobbered mid-run.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string{"dnsembed_run_supervisor_"} + info->name()))
               .string();
    fs::remove_all(dir_);
    fs::remove_all(dir_ + "_ref");
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::remove_all(dir_ + "_ref", ec);
  }

  /// Report bytes of an uninterrupted single-process run of the same config.
  std::string reference_report() {
    const auto summary = run_resumable(small_options(dir_ + "_ref"));
    return util::fsio::read_file(summary.report_path);
  }

  /// Manifest of the reference run: each stage's key plus the digest of
  /// every stage artifact.
  std::string reference_manifest() const {
    return util::fsio::read_file(dir_ + "_ref/manifest.run");
  }

  /// The names of the files and directories directly under `dir`, sorted.
  static std::vector<std::string> entries(const std::string& dir) {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator{dir}) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  std::string dir_;
};

TEST_F(RunSupervisorTest, SupervisedReportMatchesSingleProcess) {
  const auto reference = reference_report();

  const auto summary = run_resumable(supervised_options(dir_));
  EXPECT_EQ(util::fsio::read_file(summary.report_path), reference);
  EXPECT_EQ(util::fsio::read_file(dir_ + "/manifest.run"), reference_manifest());
  EXPECT_EQ(summary.supervision.tasks_run, kTaskCount);
  EXPECT_EQ(summary.supervision.restarts, 0u);
  EXPECT_EQ(summary.supervision.crashes, 0u);
  EXPECT_TRUE(summary.quarantined.empty());
  // Heartbeats and telemetry travel on pipes: the supervised workdir holds
  // exactly the inline run's files, and no scratch directory.
  EXPECT_EQ(entries(dir_), entries(dir_ + "_ref"));
  EXPECT_FALSE(fs::exists(dir_ + "/sv"));

  // A supervised --resume over the completed workdir skips every stage and
  // runs no worker at all.
  auto resume = supervised_options(dir_);
  resume.resume = true;
  const auto second = run_resumable(resume);
  EXPECT_EQ(second.resumed_stages, second.stages.size());
  EXPECT_EQ(second.supervision.tasks_run, 0u);
  EXPECT_EQ(util::fsio::read_file(second.report_path), reference);
}

TEST_F(RunSupervisorTest, WorkerExitsWhenItsBodyReturns) {
  // The heartbeat thread must wake when the body returns. If it slept out
  // its interval instead, every task would hold the run for up to one
  // interval after its work was done.
  SupervisorOptions options;
  options.workers = 1;
  options.heartbeat_interval_seconds = 5.0;
  Supervisor supervisor{options};
  WorkerTask task;
  task.name = "noop";
  task.body = [](const auto&) {};

  const auto start = std::chrono::steady_clock::now();
  supervisor.run_tasks({task}, [] {});
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 2.5);
  EXPECT_EQ(supervisor.stats().tasks_run, 1u);
}

TEST_F(RunSupervisorTest, ResourceRowsComeInSpawnOrder) {
  // Tasks spawn in list order but finish in reverse: each row must still
  // sit where its task first spawned, not where its attempt was reaped.
  SupervisorOptions options;
  options.workers = 3;
  options.heartbeat_interval_seconds = 0.05;
  Supervisor supervisor{options};
  std::vector<WorkerTask> tasks;
  for (const int sleep_ms : {120, 60, 0}) {
    WorkerTask task;
    task.name = "task" + std::to_string(tasks.size());
    task.body = [sleep_ms](const auto&) {
      std::this_thread::sleep_for(std::chrono::milliseconds{sleep_ms});
    };
    tasks.push_back(std::move(task));
  }

  supervisor.run_tasks(tasks, [] {});
  const auto& rows = supervisor.stats().resources;
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].task, tasks[i].name) << i;
    EXPECT_EQ(rows[i].attempts, 1u) << i;
  }
}

TEST_F(RunSupervisorTest, SidecarLargerThanThePipeBufferArrivesWhole) {
  // 20,000 spans make a sidecar of ~0.9 MB, many times a pipe's 64 KiB
  // buffer. The worker can finish writing it only while the supervisor
  // reads: a supervisor that waited for the exit before reading would see
  // no byte until the heartbeat timeout and kill the worker as hung (with
  // no retries, a SupervisorError).
  auto& recorder = obs::SpanRecorder::instance();
  recorder.set_enabled(true);
  recorder.clear();
  SupervisorOptions options;
  options.workers = 1;
  options.max_retries = 0;
  options.heartbeat_interval_seconds = 0.05;
  options.heartbeat_timeout_seconds = 0.5;
  Supervisor supervisor{options};
  WorkerTask task;
  task.name = "spans";
  task.body = [](const auto&) {
    for (int i = 0; i < 20'000; ++i) obs::Span span{"spans.step"};
  };

  EXPECT_NO_THROW(supervisor.run_tasks({task}, [] {}));
  EXPECT_EQ(supervisor.stats().tasks_run, 1u);
  EXPECT_EQ(supervisor.stats().hangs_killed, 0u);
  const auto lanes = recorder.process_lanes();
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].name, "spans");
  EXPECT_EQ(lanes[0].events.size(), 20'001u);  // the steps and the task's root span

  recorder.set_enabled(false);
  recorder.clear();
}

TEST_F(RunSupervisorTest, CrashedWorkersAreRetriedToIdenticalReport) {
  const auto reference = reference_report();

  auto options = supervised_options(dir_);
  // Every task's first attempt dies with exit 137; the cap guarantees the
  // retry comes up clean, so each task restarts exactly once.
  options.supervise.process_faults.proc_crash_rate = 1.0;
  options.supervise.process_faults.proc_max_faults_per_task = 1;
  const auto summary = run_resumable(options);

  EXPECT_EQ(summary.supervision.tasks_run, kTaskCount);
  EXPECT_EQ(summary.supervision.crashes, kTaskCount);
  EXPECT_EQ(summary.supervision.restarts, kTaskCount);
  EXPECT_TRUE(summary.quarantined.empty());
  EXPECT_EQ(util::fsio::read_file(summary.report_path), reference);
}

TEST_F(RunSupervisorTest, GarbageOutputsAreCaughtByValidationAndRetried) {
  const auto reference = reference_report();

  auto options = supervised_options(dir_);
  options.supervise.process_faults.proc_garbage_rate = 1.0;
  options.supervise.process_faults.proc_max_faults_per_task = 1;
  const auto summary = run_resumable(options);

  // Tasks with container outputs commit garbage over them (caught by digest
  // validation); tasks with only plain-file outputs escalate to a crash, so
  // either way every task fails exactly once.
  EXPECT_EQ(summary.supervision.tasks_run, kTaskCount);
  EXPECT_EQ(summary.supervision.restarts, kTaskCount);
  EXPECT_GE(summary.supervision.corrupt_outputs, 1u);
  EXPECT_EQ(summary.supervision.corrupt_outputs + summary.supervision.crashes,
            kTaskCount);
  EXPECT_TRUE(summary.quarantined.empty());
  EXPECT_EQ(util::fsio::read_file(summary.report_path), reference);
}

TEST_F(RunSupervisorTest, HungWorkersAreKilledAndRetried) {
  const auto reference = reference_report();

  auto options = supervised_options(dir_);
  options.supervise.process_faults.proc_hang_rate = 1.0;
  options.supervise.process_faults.proc_max_faults_per_task = 1;
  options.supervise.heartbeat_timeout_seconds = 0.4;
  const auto summary = run_resumable(options);

  EXPECT_EQ(summary.supervision.tasks_run, kTaskCount);
  EXPECT_EQ(summary.supervision.hangs_killed, kTaskCount);
  EXPECT_EQ(summary.supervision.restarts, kTaskCount);
  EXPECT_TRUE(summary.quarantined.empty());
  EXPECT_EQ(util::fsio::read_file(summary.report_path), reference);
}

TEST_F(RunSupervisorTest, ExhaustedChannelIsQuarantinedAndSurvivesResume) {
  auto options = supervised_options(dir_);
  // The query channel's projection task crashes on every attempt (no
  // per-task cap); with max_retries = 1 its second failure exhausts the
  // budget.
  options.supervise.max_retries = 1;
  options.supervise.process_faults.proc_crash_rate = 1.0;
  options.supervise.process_faults.proc_target = "behavior.query";
  const auto summary = run_resumable(options);

  const std::vector<std::string> expected{"behavior.query"};
  EXPECT_EQ(summary.quarantined, expected);
  EXPECT_EQ(summary.supervision.quarantined, expected);
  EXPECT_EQ(summary.supervision.restarts, 1u);
  EXPECT_EQ(summary.supervision.crashes, 2u);

  // The parent writes an edgeless graph over the pruned names in the
  // channel's place, after the other channels committed theirs.
  const auto query = graph::load_csr_file(dir_ + "/query_sim.csr");
  EXPECT_EQ(query.edge_count(), 0u);
  EXPECT_GT(query.vertex_count(), 0u);
  EXPECT_GT(graph::load_csr_file(dir_ + "/ip_sim.csr").edge_count(), 0u);

  // The degraded report flags the quarantine, and the manifest records it.
  const auto report = util::fsio::read_file(summary.report_path);
  EXPECT_NE(report.find("Degraded run"), std::string::npos);
  EXPECT_NE(report.find("`behavior.query`"), std::string::npos);
  const auto manifest = util::fsio::read_file(dir_ + "/manifest.run");
  EXPECT_NE(manifest.find("quarantined behavior.query\n"), std::string::npos);

  // --resume over the degraded workdir carries the quarantine forward
  // without re-running anything, byte-identically: the behavior stage
  // recorded its artifacts in spec order although the edgeless graph was
  // committed last.
  auto resume = supervised_options(dir_);
  resume.resume = true;
  const auto second = run_resumable(resume);
  EXPECT_EQ(second.resumed_stages, second.stages.size());
  EXPECT_EQ(second.supervision.tasks_run, 0u);
  EXPECT_EQ(second.quarantined, expected);
  EXPECT_EQ(util::fsio::read_file(second.report_path), report);
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [counter, value] : snapshot.counters) {
    if (counter == name) return value;
  }
  return 0;
}

std::vector<std::uint64_t> histogram_buckets(const obs::MetricsSnapshot& snapshot,
                                             const std::string& name) {
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == name) return histogram.buckets;
  }
  return {};
}

TEST_F(RunSupervisorTest, MergedTelemetryMatchesSingleProcessCounters) {
  // Worker telemetry dies with the child unless the sidecars round-trip it;
  // after the merge, the deterministic pipeline counters (projection edges,
  // pivots and pairs, the pivot-degree histogram, one add per LINE SGD
  // sample) must match a single-process run byte for byte — even with every
  // task's first attempt crashing, since only the successful attempt's
  // sidecar is merged. Each channel is projected by exactly one task, so
  // every pivot is counted once.
  obs::set_metrics_enabled(true);
  obs::SpanRecorder::instance().set_enabled(true);
  obs::metrics().reset_values();
  obs::SpanRecorder::instance().clear();

  (void)run_resumable(small_options(dir_ + "_ref"));
  const auto single = obs::metrics().snapshot();
  const auto single_edges = counter_value(single, "graph.projection.edges");
  const auto single_pivots = counter_value(single, "graph.projection.pivots");
  const auto single_pairs = counter_value(single, "graph.projection.pairs");
  const auto single_degrees = histogram_buckets(single, "graph.projection.pivot_degree");
  const auto single_samples = counter_value(single, "embed.line.samples");
  ASSERT_GT(single_edges, 0u);
  ASSERT_GT(single_pivots, 0u);
  ASSERT_GT(single_pairs, 0u);
  ASSERT_FALSE(single_degrees.empty());
  ASSERT_GT(single_samples, 0u);

  obs::metrics().reset_values();
  obs::SpanRecorder::instance().clear();

  auto options = supervised_options(dir_);
  options.supervise.workers = 4;
  options.supervise.process_faults.proc_crash_rate = 1.0;
  options.supervise.process_faults.proc_max_faults_per_task = 1;
  const auto summary = run_resumable(options);
  EXPECT_EQ(summary.supervision.crashes, kTaskCount);
  EXPECT_TRUE(summary.quarantined.empty());

  const auto merged = obs::metrics().snapshot();
  EXPECT_EQ(counter_value(merged, "graph.projection.edges"), single_edges);
  EXPECT_EQ(counter_value(merged, "graph.projection.pivots"), single_pivots);
  EXPECT_EQ(counter_value(merged, "graph.projection.pairs"), single_pairs);
  EXPECT_EQ(histogram_buckets(merged, "graph.projection.pivot_degree"), single_degrees);
  EXPECT_EQ(counter_value(merged, "embed.line.samples"), single_samples);

  // The merged trace carries one named process lane per worker task.
  const auto lanes = obs::SpanRecorder::instance().process_lanes();
  EXPECT_EQ(lanes.size(), kTaskCount);
  for (const auto& lane : lanes) {
    EXPECT_FALSE(lane.name.empty());
    EXPECT_FALSE(lane.events.empty()) << lane.name;
  }

  obs::set_metrics_enabled(false);
  obs::SpanRecorder::instance().set_enabled(false);
  obs::metrics().reset_values();
  obs::SpanRecorder::instance().clear();
}

TEST_F(RunSupervisorTest, StatusFileReflectsRetryInFlight) {
  auto options = supervised_options(dir_);
  options.supervise.status_path = dir_ + "_status.json";
  // Every first attempt crashes, so every task goes through backoff and a
  // second attempt — the live status file must expose that retry while the
  // run is still in flight.
  options.supervise.process_faults.proc_crash_rate = 1.0;
  options.supervise.process_faults.proc_max_faults_per_task = 1;

  std::atomic<bool> done{false};
  std::string error;
  std::thread runner{[&] {
    try {
      (void)run_resumable(options);
    } catch (const std::exception& e) {
      error = e.what();
    }
    done.store(true);
  }};
  bool saw_retry = false;
  while (!done.load()) {
    try {
      const auto status = util::fsio::read_file(options.supervise.status_path);
      if (status.find("\"attempt\": 2") != std::string::npos) saw_retry = true;
    } catch (const util::fsio::IoError&) {
      // Not written yet; the atomic rename guarantees we never see a torn
      // intermediate once it exists.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  runner.join();
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_TRUE(saw_retry);

  // After completion the file persists with one terminal row per task.
  const auto final_status = util::fsio::read_file(options.supervise.status_path);
  EXPECT_NE(final_status.find("\"workers\": 2"), std::string::npos);
  EXPECT_NE(final_status.find("\"tasks\": ["), std::string::npos);
  EXPECT_NE(final_status.find("\"task\": \"report\""), std::string::npos);
  EXPECT_NE(final_status.find("\"state\": \"done\""), std::string::npos);
  EXPECT_NE(final_status.find("\"attempts_reaped\": 2"), std::string::npos);
  fs::remove(options.supervise.status_path);
}

TEST_F(RunSupervisorTest, DeadlineMidStageLeavesWorkdirResumable) {
  const auto reference = reference_report();

  // Force the deadline to fire right after the first behavior artifact
  // (kept.domains) commits: the stage aborts mid-way with some artifacts
  // committed and some not, which is exactly the state --resume must
  // recover from.
  auto options = small_options(dir_);
  options.stage_deadline_seconds = 30.0;
  options.expire_deadline_after_artifact = "kept.domains";
  EXPECT_THROW(run_resumable(options), StageDeadlineExceeded);

  options.stage_deadline_seconds = 0.0;
  options.expire_deadline_after_artifact.clear();
  options.resume = true;
  const auto summary = run_resumable(options);
  EXPECT_EQ(util::fsio::read_file(summary.report_path), reference);

  // The stage before the interruption resumed (the mid-stage abort saved
  // the manifest with its record intact); the interrupted stage and
  // everything after it re-ran.
  ASSERT_GE(summary.stages.size(), 2u);
  EXPECT_EQ(summary.stages.front().name, "trace");
  EXPECT_TRUE(summary.stages.front().resumed);
  for (const auto& stage : summary.stages) {
    if (stage.name != "trace") {
      EXPECT_FALSE(stage.resumed) << stage.name;
    }
  }
}

TEST_F(RunSupervisorTest, DeadlineMidStageLeavesSupervisedRunResumable) {
  const auto reference = reference_report();

  auto options = supervised_options(dir_);
  options.stage_deadline_seconds = 30.0;
  options.expire_deadline_after_artifact = "kept.domains";
  EXPECT_THROW(run_resumable(options), StageDeadlineExceeded);

  options.stage_deadline_seconds = 0.0;
  options.expire_deadline_after_artifact.clear();
  options.resume = true;
  const auto summary = run_resumable(options);
  EXPECT_EQ(util::fsio::read_file(summary.report_path), reference);
}

}  // namespace
}  // namespace dnsembed::core
