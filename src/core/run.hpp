// Resumable pipeline runner: drives the paper pipeline (trace -> behavior
// -> embed -> labels -> report) with stage-granular persistence under a
// working directory. Every stage commits its outputs as atomic, checksummed
// artifacts and the run manifest records their digests plus the config
// hash; `--resume` skips stages whose artifacts still validate and re-runs
// anything missing, corrupt, or built under a different config.
//
// Each stage is declared once, as a list of named tasks that read artifacts
// and write artifacts, and one of two executors runs it: inline (each task
// body in this process, in order, its artifacts committed right after it)
// or supervised (the tasks forked as worker processes, see
// core/supervisor.hpp). Every stage boundary is a disk round-trip even on a
// fresh run (a stage always loads its inputs from the previous stage's
// artifacts), so an interrupted run resumed later produces a bit-identical
// report to an uninterrupted one by construction, and both executors write
// the same bytes — there is no separate in-memory fast path to diverge
// from.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/supervisor.hpp"

namespace dnsembed::core {

struct RunOptions {
  /// Directory for artifacts, manifest, and the final report. Created if
  /// missing.
  std::string workdir;

  /// Reuse digest-valid stages recorded in the manifest instead of
  /// recomputing them. Off = recompute everything (but still overwrite
  /// artifacts atomically, so a concurrent reader never sees torn state).
  bool resume = false;

  /// Per-stage wall-clock budget in seconds (0 = unlimited). When a stage
  /// overruns, it is cancelled cooperatively at its next artifact/substep
  /// boundary and run_resumable throws StageDeadlineExceeded; committed
  /// artifacts stay valid, so a later --resume continues from them.
  double stage_deadline_seconds = 0.0;

  /// Test hook: terminate the process (exit 137, as if SIGKILLed) right
  /// after the named artifact file is committed, i.e. once the task that
  /// wrote it has finished — deterministic mid-stage crash for the
  /// crash-recovery suite. Empty = disabled.
  std::string crash_after_artifact;

  /// Test hook: force the stage deadline to expire right after the named
  /// artifact file is committed — a deterministic mid-stage deadline hit
  /// for the resumability regression test. Empty = disabled.
  std::string expire_deadline_after_artifact;

  /// Multi-process orchestration. supervise.workers == 0 (default) runs
  /// every stage task inline, in this process; >= 1 forks the same tasks
  /// out to supervised worker processes (one projection and one LINE
  /// training per channel, ...) that exchange results only through
  /// checksummed artifacts, so the report is bit-identical to an inline
  /// run at any worker count.
  /// Workers also write telemetry sidecars (obs/sidecar.hpp) that the
  /// supervisor merges, so --metrics-out/--trace-out see the whole process
  /// tree, and supervise.status_path enables the live --status-out file.
  SupervisorOptions supervise;

  PipelineConfig config;
};

struct RunStageOutcome {
  std::string name;
  /// True when the stage was skipped because its artifacts validated.
  bool resumed = false;
  double seconds = 0.0;
};

struct RunSummary {
  std::vector<RunStageOutcome> stages;
  std::string report_path;
  std::size_t resumed_stages = 0;

  /// What the supervisor did (all zeros on a single-process run).
  SupervisionStats supervision;

  /// Projection tasks that exhausted their retry budget, as recorded in the
  /// manifest — includes quarantines carried forward from a resumed stage.
  /// Non-empty means the report is partial and the CLI exits 5.
  std::vector<std::string> quarantined;
};

/// A stage exceeded RunOptions::stage_deadline_seconds and was cancelled.
class StageDeadlineExceeded : public std::runtime_error {
 public:
  explicit StageDeadlineExceeded(std::string stage);
  const std::string& stage() const noexcept { return stage_; }

 private:
  std::string stage_;
};

/// Digest of the pipeline knobs that shape run artifacts (trace shape and
/// seeds, pruning/projection thresholds, embedding method and budgets,
/// labeling, SVM and clustering parameters). Recorded in the manifest; a
/// mismatch on --resume invalidates every recorded stage.
std::string hash_pipeline_config(const PipelineConfig& config);

/// Run (or resume) the pipeline under options.workdir; returns what ran vs
/// was reused. Throws StageDeadlineExceeded on deadline, util::fsio::IoError
/// on unrecoverable I/O failure.
RunSummary run_resumable(const RunOptions& options);

}  // namespace dnsembed::core
