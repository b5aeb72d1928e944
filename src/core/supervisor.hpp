// Process supervision for the resumable runner: forks worker processes to
// execute pipeline tasks, watches them for crash (exit status), hang (no
// byte on the worker's pipe for the heartbeat timeout -> SIGKILL), and
// corrupt output (container validation after exit), retries failures with
// the fsio bounded-backoff schedule, and quarantines a projection task once
// its retry budget is exhausted so the run degrades to a
// partial-but-flagged report instead of dying.
//
// The supervisor is deliberately ignorant of pipeline semantics: it runs
// WorkerTasks — a name, a child-side body, and the list of artifact files
// the body must leave behind. core/run builds the task lists (one
// projection and one LINE training per channel, ...) and the steps between
// them; workers exchange results exclusively through the checksummed
// artifact container, never through memory.
//
// Each worker has one pipe to the supervisor (util::ChildProcess). Its beat
// thread writes one byte per heartbeat interval, and once the body's
// threads have joined it writes its telemetry sidecar (obs/sidecar.hpp).
// The supervisor sleeps in one poll(2) over the pipes until a worker
// writes, a worker exits (end of file), or its next deadline comes: a
// heartbeat timeout, the end of a backoff, or the once-per-interval tick
// that checks the stage deadline and rewrites the status file. A supervised
// run writes nothing but its artifacts, manifest.run and the optional
// status file.
//
// Every supervision event flows through the obs registry:
//   supervisor.restarts / .crashes / .hangs_killed / .corrupt_outputs
//   supervisor.quarantined, supervisor.tasks.run,
//   supervisor.sidecar_corrupt, supervisor.heartbeat_age_ms le-histogram
//   (observed once per wake), supervisor.task.{cpu_seconds,wall_seconds,
//   max_rss_kb} per-attempt rusage histograms, "supervisor.<task>" trace
//   spans — and, because the supervisor merges back each worker's
//   telemetry sidecar, everything the workers themselves recorded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/plan.hpp"

namespace dnsembed::core {

struct SupervisorOptions {
  /// Worker processes to run concurrently. 0 disables the supervisor: the
  /// runner executes the same tasks in-process, one after another.
  std::size_t workers = 0;

  /// Retries per task after its first attempt; a task failing
  /// 1 + max_retries times is quarantined (projection tasks) or fatal.
  std::size_t max_retries = 2;

  /// Seconds between worker heartbeat bytes.
  double heartbeat_interval_seconds = 0.25;

  /// A worker that has written nothing to its pipe for this long is
  /// declared hung and SIGKILLed. 0 = 10x the heartbeat interval.
  double heartbeat_timeout_seconds = 0.0;

  /// Seeded process fault injection (proc_* channels); all-zero rates by
  /// default. Interpreted by fault::ProcessFaultChannel inside the child.
  fault::FaultPlan process_faults;

  /// Live run status file (`run --status-out FILE`): atomically rewritten
  /// JSON with per-task state/attempt/heartbeat age/quarantine/rusage,
  /// refreshed on every state change and once per heartbeat interval.
  /// Empty = disabled. Advisory plain-POSIX writes (no fsync).
  std::string status_path;
};

/// Per-task resource accounting from wait4 rusage, accumulated across every
/// attempt of the task (cpu and wall sum; RSS takes the max).
struct TaskResources {
  std::string task;
  std::size_t attempts = 0;  // attempts reaped, including failed ones
  double wall_seconds = 0.0;
  double cpu_user_seconds = 0.0;
  double cpu_system_seconds = 0.0;
  long max_rss_kb = 0;
};

/// What the supervisor did across a run, folded into RunSummary.
struct SupervisionStats {
  std::size_t restarts = 0;         // retry attempts scheduled (any cause)
  std::size_t crashes = 0;          // nonzero exit / killed by a signal
  std::size_t hangs_killed = 0;     // stale heartbeat -> SIGKILL
  std::size_t corrupt_outputs = 0;  // exit 0 but invalid output containers
  std::size_t tasks_run = 0;        // task attempts that completed validly
  std::vector<std::string> quarantined;  // tasks that exhausted retries
  /// One row per task that ran at least one attempt, in first-spawn order
  /// (deterministic: tasks spawn in task-list order). Feeds the CLI
  /// "Worker resources" table and the --status-out file — NOT report.md,
  /// which must stay byte-identical to a single-process run.
  std::vector<TaskResources> resources;
};

/// One unit of supervised work.
struct WorkerTask {
  /// Unique name, e.g. "behavior.query". Keys the backoff jitter,
  /// fault-injection draws, metrics, trace lanes and quarantine rows.
  std::string name;

  /// Quarantinable tasks (the channel projections) degrade the run when
  /// their retries are exhausted; for any other task that is a fatal error.
  bool quarantinable = false;

  struct Output {
    std::string path;
    /// Artifact kind to validate after the child succeeds; nullptr = plain
    /// file, existence-checked only.
    const char* kind = nullptr;
  };
  std::vector<Output> outputs;

  /// The task's work. Throwing makes the attempt a failure. `checkpoint`
  /// is a cooperative deadline check for long bodies: the runner's inline
  /// executor passes its stage watchdog; in a forked child it does nothing
  /// (the supervisor enforces deadlines from the parent by SIGKILL).
  std::function<void(const std::function<void()>& checkpoint)> body;
};

/// A non-quarantinable task exhausted its retry budget (or could not be
/// spawned at all).
class SupervisorError : public std::runtime_error {
 public:
  SupervisorError(std::string task, const std::string& detail);
  const std::string& task() const noexcept { return task_; }

 private:
  std::string task_;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options);

  /// Run every task to completion (done or quarantined) with up to
  /// options.workers children in flight. `poll` is invoked on entry and
  /// once per heartbeat interval; it may throw (the stage-deadline watchdog
  /// does) and all children are SIGKILLed and reaped before the exception
  /// escapes.
  /// Throws SupervisorError when a non-quarantinable task exhausts its
  /// retries. Quarantined task names accumulate in stats().
  void run_tasks(const std::vector<WorkerTask>& tasks, const std::function<void()>& poll);

  const SupervisionStats& stats() const noexcept { return stats_; }

 private:
  /// One row of the --status-out file. Rows persist across run_tasks calls
  /// so the file covers the whole run, not just the current stage.
  struct TaskStatus {
    std::string task;
    std::string state;  // pending|running|backoff|done|quarantined
    std::size_t attempt = 0;             // attempts started so far
    std::int64_t heartbeat_age_ms = -1;  // -1 when not running
  };

  TaskResources& resources_for(const std::string& task);
  TaskStatus& status_row(const std::string& task);
  void set_status(const std::string& task, const char* state, std::size_t attempt,
                  std::int64_t heartbeat_age_ms);
  /// Atomic-rewrite the status file when a state changed (set_status marks
  /// it dirty) or when `force` is set (once per heartbeat interval, and at
  /// batch completion).
  void write_status(bool force);

  SupervisorOptions options_;
  SupervisionStats stats_;
  std::vector<TaskStatus> status_;
  bool status_dirty_ = false;
};

}  // namespace dnsembed::core
