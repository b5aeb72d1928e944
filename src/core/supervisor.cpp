#include "core/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string_view>
#include <system_error>
#include <thread>

#include "fault/process_faults.hpp"
#include "obs/metrics.hpp"
#include "obs/sidecar.hpp"
#include "obs/span.hpp"
#include "util/artifact.hpp"
#include "util/fsio.hpp"
#include "util/log.hpp"
#include "util/subprocess.hpp"

namespace dnsembed::core {

namespace {

using Clock = std::chrono::steady_clock;

/// Retry schedule for failed task attempts: the fsio backoff machinery
/// (bounded exponential + deterministic jitter keyed by task name) with
/// process-scale constants — 20ms, x4, capped at 2s.
util::fsio::RetryPolicy task_retry_policy(std::size_t max_retries) {
  util::fsio::RetryPolicy policy;
  policy.max_attempts = max_retries + 1;
  policy.initial_backoff = std::chrono::microseconds{20'000};
  policy.multiplier = 4.0;
  policy.max_backoff = std::chrono::microseconds{2'000'000};
  return policy;
}

/// A duration in the supervisor's clock, capped at a million seconds so an
/// absurd interval or timeout can overflow neither the time arithmetic nor
/// poll(2)'s int milliseconds.
Clock::duration clock_seconds(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>{std::min(seconds, 1e6)});
}

// -------------------------------------------------------------- the pipe
//
// A worker writes two things to its pipe (util::ChildProcess): one kBeat
// byte per heartbeat interval from its beat thread, then, once the body's
// threads have joined, its telemetry sidecar container. The supervisor
// counts any byte as a heartbeat; every beat precedes the sidecar, whose
// container header never starts with kBeat.

constexpr char kBeat = '\0';

/// Write all of `bytes`; false when the pipe failed.
bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

// ------------------------------------------------------------ child side

bool has_container_output(const WorkerTask& task) {
  for (const auto& output : task.outputs) {
    if (output.kind != nullptr) return true;
  }
  return false;
}

/// The forked child's whole life: decide the injected fault, beat down the
/// pipe on a side thread, run the task body, write the telemetry sidecar
/// down the pipe, exit.
int run_child(const WorkerTask& task, std::size_t attempt, const SupervisorOptions& options,
              int pipe_fd) {
  // The fork inherited the parent's accumulated metrics and spans; drop
  // them so the sidecar carries exactly this attempt's telemetry (clear()
  // also re-arms the span epoch, which is what the parent's rebase offset
  // assumes).
  obs::metrics().reset_values();
  obs::SpanRecorder::instance().clear();
  const bool telemetry = obs::metrics_enabled() || obs::trace_enabled();
  const fault::ProcessFaultChannel channel{options.process_faults};
  auto injected = channel.decide(task.name, attempt);
  // Garbage needs a validatable container to be caught through; a task
  // with only plain-file outputs escalates the draw to a crash so the
  // fault never goes unnoticed.
  if (injected == fault::ProcessFault::kGarbage && !has_container_output(task)) {
    injected = fault::ProcessFault::kCrash;
  }
  if (injected == fault::ProcessFault::kCrash) {
    util::log_warn() << "worker " << task.name << ": injected crash (attempt " << attempt
                     << ")";
    std::_Exit(137);
  }
  if (injected == fault::ProcessFault::kHang) {
    util::log_warn() << "worker " << task.name << ": injected hang (attempt " << attempt
                     << ")";
    for (;;) std::this_thread::sleep_for(std::chrono::hours{1});
  }

  // The beat thread waits out each interval on a condition variable, so
  // the body's return wakes it at once and the worker exits without
  // sleeping off the rest of an interval.
  std::mutex stop_mutex;
  std::condition_variable stop_cv;
  bool stop = false;
  const auto interval = std::chrono::duration<double>{options.heartbeat_interval_seconds};
  std::thread beat{[&] {
    std::unique_lock lock{stop_mutex};
    while (!stop_cv.wait_for(lock, interval, [&] { return stop; })) {
      lock.unlock();
      (void)write_all(pipe_fd, {&kBeat, 1});
      lock.lock();
    }
  }};

  int rc = 0;
  try {
    // Root span of this worker's trace lane: even a body that opens no
    // spans of its own exports one event covering the task's wall time, so
    // the merged trace always shows one named pid lane per worker task.
    obs::Span task_span{task.name.c_str()};
    if (injected == fault::ProcessFault::kGarbage) {
      util::log_warn() << "worker " << task.name << ": injected garbage output (attempt "
                       << attempt << ")";
      for (const auto& output : task.outputs) {
        if (output.kind == nullptr) continue;
        util::fsio::atomic_write_file(output.path,
                                      "garbage-output " + task.name + "\n");
      }
    } else {
      task.body([] {});
    }
  } catch (const std::exception& e) {
    util::log_error() << "worker " << task.name << ": " << e.what();
    rc = 1;
  }
  {
    std::lock_guard lock{stop_mutex};
    stop = true;
  }
  stop_cv.notify_one();
  beat.join();
  if (telemetry && !write_all(pipe_fd, obs::encode_telemetry_sidecar())) {
    util::log_warn() << "worker " << task.name << ": telemetry sidecar write failed";
  }
  return rc;
}

// ------------------------------------------------------- output checking

bool outputs_valid(const WorkerTask& task, std::string& why) {
  for (const auto& output : task.outputs) {
    if (output.kind == nullptr) {
      if (!util::fsio::file_exists(output.path)) {
        why = output.path + ": missing";
        return false;
      }
      continue;
    }
    try {
      util::validate_artifact_view(util::fsio::map_file(output.path).bytes(), output.kind,
                                   output.path);
    } catch (const util::CorruptArtifact& e) {
      why = e.path() + ": " + e.reason();
      return false;
    } catch (const util::fsio::IoError& e) {
      why = e.what();
      return false;
    }
  }
  return true;
}

}  // namespace

SupervisorError::SupervisorError(std::string task, const std::string& detail)
    : std::runtime_error{"supervisor: task '" + task + "' failed permanently: " + detail},
      task_{std::move(task)} {}

Supervisor::Supervisor(SupervisorOptions options) : options_{std::move(options)} {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.heartbeat_interval_seconds <= 0.0) options_.heartbeat_interval_seconds = 0.25;
  if (options_.heartbeat_timeout_seconds <= 0.0) {
    options_.heartbeat_timeout_seconds = 10.0 * options_.heartbeat_interval_seconds;
  }
}

TaskResources& Supervisor::resources_for(const std::string& task) {
  for (auto& row : stats_.resources) {
    if (row.task == task) return row;
  }
  stats_.resources.push_back(TaskResources{});
  stats_.resources.back().task = task;
  return stats_.resources.back();
}

Supervisor::TaskStatus& Supervisor::status_row(const std::string& task) {
  for (auto& row : status_) {
    if (row.task == task) return row;
  }
  status_.push_back(TaskStatus{});
  status_.back().task = task;
  status_.back().state = "pending";
  return status_.back();
}

void Supervisor::set_status(const std::string& task, const char* state, std::size_t attempt,
                            std::int64_t heartbeat_age_ms) {
  auto& row = status_row(task);
  row.state = state;
  row.attempt = attempt;
  row.heartbeat_age_ms = heartbeat_age_ms;
  status_dirty_ = true;
}

void Supervisor::write_status(bool force) {
  if (options_.status_path.empty() || !(force || status_dirty_)) return;
  std::ostringstream out;
  out << "{\n  \"workers\": " << options_.workers << ",\n  \"tasks\": [";
  for (std::size_t i = 0; i < status_.size(); ++i) {
    const auto& row = status_[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"task\": \"" << row.task << "\", \"state\": \""
        << row.state << "\", \"attempt\": " << row.attempt
        << ", \"heartbeat_age_ms\": " << row.heartbeat_age_ms << ", \"quarantined\": "
        << (row.state == "quarantined" ? "true" : "false");
    for (const auto& res : stats_.resources) {
      if (res.task != row.task) continue;
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    ", \"attempts_reaped\": %zu, \"wall_seconds\": %.3f"
                    ", \"cpu_user_seconds\": %.3f, \"cpu_system_seconds\": %.3f"
                    ", \"max_rss_kb\": %ld",
                    res.attempts, res.wall_seconds, res.cpu_user_seconds,
                    res.cpu_system_seconds, res.max_rss_kb);
      out << buf;
      break;
    }
    out << "}";
  }
  out << (status_.empty() ? "]\n" : "\n  ]\n") << "}\n";
  // Plain-POSIX temp + rename: the status file is an advisory view for
  // operators, so it skips fsio's fsync cost and fault injection, but
  // readers still never observe a torn write.
  const std::string text = out.str();
  const std::string tmp = options_.status_path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return;
  (void)!::write(fd, text.data(), text.size());
  ::close(fd);
  ::rename(tmp.c_str(), options_.status_path.c_str());
  status_dirty_ = false;
}

void Supervisor::run_tasks(const std::vector<WorkerTask>& tasks,
                           const std::function<void()>& poll) {
  static obs::Counter& restarts_counter = obs::metrics().counter("supervisor.restarts");
  static obs::Counter& crashes_counter = obs::metrics().counter("supervisor.crashes");
  static obs::Counter& hangs_counter = obs::metrics().counter("supervisor.hangs_killed");
  static obs::Counter& corrupt_counter = obs::metrics().counter("supervisor.corrupt_outputs");
  static obs::Counter& quarantined_counter = obs::metrics().counter("supervisor.quarantined");
  static obs::Counter& run_counter = obs::metrics().counter("supervisor.tasks.run");
  static obs::Counter& sidecar_corrupt_counter =
      obs::metrics().counter("supervisor.sidecar_corrupt");
  static obs::Histogram& heartbeat_hist = obs::metrics().histogram(
      "supervisor.heartbeat_age_ms", obs::Registry::size_bounds());
  static obs::Histogram& task_cpu_hist =
      obs::metrics().latency_histogram("supervisor.task.cpu_seconds");
  static obs::Histogram& task_wall_hist =
      obs::metrics().latency_histogram("supervisor.task.wall_seconds");
  static obs::Histogram& task_rss_hist = obs::metrics().histogram(
      "supervisor.task.max_rss_kb", obs::Registry::size_bounds());
  obs::metrics().gauge("supervisor.workers").set(static_cast<std::int64_t>(options_.workers));

  const auto policy = task_retry_policy(options_.max_retries);
  const auto interval = clock_seconds(options_.heartbeat_interval_seconds);
  const auto heartbeat_timeout = clock_seconds(options_.heartbeat_timeout_seconds);

  struct TaskState {
    std::size_t failures = 0;
    bool done = false;
    bool quarantined = false;
    bool running = false;
    Clock::time_point eligible = Clock::now();
  };
  struct InFlight {
    std::size_t index = 0;
    std::size_t attempt = 0;
    util::ChildProcess child;
    Clock::time_point spawned;
    Clock::time_point last_byte;  // the last heartbeat
    std::string received;         // every byte from the pipe: beats, then the sidecar
    std::uint64_t span_begin = 0;
    std::uint64_t span_seq = 0;
  };

  std::vector<TaskState> state(tasks.size());
  std::vector<InFlight> running;
  running.reserve(options_.workers);

  for (const auto& task : tasks) set_status(task.name, "pending", 0, -1);
  write_status(false);

  /// One attempt of task `i` ended badly; schedule a retry or quarantine.
  const auto failed = [&](std::size_t i, const std::string& detail) {
    auto& ts = state[i];
    ts.running = false;
    ++ts.failures;
    if (ts.failures > options_.max_retries) {
      if (!tasks[i].quarantinable) throw SupervisorError{tasks[i].name, detail};
      ts.quarantined = true;
      stats_.quarantined.push_back(tasks[i].name);
      quarantined_counter.add(1);
      set_status(tasks[i].name, "quarantined", ts.failures, -1);
      util::log_warn() << "supervisor: task '" << tasks[i].name << "' quarantined after "
                       << ts.failures << " failed attempts (" << detail << ")";
      return;
    }
    const auto delay = util::fsio::backoff_delay(policy, tasks[i].name, ts.failures - 1);
    ts.eligible = Clock::now() + delay;
    ++stats_.restarts;
    restarts_counter.add(1);
    set_status(tasks[i].name, "backoff", ts.failures, -1);
    util::log_warn() << "supervisor: task '" << tasks[i].name << "' attempt " << ts.failures
                     << " failed (" << detail << "); retrying in "
                     << static_cast<double>(delay.count()) / 1000.0 << "ms";
  };

  /// Per-attempt resource accounting from the wait4 rusage of a reaped
  /// child (every attempt counts, failed ones included).
  const auto account = [&](const InFlight& flight, const util::ExitStatus& status) {
    const double wall =
        std::chrono::duration<double>(Clock::now() - flight.spawned).count();
    auto& res = resources_for(tasks[flight.index].name);
    ++res.attempts;
    res.wall_seconds += wall;
    res.cpu_user_seconds += status.cpu_user_seconds;
    res.cpu_system_seconds += status.cpu_system_seconds;
    res.max_rss_kb = std::max(res.max_rss_kb, status.max_rss_kb);
    task_cpu_hist.observe(status.cpu_user_seconds + status.cpu_system_seconds);
    task_wall_hist.observe(wall);
    task_rss_hist.observe(static_cast<double>(status.max_rss_kb));
  };

  // Worker records accumulate per batch and are appended after it
  // completes: children finish in nondeterministic order, but the merged
  // registry must list records in deterministic (task, seq) order.
  std::vector<std::pair<std::string, std::vector<obs::MetricRecord>>> worker_records;

  /// Fold a successful worker's telemetry sidecar into this process's
  /// registry/recorder. A corrupt sidecar costs only that worker's
  /// telemetry — warn, count, continue; never abort the merge.
  const auto merge_sidecar = [&](const InFlight& flight, const WorkerTask& task) {
    if (!obs::metrics_enabled() && !obs::trace_enabled()) return;
    std::string_view bytes = flight.received;
    bytes.remove_prefix(std::min(bytes.find_first_not_of(kBeat), bytes.size()));
    try {
      const auto sidecar = obs::decode_telemetry_sidecar(bytes, task.name + " sidecar");
      if (obs::metrics_enabled()) {
        obs::merge_sidecar_metrics(sidecar);
        if (!sidecar.records.empty()) {
          worker_records.emplace_back(task.name, sidecar.records);
        }
      }
      if (obs::trace_enabled() && !sidecar.spans.empty()) {
        // The child's span epoch re-armed at run_child entry, so its times
        // are relative to (approximately) the moment we spawned it: rebase
        // by the spawn-time span offset to land the lane on our timeline.
        auto spans = sidecar.spans;
        for (auto& event : spans) {
          event.begin_ns += flight.span_begin;
          event.end_ns += flight.span_begin;
        }
        obs::SpanRecorder::instance().add_process_lane(task.name, std::move(spans));
      }
    } catch (const util::CorruptArtifact& e) {
      sidecar_corrupt_counter.add(1);
      util::log_warn() << "supervisor: telemetry sidecar for '" << task.name << "' corrupt ("
                       << e.reason() << "); worker telemetry dropped";
    }
  };

  /// A reaped child for slot `f`: classify success / crash / corrupt.
  const auto reaped = [&](InFlight& flight, const util::ExitStatus& status) {
    auto& task = tasks[flight.index];
    account(flight, status);
    if (obs::trace_enabled()) {
      auto& recorder = obs::SpanRecorder::instance();
      recorder.record("supervisor." + task.name, flight.span_begin, recorder.now_ns(),
                      flight.span_seq);
    }
    if (!status.success()) {
      ++stats_.crashes;
      crashes_counter.add(1);
      failed(flight.index,
             std::string{status.signaled ? "killed by signal, status " : "exit "} +
                 std::to_string(status.code));
      return;
    }
    std::string why;
    if (!outputs_valid(task, why)) {
      util::fsio::note_corrupt_detected();
      ++stats_.corrupt_outputs;
      corrupt_counter.add(1);
      failed(flight.index, "corrupt output: " + why);
      return;
    }
    state[flight.index].running = false;
    state[flight.index].done = true;
    ++stats_.tasks_run;
    run_counter.add(1);
    set_status(task.name, "done", flight.attempt + 1, -1);
    merge_sidecar(flight, task);
  };

  // One poll(2) over the workers' pipes sleeps until a worker writes or
  // exits, or until the next deadline: a heartbeat timeout, the end of a
  // backoff, or the once-per-interval tick that checks the stage deadline
  // and rewrites the status file.
  std::vector<pollfd> fds;
  std::vector<char> buffer(std::size_t{1} << 16);
  auto next_tick = Clock::now();
  try {
    for (;;) {
      auto now = Clock::now();
      const bool tick = now >= next_tick;
      if (tick) {
        poll();  // stage-deadline watchdog; may throw
        next_tick = now + interval;
      }

      // Spawn ready tasks into free slots, in task order (start order is
      // deterministic; completion order is not, and does not matter —
      // artifacts are deterministic).
      for (std::size_t i = 0; i < tasks.size() && running.size() < options_.workers; ++i) {
        auto& ts = state[i];
        if (ts.done || ts.quarantined || ts.running) continue;
        if (ts.eligible > now) continue;
        const std::size_t attempt = ts.failures;
        InFlight flight;
        flight.index = i;
        flight.attempt = attempt;
        flight.spawned = Clock::now();
        flight.last_byte = flight.spawned;
        if (obs::trace_enabled()) {
          auto& recorder = obs::SpanRecorder::instance();
          flight.span_begin = recorder.now_ns();
          flight.span_seq = recorder.next_seq();
        }
        try {
          const WorkerTask* task = &tasks[i];
          const SupervisorOptions* options = &options_;
          flight.child = util::ChildProcess::spawn([task, attempt, options](int pipe_fd) {
            return run_child(*task, attempt, *options, pipe_fd);
          });
        } catch (const std::system_error& e) {
          failed(i, e.what());
          continue;
        }
        ts.running = true;
        resources_for(tasks[i].name);  // its row, in first-spawn order
        set_status(tasks[i].name, "running", attempt + 1, 0);
        running.push_back(std::move(flight));
      }

      if (running.empty()) {
        bool pending = false;
        for (const auto& ts : state) pending = pending || !(ts.done || ts.quarantined);
        if (!pending) break;
      }

      // Heartbeat ages are observed once per wake while children are in
      // flight, so the export carries a p99-capable staleness distribution
      // instead of a last-write gauge.
      now = Clock::now();
      std::int64_t max_age_ms = 0;
      auto wake = next_tick;
      fds.clear();
      for (const auto& flight : running) {
        const auto age_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(now - flight.last_byte)
                .count();
        max_age_ms = std::max<std::int64_t>(max_age_ms, age_ms);
        status_row(tasks[flight.index].name).heartbeat_age_ms = age_ms;
        wake = std::min(wake, flight.last_byte + heartbeat_timeout);
        fds.push_back({flight.child.read_fd(), POLLIN, 0});
      }
      if (!running.empty()) heartbeat_hist.observe(static_cast<double>(max_age_ms));
      write_status(tick);
      if (running.size() < options_.workers) {
        for (const auto& ts : state) {
          if (!(ts.done || ts.quarantined || ts.running)) wake = std::min(wake, ts.eligible);
        }
      }
      const int timeout_ms = static_cast<int>(std::max<std::int64_t>(
          std::chrono::ceil<std::chrono::milliseconds>(wake - Clock::now()).count(), 0));
      if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
        throw std::system_error{errno, std::generic_category(), "supervisor: poll"};
      }

      // Read every readable pipe; any byte is a heartbeat. Walk backwards,
      // so a swap-erase moves only a slot already visited.
      now = Clock::now();
      for (std::size_t f = running.size(); f-- > 0;) {
        auto& flight = running[f];
        if (fds[f].revents != 0) {
          const ssize_t n = ::read(flight.child.read_fd(), buffer.data(), buffer.size());
          if (n > 0) {
            flight.received.append(buffer.data(), static_cast<std::size_t>(n));
            flight.last_byte = now;
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          // End of file: the worker has exited. The kernel closes a
          // process's files before it becomes reapable, so reap with a
          // blocking wait. A pipe that fails to read fails the attempt.
          if (n < 0) flight.child.kill();
          reaped(flight, flight.child.wait());
        } else if (now - flight.last_byte >= heartbeat_timeout) {
          util::log_warn() << "supervisor: task '" << tasks[flight.index].name
                           << "' heartbeat stale for "
                           << std::chrono::duration<double>(now - flight.last_byte).count()
                           << "s; killing";
          flight.child.kill();
          account(flight, flight.child.wait());
          ++stats_.hangs_killed;
          hangs_counter.add(1);
          if (obs::trace_enabled()) {
            auto& recorder = obs::SpanRecorder::instance();
            recorder.record("supervisor." + tasks[flight.index].name, flight.span_begin,
                            recorder.now_ns(), flight.span_seq);
          }
          failed(flight.index, "hung (stale heartbeat)");
        } else {
          continue;
        }
        running[f] = std::move(running.back());
        running.pop_back();
      }
    }
  } catch (...) {
    for (auto& flight : running) {
      flight.child.kill();
      flight.child.wait();
    }
    throw;
  }

  // Deferred record merge (see worker_records above): task-name order, and
  // within a task the worker's own append order — i.e. (task, seq).
  std::sort(worker_records.begin(), worker_records.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [task_name, records] : worker_records) {
    for (auto& record : records) {
      obs::metrics().append_record(record.name, std::move(record.fields));
    }
  }
  write_status(true);
}

}  // namespace dnsembed::core
