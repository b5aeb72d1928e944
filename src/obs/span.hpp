// Hierarchical span tracing: OBS_SPAN("embed.line.epoch")-style scoped
// timers that record begin/end/thread-id into per-thread buffers and export
// as Chrome trace_event JSON (obs/export.hpp), loadable in Perfetto.
//
// Nesting needs no explicit parent links: spans are exported as "X"
// (complete) events, and Perfetto nests events that overlap in time on the
// same thread track — so a stage span opened in run_pipeline naturally
// encloses the projection row-range and LINE-worker spans its callees
// open, and worker-thread spans land on their own tracks.
//
// Cost model mirrors obs/metrics.hpp: when tracing is disabled (no
// --trace-out sink) a Span is one relaxed load + branch; when enabled, two
// steady_clock reads and one push_back into a thread-local buffer. Spans
// sit at stage/chunk granularity, never per-event in hot loops.
//
// Determinism: every span takes a global sequence number at open, and the
// exporter orders events by it, so with wall-clock fields zeroed
// (TraceWriteOptions::zero_times) the export is byte-stable and can be
// golden-filed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/log.hpp"

namespace dnsembed::obs {

inline std::atomic<bool> g_trace_enabled{false};

inline bool trace_enabled() noexcept {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

struct SpanEvent {
  std::string name;
  std::uint64_t begin_ns = 0;  // relative to the recorder epoch
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;  // stable small id, assigned in first-span order
  std::uint64_t seq = 0;  // global open order (parents precede children)
};

/// One worker task's spans, imported from its telemetry sidecar and rebased
/// to this process's epoch. The Chrome-trace exporter renders each lane as
/// its own pid with a `process_name` metadata event, so Perfetto shows e.g.
/// "behavior.query.s1" or "embed.temporal" as a separate process track.
struct ProcessLane {
  std::string name;
  std::vector<SpanEvent> events;  // the worker's own seq order
};

class SpanRecorder {
 public:
  static SpanRecorder& instance();

  /// Enabling (re)arms the epoch when no events were recorded yet.
  void set_enabled(bool enabled);
  /// Drop all recorded events and re-arm the epoch (tests / reuse).
  void clear();

  /// Nanoseconds since the recorder epoch.
  std::uint64_t now_ns() const noexcept;
  std::uint64_t next_seq() noexcept { return seq_.fetch_add(1, std::memory_order_relaxed); }

  /// Record one closed span on the calling thread's buffer.
  void record(std::string name, std::uint64_t begin_ns, std::uint64_t end_ns,
              std::uint64_t seq);

  /// Merged events ordered by seq. Call only after the threads that
  /// recorded spans have been joined (or are quiescent).
  std::vector<SpanEvent> sorted_events() const;

  /// Attach a worker task's spans as a dedicated export lane. Events must
  /// already be rebased to this recorder's epoch; re-adding a name appends
  /// to the existing lane.
  void add_process_lane(const std::string& name, std::vector<SpanEvent> events);

  /// Lanes sorted by name: pid/lane assignment in the trace export must not
  /// depend on worker completion order.
  std::vector<ProcessLane> process_lanes() const;

 private:
  SpanRecorder();

  struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::vector<SpanEvent> events;
  };

  ThreadBuffer& buffer_for_this_thread();

  mutable std::mutex mutex_;  // guards buffers_ registration and draining
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<ProcessLane> lanes_;
  std::atomic<std::uint64_t> seq_{0};
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span: inert (one relaxed load + branch) when tracing is disabled
/// at construction.
class Span {
 public:
  explicit Span(const char* name) {
    if (trace_enabled()) open(name);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (name_ != nullptr) close();
  }

 private:
  void open(const char* name);
  void close();

  const char* name_ = nullptr;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t seq_ = 0;
};

/// Stage-level span: in addition to the trace event it always times the
/// stage, records the duration into the latency histogram "<name>.seconds",
/// and emits one "<name>: X.XXs" log line at `level` on close — so stage
/// timings appear exactly once, in both the log and the trace export.
class StageSpan {
 public:
  explicit StageSpan(std::string name, util::LogLevel level = util::LogLevel::kInfo);
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;
  ~StageSpan();

  double seconds() const noexcept;

 private:
  std::string name_;
  util::LogLevel level_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t seq_ = 0;
  bool traced_ = false;
};

#define DNSEMBED_OBS_CONCAT2(a, b) a##b
#define DNSEMBED_OBS_CONCAT(a, b) DNSEMBED_OBS_CONCAT2(a, b)
/// Scoped span covering the rest of the enclosing block.
#define OBS_SPAN(name) \
  ::dnsembed::obs::Span DNSEMBED_OBS_CONCAT(obs_span_, __COUNTER__) { name }

}  // namespace dnsembed::obs
