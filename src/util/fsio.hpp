// Crash-safe file I/O: every artifact in the pipeline goes through
// atomic_write_file (write to a temp file in the same directory, fsync,
// rename over the target, fsync the directory), so a crash or power cut at
// any instant leaves either the old complete file or the new complete file
// — never a torn mix. It is the one write path, and it is always durable:
// what a run needs only while it runs (worker heartbeats and telemetry)
// travels on the supervisor's pipes, not through files.
//
// Transient failures (EIO from a flaky disk, EAGAIN/EINTR) are retried with
// bounded exponential backoff plus deterministic jitter; permanent failures
// (ENOENT on the directory, EACCES, ENOSPC) surface immediately as a typed
// IoError carrying the operation, path, and errno.
//
// Fault injection: src/fault installs a FaultInjector here (seeded transient
// errors, torn-write truncation, payload bit flips) so the robustness suite
// can exercise every failure path deterministically. util cannot depend on
// src/obs, so fsio keeps its own always-on relaxed-atomic stats; the obs
// registry folds them into every metrics snapshot as `io.*` /
// `artifact.corrupt_detected` counters.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace dnsembed::util::fsio {

/// The primitive operations a write/read decomposes into; fault injection
/// and IoError reporting are both expressed per operation.
enum class Op { kOpen, kWrite, kFsync, kRename, kRead };

const char* op_name(Op op) noexcept;

/// A filesystem operation failed permanently (non-transient errno, or the
/// retry budget ran out). what() includes operation, path, and strerror.
class IoError : public std::runtime_error {
 public:
  IoError(Op op, std::string path, int error_code, std::string_view detail);

  Op op() const noexcept { return op_; }
  const std::string& path() const noexcept { return path_; }
  int error_code() const noexcept { return error_code_; }

 private:
  Op op_;
  std::string path_;
  int error_code_;
};

/// Bounded exponential backoff: attempt k sleeps roughly
/// initial_backoff * multiplier^k, capped at max_backoff, scaled by a
/// deterministic jitter in [0.5, 1.0) derived from the path and attempt so
/// retry schedules are reproducible run to run.
struct RetryPolicy {
  std::size_t max_attempts = 5;
  std::chrono::microseconds initial_backoff{500};
  double multiplier = 4.0;
  std::chrono::microseconds max_backoff{100'000};
};

/// Is this errno worth retrying? (I/O glitches and interruptions, not
/// configuration problems like EACCES/ENOENT/ENOSPC.)
bool is_transient_errno(int error_code) noexcept;

/// Backoff delay for retry attempt `attempt` (0-based) under `policy`:
/// initial_backoff * multiplier^attempt capped at max_backoff, scaled by a
/// deterministic jitter in [0.5, 1.0) derived from (key, attempt). The fsio
/// retry loops key by file path; the process supervisor keys by task name —
/// both get reproducible, mutually desynchronized schedules.
std::chrono::microseconds backoff_delay(const RetryPolicy& policy, std::string_view key,
                                        std::size_t attempt) noexcept;

/// Injection point for the robustness suite. on_io may veto any primitive
/// operation by returning a nonzero errno (transient errnos are then
/// retried like real ones); mutate_payload may damage the bytes just
/// before they are committed (torn-write truncation, bit flips), modeling
/// corruption that slips past the write path and must be caught by the
/// artifact checksum on load.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  /// Return an errno to fail this attempt of `op` on `path`, or 0.
  virtual int on_io(Op op, std::string_view path, std::size_t attempt) = 0;
  /// Optionally corrupt the payload about to be written. Return true if
  /// the payload was changed.
  virtual bool mutate_payload(std::string_view path, std::string& payload) = 0;
};

/// Install (or clear, with nullptr) the process-wide injector. Not owned.
/// Not thread-safe against concurrent fsio calls — install before spawning
/// writers (test harnesses are single-threaded around this).
void set_fault_injector(FaultInjector* injector) noexcept;
FaultInjector* fault_injector() noexcept;

/// Always-on process counters (plain relaxed atomics — these are not
/// hot-loop metrics). Snapshot via stats(); obs::Registry::snapshot()
/// republishes them as counters.
struct Stats {
  std::uint64_t retries = 0;           // transient-failure retries performed
  std::uint64_t atomic_renames = 0;    // successful atomic commits
  std::uint64_t faults_injected = 0;   // injector-vetoed operations
  std::uint64_t corrupt_detected = 0;  // artifact checksum/header failures
};

Stats stats() noexcept;
void reset_stats() noexcept;

/// Called by the artifact loader when a container fails validation.
void note_corrupt_detected() noexcept;

/// Atomically replace `path` with `payload`. Retries transient failures
/// per `policy`; throws IoError when the budget is exhausted or a
/// permanent error occurs. On failure the previous file content (if any)
/// is untouched.
void atomic_write_file(const std::string& path, std::string_view payload,
                       const RetryPolicy& policy = {});

/// Read a whole file, retrying transient failures. Throws IoError on
/// missing/unreadable paths.
std::string read_file(const std::string& path, const RetryPolicy& policy = {});

/// Read-only memory mapping of a whole file — the zero-copy load path for
/// large artifacts (CSR graphs, embedding arenas). Movable; unmaps on
/// destruction. bytes() stays valid for the mapping's lifetime and its
/// base address is page-aligned, so any in-file alignment the writer
/// arranged is preserved in memory.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  std::string_view bytes() const noexcept { return {data_, size_}; }

 private:
  friend MappedFile map_file(const std::string& path, const RetryPolicy& policy);
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// mmap `path` read-only. Goes through the same Op::kOpen/Op::kRead fault
/// injection and retry policy as read_file so the robustness suite can veto
/// mapped loads too. An empty file yields an empty view. Throws IoError on
/// failure.
MappedFile map_file(const std::string& path, const RetryPolicy& policy = {});

bool file_exists(const std::string& path) noexcept;

/// mkdir -p. Throws IoError when a component cannot be created.
void create_directories(const std::string& path);

}  // namespace dnsembed::util::fsio
