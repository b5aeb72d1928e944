// Fork-based child processes for the pipeline supervisor. A ChildProcess
// runs a callable in a forked child (no exec: the child inherits the
// parent's memory image, so task closures carry their configuration with no
// serialization) and terminates with std::_Exit so no parent-side atexit
// handlers or static destructors run twice.
//
// Fork-without-exec is safe here because the supervisor process holds no
// persistent threads while spawning: thread pools in this codebase are
// scoped and joined, and the obs registries are passive data the child only
// writes to its own copy of. Each child gets one pipe: the child writes to
// it (the supervisor's heartbeats and telemetry sidecar), the parent reads
// it. The parent closes its copy of the write end right after the fork, so
// end of file on the read end means the child has exited. Task results
// still travel only through checksummed artifact files, never through
// shared memory.
#pragma once

#include <sys/types.h>

#include <functional>
#include <optional>

namespace dnsembed::util {

/// How a child ended, normalized from wait4 status, plus its resource
/// usage so the supervisor can account cpu/RSS per task attempt.
struct ExitStatus {
  /// Exit code for a normal exit; 128 + signal for a signaled death (the
  /// shell convention, so a SIGKILLed child reports 137).
  int code = 0;
  bool signaled = false;
  /// getrusage-style accounting of the reaped child (zero when the reap was
  /// lost to another waiter, e.g. ECHILD).
  double cpu_user_seconds = 0.0;
  double cpu_system_seconds = 0.0;
  long max_rss_kb = 0;

  bool success() const noexcept { return !signaled && code == 0; }
};

/// One forked child and the read end of its pipe. Movable, not copyable;
/// the destructor SIGKILLs and reaps a still-running child and closes the
/// pipe, so a throwing supervisor never leaks processes or descriptors.
class ChildProcess {
 public:
  ChildProcess() = default;
  ChildProcess(ChildProcess&& other) noexcept;
  ChildProcess& operator=(ChildProcess&& other) noexcept;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ~ChildProcess();

  /// Make a pipe, fork, and run `body` in the child with the pipe's write
  /// end; the child exits with body's return value via std::_Exit
  /// (buffered stdio in the child is flushed first). Throws
  /// std::system_error when pipe or fork fails (EMFILE/EAGAIN/ENOMEM),
  /// which the supervisor treats like any other transient task failure.
  static ChildProcess spawn(const std::function<int(int write_fd)>& body);

  bool running() const noexcept { return pid_ > 0; }
  pid_t pid() const noexcept { return pid_; }

  /// The read end of the child's pipe (-1 for an empty ChildProcess). Reads
  /// return 0 (end of file) once the child has exited.
  int read_fd() const noexcept { return read_fd_; }

  /// Blocking reap; returns immediately if already reaped. Closes the pipe.
  ExitStatus wait();

  /// Send `signal` (default SIGKILL) to a running child. No-op otherwise.
  void kill(int signal) noexcept;
  void kill() noexcept;

 private:
  pid_t pid_ = -1;
  int read_fd_ = -1;
  std::optional<ExitStatus> reaped_;
};

}  // namespace dnsembed::util
