#include "util/subprocess.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <system_error>
#include <utility>

#include "util/log.hpp"

namespace dnsembed::util {

namespace {

double timeval_seconds(const struct timeval& tv) noexcept {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

ExitStatus from_wait_status(int status, const struct rusage& usage) noexcept {
  ExitStatus result;
  if (WIFSIGNALED(status)) {
    result.signaled = true;
    result.code = 128 + WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    result.code = WEXITSTATUS(status);
  } else {
    result.code = -1;  // stopped/continued never reach here (no WUNTRACED)
  }
  result.cpu_user_seconds = timeval_seconds(usage.ru_utime);
  result.cpu_system_seconds = timeval_seconds(usage.ru_stime);
  result.max_rss_kb = usage.ru_maxrss;
  return result;
}

}  // namespace

ChildProcess::ChildProcess(ChildProcess&& other) noexcept { *this = std::move(other); }

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
  if (this != &other) {
    if (running()) kill();
    wait();
    pid_ = std::exchange(other.pid_, -1);
    read_fd_ = std::exchange(other.read_fd_, -1);
    reaped_ = std::exchange(other.reaped_, std::nullopt);
  }
  return *this;
}

ChildProcess::~ChildProcess() {
  if (running()) kill();
  wait();
}

ChildProcess ChildProcess::spawn(const std::function<int(int write_fd)>& body) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::system_error{errno, std::generic_category(), "pipe"};
  }
  // Flush stdio before forking so buffered parent output is not duplicated
  // into the child's _Exit path.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::system_error{err, std::generic_category(), "fork"};
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 1;
    try {
      code = body(fds[1]);
    } catch (const std::exception& e) {
      log_error() << "worker: uncaught exception: " << e.what();
      code = 1;
    } catch (...) {
      log_error() << "worker: uncaught non-standard exception";
      code = 1;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    std::_Exit(code);
  }
  // Only the child may hold the write end, or end of file would wait for
  // every holder, this process and later children included.
  ::close(fds[1]);
  ChildProcess child;
  child.pid_ = pid;
  child.read_fd_ = fds[0];
  return child;
}

ExitStatus ChildProcess::wait() {
  if (read_fd_ >= 0) ::close(std::exchange(read_fd_, -1));
  if (pid_ <= 0) return reaped_.value_or(ExitStatus{.code = -1, .signaled = false});
  int status = 0;
  struct rusage usage = {};
  pid_t r;
  do {
    r = ::wait4(pid_, &status, 0, &usage);
  } while (r < 0 && errno == EINTR);
  pid_ = -1;
  reaped_ = r < 0 ? ExitStatus{.code = -1, .signaled = false}
                  : from_wait_status(status, usage);
  return *reaped_;
}

void ChildProcess::kill(int signal) noexcept {
  if (pid_ > 0) ::kill(pid_, signal);
}

void ChildProcess::kill() noexcept { kill(SIGKILL); }

}  // namespace dnsembed::util
