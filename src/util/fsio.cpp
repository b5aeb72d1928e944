#include "util/fsio.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>

#include "util/hash.hpp"
#include "util/log.hpp"

namespace dnsembed::util::fsio {

namespace {

struct AtomicStats {
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> atomic_renames{0};
  std::atomic<std::uint64_t> faults_injected{0};
  std::atomic<std::uint64_t> corrupt_detected{0};
};

AtomicStats& counters() {
  static AtomicStats stats;
  return stats;
}

std::atomic<FaultInjector*> g_injector{nullptr};

/// A failed primitive operation, classified for the retry loop.
struct OpFailure {
  Op op;
  int error_code;
};

/// Ask the injector whether to veto this operation; returns the injected
/// errno (counted) or 0.
int injected_errno(Op op, const std::string& path, std::size_t attempt) {
  FaultInjector* injector = g_injector.load(std::memory_order_acquire);
  if (injector == nullptr) return 0;
  const int err = injector->on_io(op, path, attempt);
  if (err != 0) counters().faults_injected.fetch_add(1, std::memory_order_relaxed);
  return err;
}

void backoff_sleep(const RetryPolicy& policy, const std::string& path, std::size_t attempt) {
  const auto delay = backoff_delay(policy, path, attempt);
  if (delay.count() > 0) std::this_thread::sleep_for(delay);
}

/// One full attempt of the temp-write-fsync-rename sequence. Returns
/// nullopt on success. The temp file is always cleaned up on failure.
std::optional<OpFailure> try_write_once(const std::string& path, const std::string& tmp,
                                        std::string_view payload, std::size_t attempt) {
  const auto fault = [&](Op op) -> std::optional<OpFailure> {
    if (const int err = injected_errno(op, path, attempt)) return OpFailure{op, err};
    return std::nullopt;
  };

  if (auto failure = fault(Op::kOpen)) return failure;
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return OpFailure{Op::kOpen, errno};

  const auto fail_with = [&](Op op, int err) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return OpFailure{op, err};
  };

  if (auto failure = fault(Op::kWrite)) return fail_with(failure->op, failure->error_code);
  const char* data = payload.data();
  std::size_t remaining = payload.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd, data, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail_with(Op::kWrite, errno);
    }
    data += n;
    remaining -= static_cast<std::size_t>(n);
  }

  if (auto failure = fault(Op::kFsync)) return fail_with(failure->op, failure->error_code);
  if (::fsync(fd) != 0) return fail_with(Op::kFsync, errno);
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return OpFailure{Op::kWrite, errno};
  }

  if (auto failure = fault(Op::kRename)) {
    ::unlink(tmp.c_str());
    return OpFailure{failure->op, failure->error_code};
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return OpFailure{Op::kRename, err};
  }

  // Durability of the rename itself: fsync the containing directory. Best
  // effort — some filesystems refuse O_RDONLY fsync on directories; the
  // rename is already atomic for crash *consistency* either way.
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
  return std::nullopt;
}

}  // namespace

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kOpen: return "open";
    case Op::kWrite: return "write";
    case Op::kFsync: return "fsync";
    case Op::kRename: return "rename";
    case Op::kRead: return "read";
  }
  return "?";
}

IoError::IoError(Op op, std::string path, int error_code, std::string_view detail)
    : std::runtime_error{std::string{op_name(op)} + " '" + path +
                         "': " + std::strerror(error_code) + " (errno " +
                         std::to_string(error_code) + ")" +
                         (detail.empty() ? "" : std::string{"; "} + std::string{detail})},
      op_{op},
      path_{std::move(path)},
      error_code_{error_code} {}

std::chrono::microseconds backoff_delay(const RetryPolicy& policy, std::string_view key,
                                        std::size_t attempt) noexcept {
  double micros = static_cast<double>(policy.initial_backoff.count());
  for (std::size_t k = 0; k < attempt; ++k) micros *= policy.multiplier;
  micros = std::min(micros, static_cast<double>(policy.max_backoff.count()));
  // Deterministic jitter in [0.5, 1.0): derived from key+attempt so two
  // processes retrying the same file desynchronize, yet a rerun of the
  // same scenario sleeps identically (reproducible fault tests).
  const std::uint64_t h = xxhash64(key, 0x6a09e667f3bcc908ULL + attempt);
  const double jitter = 0.5 + 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
  micros *= jitter;
  if (micros < 1.0) return std::chrono::microseconds{0};
  return std::chrono::microseconds{static_cast<std::int64_t>(micros)};
}

bool is_transient_errno(int error_code) noexcept {
  switch (error_code) {
    case EIO:
    case EAGAIN:
    case EINTR:
    case EBUSY:
      return true;
    default:
      return false;
  }
}

void set_fault_injector(FaultInjector* injector) noexcept {
  g_injector.store(injector, std::memory_order_release);
}

FaultInjector* fault_injector() noexcept {
  return g_injector.load(std::memory_order_acquire);
}

Stats stats() noexcept {
  const auto& c = counters();
  return Stats{c.retries.load(std::memory_order_relaxed),
               c.atomic_renames.load(std::memory_order_relaxed),
               c.faults_injected.load(std::memory_order_relaxed),
               c.corrupt_detected.load(std::memory_order_relaxed)};
}

void reset_stats() noexcept {
  auto& c = counters();
  c.retries.store(0, std::memory_order_relaxed);
  c.atomic_renames.store(0, std::memory_order_relaxed);
  c.faults_injected.store(0, std::memory_order_relaxed);
  c.corrupt_detected.store(0, std::memory_order_relaxed);
}

void note_corrupt_detected() noexcept {
  counters().corrupt_detected.fetch_add(1, std::memory_order_relaxed);
}

void atomic_write_file(const std::string& path, std::string_view payload,
                       const RetryPolicy& policy) {
  static std::atomic<std::uint64_t> sequence{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));

  std::optional<OpFailure> last;
  const std::size_t attempts = std::max<std::size_t>(policy.max_attempts, 1);
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    // Torn-write / bit-flip injection happens per attempt: the damaged
    // bytes commit "successfully" and must be caught by the artifact
    // checksum on load, exactly like real silent corruption.
    std::string_view bytes = payload;
    std::string mutated;
    if (FaultInjector* injector = g_injector.load(std::memory_order_acquire)) {
      mutated.assign(payload);
      if (injector->mutate_payload(path, mutated)) bytes = mutated;
    }

    last = try_write_once(path, tmp, bytes, attempt);
    if (!last) {
      counters().atomic_renames.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (!is_transient_errno(last->error_code)) {
      throw IoError{last->op, path, last->error_code, "atomic write failed"};
    }
    if (attempt + 1 < attempts) {
      counters().retries.fetch_add(1, std::memory_order_relaxed);
      log_line(LogLevel::kWarn, "fsio: transient " + std::string{op_name(last->op)} +
                                    " failure on '" + path + "' (" +
                                    std::strerror(last->error_code) + "), retrying");
      backoff_sleep(policy, path, attempt);
    }
  }
  throw IoError{last->op, path, last->error_code,
                "atomic write failed after " + std::to_string(attempts) + " attempts"};
}

std::string read_file(const std::string& path, const RetryPolicy& policy) {
  std::optional<OpFailure> last;
  const std::size_t attempts = std::max<std::size_t>(policy.max_attempts, 1);
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    last = std::nullopt;
    if (const int err = injected_errno(Op::kOpen, path, attempt)) {
      last = OpFailure{Op::kOpen, err};
    }
    int fd = -1;
    if (!last) {
      fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
      if (fd < 0) last = OpFailure{Op::kOpen, errno};
    }
    std::string content;
    if (!last) {
      if (const int err = injected_errno(Op::kRead, path, attempt)) {
        last = OpFailure{Op::kRead, err};
      } else {
        // Sized once from fstat, with one spare byte so the read that sees
        // EOF needs no growth, then read until EOF: a file that grew since
        // is still read whole (the buffer doubles when full), and one that
        // shrank is cut to what was read.
        struct stat st {};
        const std::size_t expected =
            ::fstat(fd, &st) == 0 && st.st_size > 0 ? static_cast<std::size_t>(st.st_size) : 0;
        content.resize(expected + 1);
        std::size_t filled = 0;
        while (true) {
          if (filled == content.size()) content.resize(2 * content.size());
          const ssize_t n = ::read(fd, content.data() + filled, content.size() - filled);
          if (n < 0) {
            if (errno == EINTR) continue;
            last = OpFailure{Op::kRead, errno};
            break;
          }
          if (n == 0) break;
          filled += static_cast<std::size_t>(n);
        }
        content.resize(filled);
      }
    }
    if (fd >= 0) ::close(fd);
    if (!last) return content;
    if (!is_transient_errno(last->error_code)) {
      throw IoError{last->op, path, last->error_code, "read failed"};
    }
    if (attempt + 1 < attempts) {
      counters().retries.fetch_add(1, std::memory_order_relaxed);
      backoff_sleep(policy, path, attempt);
    }
  }
  throw IoError{last->op, path, last->error_code,
                "read failed after " + std::to_string(attempts) + " attempts"};
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr && size_ != 0) {
      ::munmap(const_cast<char*>(data_), size_);
    }
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr && size_ != 0) ::munmap(const_cast<char*>(data_), size_);
}

MappedFile map_file(const std::string& path, const RetryPolicy& policy) {
  std::optional<OpFailure> last;
  const std::size_t attempts = std::max<std::size_t>(policy.max_attempts, 1);
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    last = std::nullopt;
    if (const int err = injected_errno(Op::kOpen, path, attempt)) {
      last = OpFailure{Op::kOpen, err};
    }
    int fd = -1;
    if (!last) {
      fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
      if (fd < 0) last = OpFailure{Op::kOpen, errno};
    }
    MappedFile mapped;
    if (!last) {
      if (const int err = injected_errno(Op::kRead, path, attempt)) {
        last = OpFailure{Op::kRead, err};
      } else {
        struct stat st {};
        if (::fstat(fd, &st) != 0) {
          last = OpFailure{Op::kRead, errno};
        } else if (st.st_size > 0) {
          const auto size = static_cast<std::size_t>(st.st_size);
          void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
          if (base == MAP_FAILED) {
            last = OpFailure{Op::kRead, errno};
          } else {
            mapped.data_ = static_cast<const char*>(base);
            mapped.size_ = size;
          }
        }
      }
    }
    if (fd >= 0) ::close(fd);
    if (!last) return mapped;
    if (!is_transient_errno(last->error_code)) {
      throw IoError{last->op, path, last->error_code, "mmap failed"};
    }
    if (attempt + 1 < attempts) {
      counters().retries.fetch_add(1, std::memory_order_relaxed);
      backoff_sleep(policy, path, attempt);
    }
  }
  throw IoError{last->op, path, last->error_code,
                "mmap failed after " + std::to_string(attempts) + " attempts"};
}

bool file_exists(const std::string& path) noexcept {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

void create_directories(const std::string& path) {
  if (path.empty()) return;
  std::string prefix;
  prefix.reserve(path.size());
  std::size_t start = 0;
  while (start <= path.size()) {
    const auto slash = path.find('/', start);
    const auto end = slash == std::string::npos ? path.size() : slash;
    prefix = path.substr(0, end);
    start = end + 1;
    if (prefix.empty() || prefix == ".") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      throw IoError{Op::kOpen, prefix, errno, "mkdir failed"};
    }
    if (slash == std::string::npos) break;
  }
}

}  // namespace dnsembed::util::fsio
