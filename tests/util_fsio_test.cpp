// Crash-safe I/O layer: atomic_write_file must commit all-or-nothing (a
// failed commit leaves the previous file byte-intact), transient errnos
// must be retried with the bounded budget, and the artifact container must
// reject every form of damage — wrong kind, truncation, bit flips, torn
// writes — as a typed CorruptArtifact before a payload byte reaches a
// parser.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "fault/io_faults.hpp"
#include "util/artifact.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"

namespace dnsembed::util {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    path_ = fs::temp_directory_path() / (std::string{"dnsembed_"} + tag);
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string file(const char* name) const { return (path_ / name).string(); }

 private:
  fs::path path_;
};

/// Fails selected ops with a scripted errno for the first `fail_count`
/// attempts, then lets the operation through.
class ScriptedInjector final : public fsio::FaultInjector {
 public:
  ScriptedInjector(fsio::Op op, int error_code, std::size_t fail_count)
      : op_{op}, error_code_{error_code}, remaining_{fail_count} {}

  int on_io(fsio::Op op, std::string_view, std::size_t) override {
    if (op != op_ || remaining_ == 0) return 0;
    --remaining_;
    return error_code_;
  }
  bool mutate_payload(std::string_view, std::string&) override { return false; }

 private:
  fsio::Op op_;
  int error_code_;
  std::size_t remaining_;
};

/// Truncates every payload just before commit — a torn write that the
/// write path itself cannot see.
class TornWriter final : public fsio::FaultInjector {
 public:
  int on_io(fsio::Op, std::string_view, std::size_t) override { return 0; }
  bool mutate_payload(std::string_view, std::string& payload) override {
    if (payload.size() < 2) return false;
    payload.resize(payload.size() / 2);
    return true;
  }
};

fsio::RetryPolicy fast_policy() {
  fsio::RetryPolicy policy;
  policy.initial_backoff = std::chrono::microseconds{1};
  policy.max_backoff = std::chrono::microseconds{10};
  return policy;
}

TEST(Fsio, AtomicWriteRoundTrip) {
  TempDir dir{"fsio_roundtrip"};
  const auto path = dir.file("data.bin");
  fsio::reset_stats();

  const std::string payload = "hello\0world\nbinary ok";
  fsio::atomic_write_file(path, payload);
  EXPECT_TRUE(fsio::file_exists(path));
  EXPECT_EQ(fsio::read_file(path), payload);
  EXPECT_EQ(fsio::stats().atomic_renames, 1u);
  EXPECT_EQ(fsio::stats().retries, 0u);
}

// read_file sizes its buffer from fstat: a multi-MB payload with every byte
// value (NULs included), an empty file, and a pipe, whose fstat size is 0,
// so its bytes are only read whole if the buffer grows past that size.
TEST(Fsio, ReadFileRoundTripsLargeEmptyAndGrowingFiles) {
  TempDir dir{"fsio_read_sizes"};
  util::Rng rng{77};
  std::string large(3 * 1024 * 1024 + 17, '\0');
  for (auto& c : large) c = static_cast<char>(rng.uniform_index(256));
  const auto large_path = dir.file("large.bin");
  fsio::atomic_write_file(large_path, large);
  EXPECT_EQ(fsio::read_file(large_path), large);
  EXPECT_EQ(fsio::map_file(large_path).bytes(), large);

  const auto empty_path = dir.file("empty.bin");
  fsio::atomic_write_file(empty_path, "");
  EXPECT_EQ(fsio::read_file(empty_path), "");
  EXPECT_TRUE(fsio::map_file(empty_path).bytes().empty());

  const auto fifo_path = dir.file("growing.fifo");
  ASSERT_EQ(::mkfifo(fifo_path.c_str(), 0600), 0) << std::strerror(errno);
  const std::string streamed = large.substr(0, 300'001);
  std::thread writer{[&] {
    const int fd = ::open(fifo_path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0) return;
    std::size_t written = 0;
    while (written < streamed.size()) {
      const ssize_t n = ::write(fd, streamed.data() + written, streamed.size() - written);
      if (n <= 0) break;
      written += static_cast<std::size_t>(n);
    }
    ::close(fd);
  }};
  const std::string got = fsio::read_file(fifo_path);
  writer.join();
  EXPECT_EQ(got, streamed);
}

TEST(Fsio, FailedCommitPreservesPreviousFile) {
  TempDir dir{"fsio_preserve"};
  const auto path = dir.file("data.bin");
  fsio::atomic_write_file(path, "previous generation");

  // EACCES is permanent: the rename must fail immediately and leave the
  // old bytes untouched.
  ScriptedInjector injector{fsio::Op::kRename, EACCES, 100};
  fsio::set_fault_injector(&injector);
  EXPECT_THROW(fsio::atomic_write_file(path, "next generation", fast_policy()),
               fsio::IoError);
  fsio::set_fault_injector(nullptr);

  EXPECT_EQ(fsio::read_file(path), "previous generation");
}

TEST(Fsio, TransientErrorsAreRetriedAndCounted) {
  TempDir dir{"fsio_retry"};
  const auto path = dir.file("data.bin");
  fsio::reset_stats();

  ScriptedInjector injector{fsio::Op::kWrite, EIO, 2};
  fsio::set_fault_injector(&injector);
  fsio::atomic_write_file(path, "persisted despite two EIOs", fast_policy());
  fsio::set_fault_injector(nullptr);

  EXPECT_EQ(fsio::read_file(path), "persisted despite two EIOs");
  EXPECT_GE(fsio::stats().retries, 2u);
  EXPECT_GE(fsio::stats().faults_injected, 2u);
}

TEST(Fsio, RetryBudgetExhaustionThrowsIoError) {
  TempDir dir{"fsio_exhaust"};
  const auto path = dir.file("data.bin");
  fsio::atomic_write_file(path, "previous generation");

  ScriptedInjector injector{fsio::Op::kWrite, EIO, 1000};
  fsio::set_fault_injector(&injector);
  try {
    fsio::atomic_write_file(path, "never lands", fast_policy());
    FAIL() << "expected IoError";
  } catch (const fsio::IoError& e) {
    EXPECT_EQ(e.error_code(), EIO);
    EXPECT_EQ(e.path(), path);
  }
  fsio::set_fault_injector(nullptr);

  EXPECT_EQ(fsio::read_file(path), "previous generation");
}

TEST(Fsio, ReadMissingFileThrowsIoErrorWithErrno) {
  TempDir dir{"fsio_missing"};
  try {
    fsio::read_file(dir.file("absent.bin"));
    FAIL() << "expected IoError";
  } catch (const fsio::IoError& e) {
    EXPECT_EQ(e.error_code(), ENOENT);
    EXPECT_NE(std::string{e.what()}.find("absent.bin"), std::string::npos);
  }
}

TEST(Fsio, CreateDirectoriesIsRecursiveAndIdempotent) {
  TempDir dir{"fsio_mkdir"};
  const auto nested = dir.file("a/b/c");
  fsio::create_directories(nested);
  fsio::create_directories(nested);
  EXPECT_TRUE(fs::is_directory(nested));
}

TEST(Artifact, RoundTripAndKindMismatch) {
  TempDir dir{"artifact_roundtrip"};
  const auto path = dir.file("model.art");
  const std::string payload = "payload with\nnewlines and \0 bytes";

  save_artifact(path, "svm-model", payload);
  EXPECT_EQ(load_artifact(path, "svm-model"), payload);
  EXPECT_THROW(load_artifact(path, "embedding"), CorruptArtifact);
}

TEST(Artifact, TruncationAndBitFlipsAreDetected) {
  TempDir dir{"artifact_damage"};
  const auto path = dir.file("data.art");
  fsio::reset_stats();

  const std::string container = make_artifact("labeled-set", "example.com\t1\n");
  Rng rng{99};
  for (int round = 0; round < 32; ++round) {
    std::string damaged = container;
    if (round % 2 == 0) {
      fault::truncate_at_random_offset(damaged, rng);
    } else {
      fault::flip_random_bits(damaged, rng, 1 + round % 4);
    }
    if (damaged == container) continue;  // flip may bounce back; skip no-ops
    fsio::atomic_write_file(path, damaged);
    EXPECT_THROW(load_artifact(path, "labeled-set"), CorruptArtifact)
        << "round " << round;
  }
  EXPECT_GE(fsio::stats().corrupt_detected, 1u);
}

TEST(Artifact, TornWriteInjectionIsCaughtOnLoad) {
  TempDir dir{"artifact_torn"};
  const auto path = dir.file("data.art");

  TornWriter torn;
  fsio::set_fault_injector(&torn);
  save_artifact(path, "checkpoint", "state that will be cut in half");
  fsio::set_fault_injector(nullptr);

  EXPECT_THROW(load_artifact(path, "checkpoint"), CorruptArtifact);
}

TEST(Artifact, IoFaultChannelSeverityZeroIsClean) {
  TempDir dir{"artifact_channel"};
  const auto path = dir.file("data.art");

  fault::FaultPlan plan;
  plan.io_error_rate = 1.0;
  plan.io_torn_write_rate = 1.0;
  plan.io_bitflip_rate = 1.0;
  const auto quiet = plan.scaled(0.0);
  fault::IoFaultChannel channel{quiet};
  fault::ScopedIoFaults guard{&channel};

  save_artifact(path, "io-trial", "untouched");
  EXPECT_EQ(load_artifact(path, "io-trial"), "untouched");
  EXPECT_EQ(channel.stats().errors_injected, 0u);
  EXPECT_EQ(channel.stats().torn_writes, 0u);
  EXPECT_EQ(channel.stats().bitflips, 0u);
}

}  // namespace
}  // namespace dnsembed::util
