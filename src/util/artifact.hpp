// Versioned, checksummed artifact container — the on-disk envelope for
// every durable intermediate the pipeline produces (similarity graphs,
// embedding matrices, model dumps, labeled sets, streaming checkpoints,
// run manifests).
//
// Layout (one header line, then the raw payload bytes):
//
//   dnsembed-artifact <version> <kind> <payload-bytes> <xxh64-hex>\n
//   <payload>
//
// load_artifact validates magic, version, declared kind, payload length,
// and the XXH64 checksum before a single payload byte reaches a parser, so
// torn writes, truncation, and bit flips surface as one typed
// CorruptArtifact error instead of a crash or a silently wrong load.
// Writes go through fsio::atomic_write_file, so a crash mid-save never
// destroys the previous good artifact.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/fsio.hpp"

namespace dnsembed::util {

inline constexpr std::string_view kArtifactMagic = "dnsembed-artifact";
inline constexpr int kArtifactVersion = 1;

/// An artifact failed validation (bad magic/version/kind, length mismatch,
/// checksum mismatch, or a payload that does not parse as its kind).
class CorruptArtifact : public std::runtime_error {
 public:
  CorruptArtifact(std::string path, std::string reason);

  const std::string& path() const noexcept { return path_; }
  const std::string& reason() const noexcept { return reason_; }

 private:
  std::string path_;
  std::string reason_;
};

/// XXH64 of the payload as 16 lowercase hex digits — the digest recorded in
/// artifact headers and run manifests.
std::string payload_digest(std::string_view payload);

/// Serialize header + payload (for callers that need the raw container
/// bytes, e.g. the loader fuzz tests).
std::string make_artifact(std::string_view kind, std::string_view payload);

/// The same container for a payload written in place: `write_payload`
/// fills the `payload_size` payload bytes at their final offset in the one
/// container buffer, then the header line (with the payload's digest) is
/// written in front of them. make_artifact(kind, payload) is this with a
/// copy as the writer; arena writers (util/csr.hpp) serialize straight
/// into the container.
std::string make_artifact(std::string_view kind, std::size_t payload_size,
                          const std::function<void(char*)>& write_payload);

/// Atomically write `payload` wrapped in a validated container.
void save_artifact(const std::string& path, std::string_view kind, std::string_view payload,
                   const fsio::RetryPolicy& policy = {});

/// Read and fully validate; returns the payload. Throws CorruptArtifact on
/// any validation failure (also counted in fsio stats as
/// artifact.corrupt_detected) and fsio::IoError when the file cannot be
/// read at all.
std::string load_artifact(const std::string& path, std::string_view kind,
                          const fsio::RetryPolicy& policy = {});

/// Validate in-memory container bytes (shared by load_artifact and tests).
/// `path` is used for error reporting only.
std::string validate_artifact_bytes(std::string_view bytes, std::string_view kind,
                                    const std::string& path);

/// Zero-copy validation core: full validation (magic, version, kind,
/// length, checksum), returning a view of the payload *inside* `bytes`.
/// The caller owns keeping `bytes` alive — map_artifact does so via the
/// file mapping; validate_artifact_bytes copies instead.
std::string_view validate_artifact_view(std::string_view bytes, std::string_view kind,
                                        const std::string& path);

/// Byte offset at which the payload begins inside the container
/// make_artifact(kind, payload) would produce for a payload of
/// `payload_size` bytes (the header line plus its '\n'). Writers of
/// alignment-sensitive payloads (util/csr.hpp arenas) use this to pick a
/// pad so typed sections land 8-aligned in the file — and therefore
/// 8-aligned in memory once mapped, since mmap bases are page-aligned.
std::size_t artifact_payload_offset(std::string_view kind, std::size_t payload_size) noexcept;

/// A validated artifact whose payload lives in a read-only file mapping —
/// no payload bytes are copied on load. The payload view is valid for this
/// object's lifetime. Consumers needing aligned typed access on top of the
/// raw view (util/csr.hpp arenas) handle any residual misalignment
/// themselves; zero_copy() reports whether the mapping path was used.
class MappedArtifact {
 public:
  std::string_view payload() const noexcept { return payload_; }
  bool zero_copy() const noexcept { return zero_copy_; }

 private:
  friend MappedArtifact map_artifact(const std::string& path, std::string_view kind,
                                     const fsio::RetryPolicy& policy);
  fsio::MappedFile mapping_;
  std::string_view payload_;
  bool zero_copy_ = false;
};

/// mmap + validate: the checksum pass streams the mapped bytes once, then
/// the payload is served straight from the page cache with no copy. Throws
/// CorruptArtifact / fsio::IoError exactly like load_artifact.
MappedArtifact map_artifact(const std::string& path, std::string_view kind,
                            const fsio::RetryPolicy& policy = {});

}  // namespace dnsembed::util
