#include "util/artifact.hpp"

#include <charconv>
#include <cstring>

#include "util/hash.hpp"

namespace dnsembed::util {

namespace {

[[noreturn]] void corrupt(const std::string& path, std::string reason) {
  fsio::note_corrupt_detected();
  throw CorruptArtifact{path, std::move(reason)};
}

}  // namespace

CorruptArtifact::CorruptArtifact(std::string path, std::string reason)
    : std::runtime_error{"corrupt artifact '" + path + "': " + reason},
      path_{std::move(path)},
      reason_{std::move(reason)} {}

std::string payload_digest(std::string_view payload) { return hex64(xxhash64(payload)); }

std::string make_artifact(std::string_view kind, std::string_view payload) {
  return make_artifact(kind, payload.size(), [&](char* out) {
    if (!payload.empty()) std::memcpy(out, payload.data(), payload.size());
  });
}

std::string make_artifact(std::string_view kind, std::size_t payload_size,
                          const std::function<void(char*)>& write_payload) {
  const std::size_t offset = artifact_payload_offset(kind, payload_size);
  std::string out(offset + payload_size, '\0');
  write_payload(out.data() + offset);
  std::string header;
  header.reserve(offset);
  header.append(kArtifactMagic);
  header.push_back(' ');
  header.append(std::to_string(kArtifactVersion));
  header.push_back(' ');
  header.append(kind);
  header.push_back(' ');
  header.append(std::to_string(payload_size));
  header.push_back(' ');
  header.append(payload_digest(std::string_view{out}.substr(offset)));
  header.push_back('\n');
  if (header.size() != offset) throw std::logic_error{"make_artifact: header size mismatch"};
  std::memcpy(out.data(), header.data(), offset);
  return out;
}

void save_artifact(const std::string& path, std::string_view kind, std::string_view payload,
                   const fsio::RetryPolicy& policy) {
  fsio::atomic_write_file(path, make_artifact(kind, payload), policy);
}

std::string validate_artifact_bytes(std::string_view bytes, std::string_view kind,
                                    const std::string& path) {
  return std::string{validate_artifact_view(bytes, kind, path)};
}

std::string_view validate_artifact_view(std::string_view bytes, std::string_view kind,
                                        const std::string& path) {
  const auto newline = bytes.find('\n');
  if (newline == std::string_view::npos) corrupt(path, "missing header line");
  const std::string_view header = bytes.substr(0, newline);
  const std::string_view payload = bytes.substr(newline + 1);

  // Header fields: magic version kind bytes digest.
  std::string_view fields[5];
  std::size_t field_count = 0;
  std::size_t start = 0;
  while (field_count < 5 && start <= header.size()) {
    const auto space = header.find(' ', start);
    const auto end = space == std::string_view::npos ? header.size() : space;
    fields[field_count++] = header.substr(start, end - start);
    if (space == std::string_view::npos) break;
    start = space + 1;
  }
  if (field_count != 5) corrupt(path, "malformed header");
  if (fields[0] != kArtifactMagic) corrupt(path, "bad magic");

  int version = 0;
  {
    const auto [ptr, ec] =
        std::from_chars(fields[1].data(), fields[1].data() + fields[1].size(), version);
    if (ec != std::errc{} || ptr != fields[1].data() + fields[1].size()) {
      corrupt(path, "bad version field");
    }
  }
  if (version != kArtifactVersion) {
    corrupt(path, "unsupported format version " + std::to_string(version));
  }
  if (fields[2] != kind) {
    corrupt(path, "kind mismatch: expected '" + std::string{kind} + "', found '" +
                      std::string{fields[2]} + "'");
  }

  std::size_t declared = 0;
  {
    const auto [ptr, ec] =
        std::from_chars(fields[3].data(), fields[3].data() + fields[3].size(), declared);
    if (ec != std::errc{} || ptr != fields[3].data() + fields[3].size()) {
      corrupt(path, "bad length field");
    }
  }
  if (declared != payload.size()) {
    corrupt(path, "length mismatch: header declares " + std::to_string(declared) +
                      " bytes, file holds " + std::to_string(payload.size()));
  }

  std::uint64_t declared_digest = 0;
  if (!parse_hex64(fields[4], declared_digest)) corrupt(path, "bad checksum field");
  if (xxhash64(payload) != declared_digest) corrupt(path, "checksum mismatch");

  return payload;
}

std::string load_artifact(const std::string& path, std::string_view kind,
                          const fsio::RetryPolicy& policy) {
  return validate_artifact_bytes(fsio::read_file(path, policy), kind, path);
}

std::size_t artifact_payload_offset(std::string_view kind, std::size_t payload_size) noexcept {
  // magic ' ' version ' ' kind ' ' size ' ' 16-hex-digest '\n'
  std::size_t size_digits = 1;
  for (std::size_t v = payload_size; v >= 10; v /= 10) ++size_digits;
  std::size_t version_digits = 1;
  for (int v = kArtifactVersion; v >= 10; v /= 10) ++version_digits;
  return kArtifactMagic.size() + 1 + version_digits + 1 + kind.size() + 1 + size_digits + 1 +
         16 + 1;
}

MappedArtifact map_artifact(const std::string& path, std::string_view kind,
                            const fsio::RetryPolicy& policy) {
  MappedArtifact artifact;
  artifact.mapping_ = fsio::map_file(path, policy);
  artifact.payload_ = validate_artifact_view(artifact.mapping_.bytes(), kind, path);
  artifact.zero_copy_ = true;
  return artifact;
}

}  // namespace dnsembed::util
