// ServeEngine: the long-running scoring core behind `dnsembed serve`.
//
// A snapshot bundles the three immutable artifacts a verdict needs — the
// embedding matrix, the trained SVM, and the precomputed domain→score index
// — under one version number. Lookups pin the current snapshot through
// serve/snapshot.hpp, normalize the query to its e2LD with the
// zero-allocation dns view path, and answer from the index without locks.
// Domains absent from the index but present in the embedding are scored
// inline on the caller's thread, under the same snapshot guard, with
// SvmModel::decision_value: the batch pipeline's own function, so the score
// is bit-identical to it by construction. No lookup waits on another thread.
//
// reload() rebuilds a snapshot from the artifact paths off the reader
// threads and publishes it atomically; in-flight lookups finish on the old
// snapshot, new lookups see the new one, and the old snapshot is retired
// once the last guard releases. A fallback keeps its guard while it scores
// one row, so publish() may wait that long.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "embed/embedding.hpp"
#include "ml/svm.hpp"
#include "serve/score_index.hpp"
#include "serve/snapshot.hpp"

namespace dnsembed::serve {

struct ServeOptions {
  /// Index the scores of the first index_limit embedding rows (0 = all).
  /// Rows past the limit stay reachable through the SVM fallback.
  std::size_t index_limit = 0;
  /// Threads for the reload-time score precompute (0 = hardware).
  std::size_t threads = 1;
  /// Seed of the index hash family; any fixed value works.
  std::uint64_t hash_seed = 0x646e73656d626564ULL;  // "dnsembed"
};

enum class ScoreSource {
  kIndex,    // wait-free index hit
  kBatched,  // scored inline by the SVM fallback (wire tag "batched")
  kUnknown,  // not in the embedding: no verdict possible
};

struct LookupResult {
  double score = 0.0;
  bool malicious = false;
  ScoreSource source = ScoreSource::kUnknown;
};

/// One immutable artifact generation.
struct ServeSnapshot {
  embed::EmbeddingMatrix embedding;
  ml::SvmModel model;
  ScoreIndex index;
  std::uint64_t version = 0;
};

class ServeEngine {
 public:
  /// Loads the artifacts, precomputes the index, and publishes snapshot v1.
  /// Throws util::CorruptArtifact / fsio::IoError on artifact problems and
  /// std::invalid_argument when the embedding dimension does not match the
  /// model.
  ServeEngine(std::string embeddings_path, std::string model_path, ServeOptions options);

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Score one domain on the calling thread. Index hits are lock-free and
  /// allocation-free; a fallback runs decision_value over its embedding row
  /// while holding the snapshot guard.
  LookupResult lookup(std::string_view domain);

  /// Re-read the artifact paths, rebuild the index, and publish the new
  /// snapshot. Safe to call concurrently with lookups; concurrent reloads
  /// serialize. Throws like the constructor on artifact problems, leaving
  /// the current snapshot in place.
  void reload();

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t index_hits = 0;
    std::uint64_t batch_scored = 0;
    std::uint64_t unknown = 0;
    std::uint64_t reloads = 0;
    std::uint64_t snapshot_version = 0;
    std::uint64_t index_entries = 0;
    std::uint64_t index_bytes = 0;
    std::uint64_t embedding_rows = 0;
  };
  /// Always-on internal counters (independent of the obs enabled flag), for
  /// the status writer and tests.
  Stats stats() const;

  const ServeOptions& options() const noexcept { return options_; }

 private:
  std::unique_ptr<ServeSnapshot> build_snapshot(std::uint64_t version) const;

  std::string embeddings_path_;
  std::string model_path_;
  ServeOptions options_;

  SnapshotHolder<ServeSnapshot> snapshot_;
  std::atomic<std::uint64_t> next_version_{1};

  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> index_hits_{0};
  std::atomic<std::uint64_t> batch_scored_{0};
  std::atomic<std::uint64_t> unknown_{0};
  std::atomic<std::uint64_t> reloads_{0};
};

}  // namespace dnsembed::serve
