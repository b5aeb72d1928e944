// Online deployment mode: a sliding-window detector retrained daily, with
// a realistic blacklist lag — a malicious domain only enters the training
// labels `label_delay_days` after it is first seen (threat feeds lag).
// Domains flagged before their blacklist entry exists are early detections,
// the operational win the paper's intro promises ("detecting ... during the
// very early stage of their operations").
//
// The detector is restartable: save_checkpoint() serializes the sliding
// window and all bookkeeping, and a freshly constructed detector that
// load_checkpoint()s the same state resumes the stream bit-identically
// (same alerts, same scores) — a crash or redeploy loses nothing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/behavior.hpp"
#include "dns/log_record.hpp"
#include "embed/embedder.hpp"
#include "intel/virustotal.hpp"
#include "ml/svm.hpp"

namespace dnsembed::core {

struct StreamingConfig {
  /// Sliding window over which graphs are built.
  std::size_t window_days = 3;
  /// Days between first sighting of a malicious domain and its appearance
  /// in the training blacklist.
  std::size_t label_delay_days = 2;
  /// Alert threshold: the score quantile of *benign-labeled* training
  /// domains that may be exceeded (false-positive budget).
  double alert_fpr = 0.01;

  /// Degradation guards: a day retrains only when the window yields at
  /// least this many modeled domains / confirmed malicious labels — thin
  /// or empty days are recorded (day_records()) and skipped instead of
  /// producing a degenerate model.
  std::size_t min_train_domains = 20;
  std::size_t min_malicious_labels = 5;

  /// Optional threat-feed override, e.g. fault::make_faulty_label_feed:
  /// called as (domain, first_seen_day, today) and returns whether the
  /// feed has published `domain` as of `today`. When unset, the default
  /// feed is VT confirmation after label_delay_days.
  std::function<bool(std::string_view, std::size_t, std::size_t)> label_feed;

  BehaviorModelConfig behavior;
  std::size_t embedding_dimension = 24;
  embed::EmbedConfig embedding;
  ml::SvmConfig svm;
  std::uint64_t seed = 1;

  StreamingConfig() {
    behavior.query_projection.min_similarity = 0.1;
    behavior.ip_projection.min_similarity = 0.1;
    behavior.temporal_projection.min_similarity = 0.1;
    embedding.line.total_samples = 1'500'000;
    svm.c = 1.0;
    svm.gamma = 0.5;
  }
};

struct DomainAlert {
  std::string domain;
  std::size_t day = 0;  // day index on which the alert fired
  double score = 0.0;
};

/// Per-day observability record: what the detector did with each day's
/// traffic, including why a retrain was skipped (degradation audit trail).
struct StreamingDayRecord {
  std::size_t day = 0;
  std::size_t entries = 0;         // entries fed for this day
  std::size_t window_entries = 0;  // entries across the whole window
  std::size_t kept_domains = 0;    // domains surviving graph pruning
  std::size_t labeled = 0;         // labels available that day
  std::size_t scored = 0;          // unlabeled domains scored
  std::size_t alerts = 0;          // alerts raised that day
  bool retrained = false;
  std::string skip_reason;         // empty when retrained
};

/// Feed one day of traffic at a time; the detector rebuilds its window
/// graphs, re-embeds, retrains on the labels available *as of that day*,
/// and raises alerts for unflagged domains scoring above the calibrated
/// threshold.
class StreamingDetector {
 public:
  /// `truth`/`vt` stand in for the operator's threat feed: a malicious
  /// domain becomes a label once VT-confirmed AND older than the delay.
  StreamingDetector(StreamingConfig config, const trace::GroundTruth& truth,
                    const intel::VirusTotalSim& vt);

  /// Process one day's entries (day indices must be fed in order).
  void advance_day(const std::vector<dns::LogEntry>& entries);

  std::size_t days_processed() const noexcept { return day_; }
  const std::vector<DomainAlert>& alerts() const noexcept { return alerts_; }
  const std::vector<StreamingDayRecord>& day_records() const noexcept { return days_; }

  /// First day each domain was seen / flagged (flagged only if alerted).
  const std::unordered_map<std::string, std::size_t>& first_seen() const noexcept {
    return first_seen_;
  }
  const std::unordered_map<std::string, std::size_t>& first_flagged() const noexcept {
    return first_flagged_;
  }

  /// Serialize the detector state (day index, window entries, first-seen /
  /// first-flagged maps, alerts, day records) as a versioned text
  /// checkpoint. Scores round-trip by bit pattern, so a restored detector
  /// continues bit-identically.
  void save_checkpoint(std::ostream& out) const;

  /// Restore state saved by save_checkpoint into this detector (construct
  /// it with the same config/truth/vt as the saving run). Throws
  /// std::runtime_error on a malformed or version-mismatched checkpoint.
  void load_checkpoint(std::istream& in);

  /// Durable checkpoint persistence (kind "streaming-checkpoint"): the text
  /// form above wrapped in an atomic, checksummed artifact container, so a
  /// crash mid-save never destroys the previous checkpoint and damage
  /// surfaces as util::CorruptArtifact instead of a half-restored detector.
  void save_checkpoint_file(const std::string& path) const;
  void load_checkpoint_file(const std::string& path);

 private:
  bool label_available(const std::string& domain, std::size_t first_seen_day) const;
  void retrain_and_score(StreamingDayRecord& record);
  void record_day_metrics(const StreamingDayRecord& record) const;

  StreamingConfig config_;
  const trace::GroundTruth* truth_;
  const intel::VirusTotalSim* vt_;
  const dns::PublicSuffixList* psl_;
  std::size_t day_ = 0;
  std::deque<std::vector<dns::LogEntry>> window_;
  std::unordered_map<std::string, std::size_t> first_seen_;   // by e2LD
  std::unordered_map<std::string, std::size_t> first_flagged_;
  std::vector<DomainAlert> alerts_;
  std::vector<StreamingDayRecord> days_;
};

}  // namespace dnsembed::core
