#include "core/streaming.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/detector.hpp"
#include "core/pipeline.hpp"
#include "util/artifact.hpp"
#include "util/bithex.hpp"
#include "dns/log_io.hpp"
#include "intel/labels.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace dnsembed::core {

namespace {

constexpr std::string_view kCheckpointMagic = "dnsembed-streaming-checkpoint 1";

// Doubles round-trip through checkpoints by bit pattern (util/bithex), not
// decimal text, so a restored run scores bit-identically.
double score_from_hex(std::string_view hex) {
  double score = 0.0;
  if (!util::hex_to_double(hex, score)) {
    throw std::runtime_error{"checkpoint: bad score encoding"};
  }
  return score;
}

std::string checkpoint_line(std::istream& in, const char* what) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error{std::string{"checkpoint: truncated before "} + what};
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line;
}

// Parse "<tag> <count>" section headers.
std::size_t section_count(const std::string& line, std::string_view tag) {
  if (line.size() <= tag.size() || line.compare(0, tag.size(), tag) != 0 ||
      line[tag.size()] != ' ') {
    throw std::runtime_error{std::string{"checkpoint: expected section '"} +
                             std::string{tag} + "', got '" + line + "'"};
  }
  std::size_t value = 0;
  const char* begin = line.data() + tag.size() + 1;
  const char* end = line.data() + line.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw std::runtime_error{std::string{"checkpoint: bad count in section '"} +
                             std::string{tag} + "'"};
  }
  return value;
}

std::vector<std::string_view> split_tabs(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const auto pos = line.find('\t', start);
    if (pos == std::string_view::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

std::size_t parse_size(std::string_view text, const char* what) {
  std::size_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::runtime_error{std::string{"checkpoint: bad "} + what};
  }
  return value;
}

void write_domain_day_map(std::ostream& out, std::string_view tag,
                          const std::unordered_map<std::string, std::size_t>& map) {
  out << tag << ' ' << map.size() << '\n';
  // Sorted for a canonical byte stream (the map itself is unordered).
  std::vector<const std::pair<const std::string, std::size_t>*> items;
  items.reserve(map.size());
  for (const auto& item : map) items.push_back(&item);
  std::sort(items.begin(), items.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* item : items) out << item->first << '\t' << item->second << '\n';
}

void read_domain_day_map(std::istream& in, std::string_view tag,
                         std::unordered_map<std::string, std::size_t>& map) {
  const auto count = section_count(checkpoint_line(in, tag.data()), tag);
  map.clear();
  map.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto line = checkpoint_line(in, tag.data());
    const auto fields = split_tabs(line);
    if (fields.size() != 2 || fields[0].empty()) {
      throw std::runtime_error{"checkpoint: bad domain-day row"};
    }
    map.emplace(std::string{fields[0]}, parse_size(fields[1], "day index"));
  }
}

}  // namespace

StreamingDetector::StreamingDetector(StreamingConfig config, const trace::GroundTruth& truth,
                                     const intel::VirusTotalSim& vt)
    : config_{std::move(config)},
      truth_{&truth},
      vt_{&vt},
      psl_{&dns::PublicSuffixList::builtin()} {}

bool StreamingDetector::label_available(const std::string& domain,
                                        std::size_t first_seen_day) const {
  if (config_.label_feed) return config_.label_feed(domain, first_seen_day, day_);
  return day_ >= first_seen_day + config_.label_delay_days && vt_->confirmed(domain);
}

void StreamingDetector::advance_day(const std::vector<dns::LogEntry>& entries) {
  obs::StageSpan day_span{"core.streaming.day", util::LogLevel::kDebug};
  for (const auto& entry : entries) {
    first_seen_.try_emplace(psl_->e2ld_or_self(entry.qname), day_);
  }
  window_.push_back(entries);
  while (window_.size() > config_.window_days) window_.pop_front();

  StreamingDayRecord record;
  record.day = day_;
  record.entries = entries.size();
  for (const auto& day_entries : window_) record.window_entries += day_entries.size();
  retrain_and_score(record);
  record_day_metrics(record);
  days_.push_back(std::move(record));
  ++day_;
}

void StreamingDetector::record_day_metrics(const StreamingDayRecord& record) const {
  static obs::Counter& alerts = obs::metrics().counter("core.streaming.alerts");
  static obs::Counter& retrains = obs::metrics().counter("core.streaming.retrains");
  static obs::Counter& skips = obs::metrics().counter("core.streaming.retrain_skips");
  static obs::Counter& scored = obs::metrics().counter("core.streaming.scored");
  alerts.add(record.alerts);
  scored.add(record.scored);
  if (record.retrained) {
    retrains.add(1);
  } else {
    skips.add(1);
  }
  // One snapshot row per simulated day, exported under "records" in the
  // metrics JSON so faultsim/report outputs can chart the run day by day.
  obs::metrics().append_record(
      "streaming.day", {{"day", static_cast<double>(record.day)},
                        {"entries", static_cast<double>(record.entries)},
                        {"window_entries", static_cast<double>(record.window_entries)},
                        {"kept_domains", static_cast<double>(record.kept_domains)},
                        {"labeled", static_cast<double>(record.labeled)},
                        {"scored", static_cast<double>(record.scored)},
                        {"alerts", static_cast<double>(record.alerts)},
                        {"retrained", record.retrained ? 1.0 : 0.0},
                        {"skipped", record.skip_reason.empty() ? 0.0 : 1.0}});
}

void StreamingDetector::retrain_and_score(StreamingDayRecord& record) {
  // Build this window's behavior model.
  GraphBuilderSink graphs;
  for (const auto& day_entries : window_) {
    for (const auto& entry : day_entries) graphs.on_dns(entry);
  }
  auto model = build_behavior_model(graphs.take_hdbg(), graphs.take_dibg(),
                                    graphs.take_dtbg(), config_.behavior);
  record.kept_domains = model.kept_domains.size();
  if (model.kept_domains.size() < config_.min_train_domains) {
    record.skip_reason = "too-few-domains";  // empty or thin window
    return;
  }

  // Each day's retrain draws its own base seed, three apart.
  embed::EmbedConfig base = config_.embedding;
  base.dimension = config_.embedding_dimension;
  base.seed = config_.seed + day_ * 3;
  const auto combined = embed_channels(model, base).combined;

  // Labels available today: benign whitelist immediately; malicious only
  // when the threat feed has published the domain (default feed: VT
  // confirmation after label_delay_days; fault sweeps may lag it further).
  intel::LabeledSet labels;
  std::vector<std::string> scorable;
  for (const auto& domain : model.kept_domains) {
    const auto seen = first_seen_.find(domain);
    if (truth_->is_malicious(domain)) {
      if (seen != first_seen_.end() && label_available(domain, seen->second)) {
        labels.domains.push_back(domain);
        labels.labels.push_back(1);
      } else {
        scorable.push_back(domain);  // not yet blacklisted: must be caught
      }
    } else if (truth_->is_known(domain)) {
      labels.domains.push_back(domain);
      labels.labels.push_back(0);
    } else {
      scorable.push_back(domain);
    }
  }
  record.labeled = labels.size();
  if (labels.malicious_count() < config_.min_malicious_labels) {
    record.skip_reason = "too-few-malicious-labels";  // feed lag / blackhole
    return;
  }
  if (labels.malicious_count() == labels.size()) {
    record.skip_reason = "no-benign-labels";
    return;
  }

  const ml::SvmModel svm = ml::train_svm(make_dataset(combined, labels), config_.svm);

  // Calibrate the alert threshold on benign training scores.
  std::vector<double> benign_scores;
  for (std::size_t k = 0; k < labels.size(); ++k) {
    if (labels.labels[k] != 0) continue;
    const auto vec = combined.vector_for(labels.domains[k]);
    std::vector<double> x(vec->begin(), vec->end());
    benign_scores.push_back(svm.decision_value(x));
  }
  if (benign_scores.empty()) {
    record.skip_reason = "no-benign-labels";
    return;
  }
  std::sort(benign_scores.begin(), benign_scores.end());
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(benign_scores.size()) * (1.0 - config_.alert_fpr));
  const double threshold =
      benign_scores[std::min(cut, benign_scores.size() - 1)] + 1e-9;

  // Score the not-yet-blacklisted domains and alert above the threshold.
  record.retrained = true;
  for (const auto& domain : scorable) {
    if (first_flagged_.contains(domain)) continue;
    const auto vec = combined.vector_for(domain);
    std::vector<double> x(vec->begin(), vec->end());
    const double score = svm.decision_value(x);
    ++record.scored;
    if (score > threshold) {
      first_flagged_.emplace(domain, day_);
      alerts_.push_back(DomainAlert{domain, day_, score});
      ++record.alerts;
    }
  }
}

void StreamingDetector::save_checkpoint(std::ostream& out) const {
  out << kCheckpointMagic << '\n';
  out << "day " << day_ << '\n';
  out << "window " << window_.size() << '\n';
  for (const auto& day_entries : window_) {
    out << "day_entries " << day_entries.size() << '\n';
    for (const auto& entry : day_entries) out << dns::format_log_entry(entry) << '\n';
  }
  write_domain_day_map(out, "first_seen", first_seen_);
  write_domain_day_map(out, "first_flagged", first_flagged_);
  out << "alerts " << alerts_.size() << '\n';
  for (const auto& alert : alerts_) {
    out << alert.domain << '\t' << alert.day << '\t' << util::double_to_hex(alert.score) << '\n';
  }
  out << "day_records " << days_.size() << '\n';
  for (const auto& record : days_) {
    out << record.day << '\t' << record.entries << '\t' << record.window_entries << '\t'
        << record.kept_domains << '\t' << record.labeled << '\t' << record.scored << '\t'
        << record.alerts << '\t' << (record.retrained ? 1 : 0) << '\t'
        << (record.skip_reason.empty() ? "-" : record.skip_reason) << '\n';
  }
  out << "end\n";
}

void StreamingDetector::load_checkpoint(std::istream& in) {
  if (checkpoint_line(in, "magic") != kCheckpointMagic) {
    throw std::runtime_error{"checkpoint: bad magic / unsupported version"};
  }
  day_ = section_count(checkpoint_line(in, "day"), "day");

  const auto window_days = section_count(checkpoint_line(in, "window"), "window");
  window_.clear();
  for (std::size_t w = 0; w < window_days; ++w) {
    const auto count = section_count(checkpoint_line(in, "day_entries"), "day_entries");
    std::vector<dns::LogEntry> entries;
    entries.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      const auto line = checkpoint_line(in, "log entry");
      auto entry = dns::parse_log_entry(line);
      if (!entry) throw std::runtime_error{"checkpoint: malformed log entry"};
      entries.push_back(*std::move(entry));
    }
    window_.push_back(std::move(entries));
  }

  read_domain_day_map(in, "first_seen", first_seen_);
  read_domain_day_map(in, "first_flagged", first_flagged_);

  const auto alert_count = section_count(checkpoint_line(in, "alerts"), "alerts");
  alerts_.clear();
  alerts_.reserve(alert_count);
  for (std::size_t k = 0; k < alert_count; ++k) {
    const auto line = checkpoint_line(in, "alert");
    const auto fields = split_tabs(line);
    if (fields.size() != 3 || fields[0].empty()) {
      throw std::runtime_error{"checkpoint: bad alert row"};
    }
    alerts_.push_back(DomainAlert{std::string{fields[0]},
                                  parse_size(fields[1], "alert day"),
                                  score_from_hex(fields[2])});
  }

  const auto record_count = section_count(checkpoint_line(in, "day_records"), "day_records");
  days_.clear();
  days_.reserve(record_count);
  for (std::size_t k = 0; k < record_count; ++k) {
    const auto line = checkpoint_line(in, "day record");
    const auto fields = split_tabs(line);
    if (fields.size() != 9) throw std::runtime_error{"checkpoint: bad day record"};
    StreamingDayRecord record;
    record.day = parse_size(fields[0], "record day");
    record.entries = parse_size(fields[1], "record entries");
    record.window_entries = parse_size(fields[2], "record window entries");
    record.kept_domains = parse_size(fields[3], "record kept domains");
    record.labeled = parse_size(fields[4], "record labeled");
    record.scored = parse_size(fields[5], "record scored");
    record.alerts = parse_size(fields[6], "record alerts");
    record.retrained = parse_size(fields[7], "record retrained") != 0;
    if (fields[8] != "-") record.skip_reason = std::string{fields[8]};
    days_.push_back(std::move(record));
  }

  if (checkpoint_line(in, "end") != "end") {
    throw std::runtime_error{"checkpoint: missing end marker"};
  }
}

void StreamingDetector::save_checkpoint_file(const std::string& path) const {
  std::ostringstream payload;
  save_checkpoint(payload);
  util::save_artifact(path, "streaming-checkpoint", payload.str());
}

void StreamingDetector::load_checkpoint_file(const std::string& path) {
  std::istringstream payload{util::load_artifact(path, "streaming-checkpoint")};
  try {
    load_checkpoint(payload);
  } catch (const std::runtime_error& e) {
    util::fsio::note_corrupt_detected();
    throw util::CorruptArtifact{path, e.what()};
  }
}

}  // namespace dnsembed::core
