#include "obs/sidecar.hpp"

#include <sstream>

#include "util/artifact.hpp"
#include "util/log.hpp"

namespace dnsembed::obs {

namespace {

// Defensive ceilings for the parser: a sidecar from this codebase has a
// dozen bounds per histogram and a handful of fields per record, so any
// count beyond these is damage, not data — reject before allocating.
constexpr std::size_t kMaxBounds = 4096;
constexpr std::size_t kMaxFields = 4096;

[[noreturn]] void corrupt(const std::string& path, const std::string& reason) {
  throw util::CorruptArtifact{path, "telemetry sidecar: " + reason};
}

}  // namespace

std::string telemetry_sidecar_payload() {
  std::ostringstream out;
  out.precision(17);  // doubles round-trip exactly through the parser
  out << "telemetry 1\n";
  const auto snap = metrics().snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (value != 0) out << "counter " << name << ' ' << value << '\n';
  }
  for (const auto& h : snap.histograms) {
    if (h.count == 0) continue;
    out << "histogram " << h.name << ' ' << h.bounds.size();
    for (const double bound : h.bounds) out << ' ' << bound;
    out << ' ' << h.buckets.size();
    for (const std::uint64_t bucket : h.buckets) out << ' ' << bucket;
    out << ' ' << h.sum_micros << '\n';
  }
  for (const auto& record : snap.records) {
    out << "record " << record.name << ' ' << record.fields.size();
    for (const auto& [key, value] : record.fields) out << ' ' << key << ' ' << value;
    out << '\n';
  }
  for (const auto& event : SpanRecorder::instance().sorted_events()) {
    out << "span " << event.name << ' ' << event.begin_ns << ' ' << event.end_ns << ' '
        << event.tid << ' ' << event.seq << '\n';
  }
  return out.str();
}

std::string encode_telemetry_sidecar() {
  return util::make_artifact(kTelemetrySidecarKind, telemetry_sidecar_payload());
}

TelemetrySidecar parse_telemetry_sidecar(const std::string& payload,
                                         const std::string& path) {
  std::istringstream in{payload};
  std::string verb;
  int version = 0;
  if (!(in >> verb >> version) || verb != "telemetry" || version != 1) {
    corrupt(path, "bad header");
  }
  TelemetrySidecar sidecar;
  while (in >> verb) {
    if (verb == "counter") {
      std::string name;
      std::uint64_t value = 0;
      if (!(in >> name >> value)) corrupt(path, "bad counter row");
      sidecar.counters.emplace_back(std::move(name), value);
    } else if (verb == "histogram") {
      TelemetrySidecar::HistogramData h;
      std::size_t n_bounds = 0;
      if (!(in >> h.name >> n_bounds) || n_bounds > kMaxBounds) {
        corrupt(path, "bad histogram bounds count");
      }
      h.bounds.resize(n_bounds);
      for (auto& bound : h.bounds) {
        if (!(in >> bound)) corrupt(path, "bad histogram bound");
      }
      std::size_t n_buckets = 0;
      if (!(in >> n_buckets) || n_buckets != n_bounds + 1) {
        corrupt(path, "bad histogram bucket count");
      }
      h.buckets.resize(n_buckets);
      for (auto& bucket : h.buckets) {
        if (!(in >> bucket)) corrupt(path, "bad histogram bucket");
      }
      if (!(in >> h.sum_micros)) corrupt(path, "bad histogram sum");
      sidecar.histograms.push_back(std::move(h));
    } else if (verb == "record") {
      MetricRecord record;
      std::size_t n_fields = 0;
      if (!(in >> record.name >> n_fields) || n_fields > kMaxFields) {
        corrupt(path, "bad record field count");
      }
      record.fields.resize(n_fields);
      for (auto& [key, value] : record.fields) {
        if (!(in >> key >> value)) corrupt(path, "bad record field");
      }
      sidecar.records.push_back(std::move(record));
    } else if (verb == "span") {
      SpanEvent event;
      if (!(in >> event.name >> event.begin_ns >> event.end_ns >> event.tid >> event.seq)) {
        corrupt(path, "bad span row");
      }
      sidecar.spans.push_back(std::move(event));
    } else {
      corrupt(path, "unknown row '" + verb + "'");
    }
  }
  return sidecar;
}

TelemetrySidecar decode_telemetry_sidecar(std::string_view bytes, const std::string& source) {
  return parse_telemetry_sidecar(
      util::validate_artifact_bytes(bytes, kTelemetrySidecarKind, source), source);
}

void merge_sidecar_metrics(const TelemetrySidecar& sidecar) {
  auto& registry = metrics();
  for (const auto& [name, value] : sidecar.counters) {
    if (value != 0) registry.counter(name).add_raw(value);
  }
  for (const auto& h : sidecar.histograms) {
    if (!registry.histogram(h.name, h.bounds).merge_counts(h.buckets, h.sum_micros)) {
      util::log_warn() << "telemetry merge: histogram '" << h.name
                       << "' bucket layout mismatch; dropped";
    }
  }
}

}  // namespace dnsembed::obs
