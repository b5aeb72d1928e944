// Telemetry sidecars: the cross-process half of the obs subsystem. The
// metrics registry and span recorder are process-wide, so everything a
// supervised worker records would die with the child; instead each worker
// encodes its full registry snapshot + span buffer as a checksummed
// "telemetry-sidecar" artifact container and writes it down its pipe to
// the supervisor (core/supervisor.hpp), which decodes the sidecar of every
// successful attempt from memory and folds it back into its own
// registry/recorder. The merged view is what --metrics-out / --trace-out
// export.
//
// Merge semantics (see DESIGN.md §14):
//  - counters: summed by name (Counter::add_raw, so deterministic pipeline
//    counters match a single-process run byte-for-byte);
//  - histograms: raw bucket counts + exact integer micro-unit sums summed
//    by name (Histogram::merge_counts) — no double rounding;
//  - records: returned to the caller, which appends them in (task, seq)
//    order after the batch completes (completion order is nondeterministic);
//  - spans: returned for the caller to rebase onto its own epoch and attach
//    as a per-task ProcessLane (one pid per worker task in the trace);
//  - gauges: point-in-time and process-local — never serialized.
//
// The payload is a line-oriented text table (names are dotted identifiers,
// never containing whitespace); the container layer supplies versioning and
// corruption detection, so a truncated or damaged sidecar fails as a whole,
// and parse errors throw util::CorruptArtifact so a damaged payload is
// indistinguishable from a damaged container: the supervisor warns, drops
// that worker's telemetry, and continues.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace dnsembed::obs {

inline constexpr const char* kTelemetrySidecarKind = "telemetry-sidecar";

/// Parsed sidecar contents (one worker attempt's telemetry).
struct TelemetrySidecar {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  struct HistogramData {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1
    std::uint64_t sum_micros = 0;
  };
  std::vector<HistogramData> histograms;
  std::vector<MetricRecord> records;
  std::vector<SpanEvent> spans;
};

/// Serialize the calling process's current registry snapshot and span
/// buffer into a sidecar payload. Reading the span buffer is only safe once
/// the recording threads are quiescent. Zero-valued counters and empty
/// histograms are skipped.
std::string telemetry_sidecar_payload();

/// The current telemetry as sidecar container bytes: the payload of
/// telemetry_sidecar_payload() in a checksummed "telemetry-sidecar"
/// artifact container (util::make_artifact).
std::string encode_telemetry_sidecar();

/// Parse a sidecar payload; throws util::CorruptArtifact (tagged with
/// `path`) on any malformed content.
TelemetrySidecar parse_telemetry_sidecar(const std::string& payload,
                                         const std::string& path);

/// Validate + parse sidecar container bytes. Throws util::CorruptArtifact
/// (tagged with `source`) on damage, truncation or a wrong kind.
TelemetrySidecar decode_telemetry_sidecar(std::string_view bytes, const std::string& source);

/// Fold a worker's counters and histograms into this process's registry
/// (ungated adds). Records and spans are left to the caller: records need
/// deterministic (task, seq) append order across workers, and spans need an
/// epoch rebase before becoming a ProcessLane.
void merge_sidecar_metrics(const TelemetrySidecar& sidecar);

}  // namespace dnsembed::obs
