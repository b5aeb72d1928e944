// Telemetry sidecars: payload round-trip through the line-oriented format,
// merge-into-registry summation (counters, exact histogram sums, the fold
// of republished fsio/log counters), and typed rejection of malformed
// payloads — the cross-process half of the obs subsystem.
#include "obs/sidecar.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/artifact.hpp"

namespace obs = dnsembed::obs;
namespace util = dnsembed::util;

namespace {

class ObsSidecarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::metrics().reset_values();
    obs::SpanRecorder::instance().set_enabled(true);
    obs::SpanRecorder::instance().clear();
  }
  void TearDown() override {
    obs::set_metrics_enabled(false);
    obs::metrics().reset_values();
    obs::SpanRecorder::instance().set_enabled(false);
    obs::SpanRecorder::instance().clear();
  }
};

std::uint64_t counter_value(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [counter, value] : snapshot.counters) {
    if (counter == name) return value;
  }
  return 0;
}

TEST_F(ObsSidecarTest, PayloadRoundTripsCountersHistogramsRecordsSpans) {
  obs::metrics().counter("sidecar.test.counter").add(41);
  obs::metrics().counter("sidecar.test.counter").add(1);
  auto& hist = obs::metrics().latency_histogram("sidecar.test.seconds");
  hist.observe(0.002);
  hist.observe(0.5);
  obs::metrics().append_record("sidecar.test.day", {{"day", 1.0}, {"alerts", 3.0}});
  { obs::Span span{"sidecar.test.span"}; }

  const auto payload = obs::telemetry_sidecar_payload();
  const auto sidecar = obs::parse_telemetry_sidecar(payload, "test");

  std::uint64_t counter = 0;
  for (const auto& [name, value] : sidecar.counters) {
    if (name == "sidecar.test.counter") counter = value;
  }
  EXPECT_EQ(counter, 42u);

  bool found_hist = false;
  for (const auto& h : sidecar.histograms) {
    if (h.name != "sidecar.test.seconds") continue;
    found_hist = true;
    EXPECT_EQ(h.bounds, std::vector<double>(hist.bounds().begin(), hist.bounds().end()));
    EXPECT_EQ(h.buckets, hist.bucket_counts());
    EXPECT_EQ(h.sum_micros, hist.sum_micros_total());
  }
  EXPECT_TRUE(found_hist);

  bool found_record = false;
  for (const auto& record : sidecar.records) {
    if (record.name != "sidecar.test.day") continue;
    found_record = true;
    ASSERT_EQ(record.fields.size(), 2u);
    EXPECT_EQ(record.fields[0].first, "day");
    EXPECT_EQ(record.fields[0].second, 1.0);
    EXPECT_EQ(record.fields[1].first, "alerts");
    EXPECT_EQ(record.fields[1].second, 3.0);
  }
  EXPECT_TRUE(found_record);

  bool found_span = false;
  for (const auto& span : sidecar.spans) {
    if (span.name != "sidecar.test.span") continue;
    found_span = true;
    EXPECT_LE(span.begin_ns, span.end_ns);
  }
  EXPECT_TRUE(found_span);
}

TEST_F(ObsSidecarTest, MergeSumsCountersAndExactHistogramMicros) {
  obs::metrics().counter("sidecar.merge.counter").add(10);
  auto& hist = obs::metrics().latency_histogram("sidecar.merge.seconds");
  hist.observe(0.004);

  obs::TelemetrySidecar sidecar;
  sidecar.counters.emplace_back("sidecar.merge.counter", 32);
  obs::TelemetrySidecar::HistogramData h;
  h.name = "sidecar.merge.seconds";
  h.bounds.assign(hist.bounds().begin(), hist.bounds().end());
  h.buckets.assign(h.bounds.size() + 1, 0);
  h.buckets[0] = 5;
  h.sum_micros = 1'234;
  sidecar.histograms.push_back(h);

  const auto count_before = hist.count();
  const auto micros_before = hist.sum_micros_total();
  obs::merge_sidecar_metrics(sidecar);
  obs::merge_sidecar_metrics(sidecar);

  EXPECT_EQ(obs::metrics().counter("sidecar.merge.counter").total(), 10u + 2 * 32u);
  EXPECT_EQ(hist.count(), count_before + 10);
  EXPECT_EQ(hist.sum_micros_total(), micros_before + 2 * 1'234);
}

TEST_F(ObsSidecarTest, MergedRepublishedCountersFoldIntoOneSnapshotEntry) {
  // io.retries / log.suppressed are republished into every snapshot from
  // process-local stats; a merged worker total with the same name must fold
  // into that entry, not produce a duplicate JSON key.
  obs::TelemetrySidecar sidecar;
  sidecar.counters.emplace_back("io.retries", 7);
  sidecar.counters.emplace_back("log.suppressed", 3);
  obs::merge_sidecar_metrics(sidecar);

  const auto snapshot = obs::metrics().snapshot();
  std::size_t retries_entries = 0;
  std::size_t suppressed_entries = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "io.retries") ++retries_entries;
    if (name == "log.suppressed") ++suppressed_entries;
  }
  EXPECT_EQ(retries_entries, 1u);
  EXPECT_EQ(suppressed_entries, 1u);
  EXPECT_GE(counter_value(snapshot, "io.retries"), 7u);
  EXPECT_GE(counter_value(snapshot, "log.suppressed"), 3u);
}

TEST_F(ObsSidecarTest, MismatchedHistogramLayoutIsDroppedNotMerged) {
  auto& hist = obs::metrics().latency_histogram("sidecar.layout.seconds");
  hist.observe(0.004);
  const auto count_before = hist.count();

  obs::TelemetrySidecar sidecar;
  obs::TelemetrySidecar::HistogramData h;
  h.name = "sidecar.layout.seconds";
  h.bounds = {0.5, 1.0};  // not the registered latency bounds
  h.buckets = {1, 1, 1};
  h.sum_micros = 99;
  sidecar.histograms.push_back(h);
  obs::merge_sidecar_metrics(sidecar);  // warns and drops, must not throw

  EXPECT_EQ(hist.count(), count_before);
}

TEST_F(ObsSidecarTest, MalformedPayloadsThrowCorruptArtifact) {
  const auto expect_corrupt = [](const std::string& payload) {
    EXPECT_THROW((void)obs::parse_telemetry_sidecar(payload, "test"),
                 util::CorruptArtifact)
        << payload;
  };
  expect_corrupt("");                                   // missing header
  expect_corrupt("telemetry 2\n");                      // unknown version
  expect_corrupt("telemetry 1\nbogus x 1\n");           // unknown verb
  expect_corrupt("telemetry 1\ncounter io.retries\n");  // truncated line
  expect_corrupt("telemetry 1\nhistogram h 1 0.5 1 7\n");  // bucket count != bounds+1
  expect_corrupt("telemetry 1\nhistogram h 999999 0.5\n");  // absurd bound count
  expect_corrupt("telemetry 1\nrecord r 999999 k 1\n");     // absurd field count
  expect_corrupt("telemetry 1\nspan s 1\n");                // truncated span
}

TEST_F(ObsSidecarTest, SidecarArtifactFileRoundTripsAndRejectsWrongKind) {
  // The container bytes a worker writes down its pipe decode to what it
  // recorded.
  obs::metrics().counter("sidecar.file.counter").add(5);
  const auto sidecar = obs::decode_telemetry_sidecar(obs::encode_telemetry_sidecar(), "test");
  std::uint64_t value = 0;
  for (const auto& [name, v] : sidecar.counters) {
    if (name == "sidecar.file.counter") value = v;
  }
  EXPECT_EQ(value, 5u);

  // A valid container of a different kind must be rejected as corrupt.
  EXPECT_THROW(
      (void)obs::decode_telemetry_sidecar(util::make_artifact("label-csv", "domain,label\n"),
                                          "test"),
      util::CorruptArtifact);
}

}  // namespace
