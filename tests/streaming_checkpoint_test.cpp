// Checkpoint/restore robustness for the streaming detector: an
// interrupted-and-resumed run must be bit-identical to an uninterrupted
// one, checkpoints must round-trip byte-stably, and thin/empty days or a
// black-holed label feed must degrade gracefully instead of crashing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>

#include "core/streaming.hpp"
#include "trace/generator.hpp"

namespace dnsembed::core {
namespace {

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

trace::TraceConfig small_config() {
  trace::TraceConfig config;
  config.seed = 13;
  config.hosts = 80;
  config.days = 4;
  config.benign_sites = 400;
  config.third_party_pool = 80;
  config.interests_per_host = 50;
  config.polling_apps = 8;
  config.malware_families = 6;
  config.min_victims = 5;
  config.max_victims = 15;
  return config;
}

StreamingConfig detector_config() {
  StreamingConfig config;
  config.window_days = 2;
  config.label_delay_days = 2;
  config.embedding.line.total_samples = 300'000;
  return config;
}

class CheckpointFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sink_ = new trace::CollectingSink;
    result_ = new trace::TraceResult{generate_trace(small_config(), *sink_)};
    by_day_ = new std::vector<std::vector<dns::LogEntry>>(small_config().days);
    for (const auto& entry : sink_->dns()) {
      auto day = static_cast<std::size_t>(entry.timestamp / 86400);
      if (day >= by_day_->size()) day = by_day_->size() - 1;
      (*by_day_)[day].push_back(entry);
    }
    vt_ = new intel::VirusTotalSim{result_->truth, intel::VirusTotalConfig{}};
  }
  static void TearDownTestSuite() {
    delete sink_;
    delete result_;
    delete by_day_;
    delete vt_;
    sink_ = nullptr;
    result_ = nullptr;
    by_day_ = nullptr;
    vt_ = nullptr;
  }

  static trace::CollectingSink* sink_;
  static trace::TraceResult* result_;
  static std::vector<std::vector<dns::LogEntry>>* by_day_;
  static intel::VirusTotalSim* vt_;
};

trace::CollectingSink* CheckpointFixture::sink_ = nullptr;
trace::TraceResult* CheckpointFixture::result_ = nullptr;
std::vector<std::vector<dns::LogEntry>>* CheckpointFixture::by_day_ = nullptr;
intel::VirusTotalSim* CheckpointFixture::vt_ = nullptr;

TEST_F(CheckpointFixture, ResumeFromCheckpointIsBitIdentical) {
  // Uninterrupted reference run over all days.
  StreamingDetector reference{detector_config(), result_->truth, *vt_};
  for (const auto& day : *by_day_) reference.advance_day(day);
  ASSERT_GT(reference.alerts().size(), 0u);

  // Interrupted run: two days, checkpoint, "crash", restore, resume.
  StreamingDetector first_half{detector_config(), result_->truth, *vt_};
  first_half.advance_day((*by_day_)[0]);
  first_half.advance_day((*by_day_)[1]);
  std::stringstream checkpoint;
  first_half.save_checkpoint(checkpoint);

  StreamingDetector resumed{detector_config(), result_->truth, *vt_};
  resumed.load_checkpoint(checkpoint);
  EXPECT_EQ(resumed.days_processed(), 2u);
  resumed.advance_day((*by_day_)[2]);
  resumed.advance_day((*by_day_)[3]);

  ASSERT_EQ(resumed.alerts().size(), reference.alerts().size());
  for (std::size_t i = 0; i < reference.alerts().size(); ++i) {
    const auto& a = reference.alerts()[i];
    const auto& b = resumed.alerts()[i];
    EXPECT_EQ(a.domain, b.domain);
    EXPECT_EQ(a.day, b.day);
    EXPECT_EQ(bits_of(a.score), bits_of(b.score)) << a.domain;
  }
  EXPECT_EQ(resumed.first_seen(), reference.first_seen());
  EXPECT_EQ(resumed.first_flagged(), reference.first_flagged());
  ASSERT_EQ(resumed.day_records().size(), reference.day_records().size());
  for (std::size_t i = 0; i < reference.day_records().size(); ++i) {
    EXPECT_EQ(resumed.day_records()[i].alerts, reference.day_records()[i].alerts) << "day " << i;
    EXPECT_EQ(resumed.day_records()[i].retrained, reference.day_records()[i].retrained);
  }
}

TEST_F(CheckpointFixture, CheckpointRoundTripIsByteStable) {
  StreamingDetector detector{detector_config(), result_->truth, *vt_};
  detector.advance_day((*by_day_)[0]);
  detector.advance_day((*by_day_)[1]);
  std::stringstream saved;
  detector.save_checkpoint(saved);

  StreamingDetector restored{detector_config(), result_->truth, *vt_};
  restored.load_checkpoint(saved);
  std::stringstream saved_again;
  restored.save_checkpoint(saved_again);
  EXPECT_EQ(saved.str(), saved_again.str());
}

TEST(StreamingDegradation, EmptyAndThinDaysAreRecordedNotFatal) {
  trace::GroundTruth truth;
  truth.add_benign("quiet.com");
  const intel::VirusTotalSim vt{truth, intel::VirusTotalConfig{}};
  StreamingDetector detector{StreamingConfig{}, truth, vt};

  detector.advance_day({});  // fully empty day

  std::vector<dns::LogEntry> thin;  // a trickle far below min_train_domains
  dns::LogEntry e;
  e.timestamp = 86400;
  e.host = "h1";
  e.qname = "www.quiet.com";
  e.addresses = {dns::Ipv4{198, 51, 100, 1}};
  thin.push_back(e);
  detector.advance_day(thin);

  EXPECT_EQ(detector.days_processed(), 2u);
  EXPECT_TRUE(detector.alerts().empty());
  ASSERT_EQ(detector.day_records().size(), 2u);
  for (const auto& record : detector.day_records()) {
    EXPECT_FALSE(record.retrained);
    EXPECT_FALSE(record.skip_reason.empty());
  }
  EXPECT_EQ(detector.day_records()[0].entries, 0u);
  EXPECT_EQ(detector.day_records()[1].entries, 1u);
}

TEST_F(CheckpointFixture, BlackholedLabelFeedSuppressesAlertsGracefully) {
  auto config = detector_config();
  config.label_feed = [](std::string_view, std::size_t, std::size_t) { return false; };
  StreamingDetector detector{config, result_->truth, *vt_};
  for (const auto& day : *by_day_) detector.advance_day(day);
  // Without labels there is nothing to train on: every day is skipped for
  // lack of malicious labels and no alert can fire — but nothing crashes.
  EXPECT_TRUE(detector.alerts().empty());
  ASSERT_EQ(detector.day_records().size(), by_day_->size());
  for (const auto& record : detector.day_records()) {
    EXPECT_FALSE(record.retrained);
  }
}

TEST(StreamingCheckpoint, MalformedCheckpointThrows) {
  trace::GroundTruth truth;
  truth.add_benign("x.com");
  const intel::VirusTotalSim vt{truth, intel::VirusTotalConfig{}};
  StreamingDetector detector{StreamingConfig{}, truth, vt};

  std::stringstream junk{"definitely not a checkpoint\n"};
  EXPECT_THROW(detector.load_checkpoint(junk), std::runtime_error);

  std::stringstream wrong_version{"dnsembed-streaming-checkpoint 999\nend\n"};
  EXPECT_THROW(detector.load_checkpoint(wrong_version), std::runtime_error);

  // A valid header cut off mid-body must also be rejected.
  std::stringstream cut{"dnsembed-streaming-checkpoint 1\nday 3\nwindow 2\nday_entries 5\n"};
  EXPECT_THROW(detector.load_checkpoint(cut), std::runtime_error);
}

}  // namespace
}  // namespace dnsembed::core
