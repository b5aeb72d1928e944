// Campus monitoring scenario: the full workflow a network operator would
// run — generate (or ingest) a week of DNS logs, demonstrate the DHCP join
// that keeps device identity stable across IP reassignment, persist the
// trace, model behavior, train the detector, and print a triage report of
// the highest-scoring domains with their ground-truth verdicts.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/behavior.hpp"
#include "core/detector.hpp"
#include "core/pipeline.hpp"
#include "dns/log_io.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dnsembed;

/// Sink that also writes the raw log to disk, as a collector daemon would.
class LogFileSink final : public trace::TraceSink {
 public:
  explicit LogFileSink(const std::string& path) : out_{path} {}

  void on_dns(const dns::LogEntry& entry) override {
    writer_.write(entry);
    ++count_;
  }

  std::size_t count() const noexcept { return count_; }

 private:
  std::ofstream out_;
  dns::LogWriter writer_{out_};
  std::size_t count_ = 0;
};

}  // namespace

int main() {
  using namespace dnsembed;
  core::PipelineConfig config;
  config.trace.hosts = 200;
  config.trace.days = 4;
  config.trace.benign_sites = 1000;
  config.trace.malware_families = 8;
  config.embedding_dimension = 24;
  config.embedding.line.total_samples = 2'000'000;
  config.svm.c = 1.0;
  config.svm.gamma = 0.5;

  // 1. Collect: write the raw joined log to disk AND build graphs on the
  //    fly (streaming, as the paper's collector does).
  const char* log_path = "campus_week.log";
  core::GraphBuilderSink graphs;
  LogFileSink log_file{log_path};
  trace::TeeSink tee{{&graphs, &log_file}};
  util::Stopwatch watch;
  const auto trace_result = trace::generate_trace(config.trace, tee);
  std::printf("collected %zu DNS events to %s (%.1fs)\n", log_file.count(), log_path,
              watch.seconds());

  // 2. DHCP join demo: map an IP observed at some time back to the device.
  //    (The generator's log already carries device ids; this shows the
  //    lookup an operator performs on raw IP-keyed logs.)
  const auto leases = trace_result.dhcp;
  const dns::Ipv4 probe_ip{10, 20, 0, 10};
  if (const auto device = leases.device_for(probe_ip, 3600)) {
    std::printf("DHCP join: %s at t=3600 was device %s\n", probe_ip.to_string().c_str(),
                device->c_str());
  }

  // 3. Re-read the persisted log (round-trip sanity, as a batch job would).
  {
    std::ifstream in{log_path};
    dns::LogReader reader{in};
    std::size_t parsed = 0;
    while (reader.next()) ++parsed;
    std::printf("re-parsed %zu events from disk\n", parsed);
  }

  // 4. Behavioral model + embeddings + labels.
  auto model = core::build_behavior_model(graphs.take_hdbg(), graphs.take_dibg(),
                                          graphs.take_dtbg(), config.behavior);
  embed::EmbedConfig ec = config.embedding;
  ec.dimension = config.embedding_dimension;
  ec.seed = 1;
  const auto combined = core::embed_channels(model, ec).combined;

  const intel::VirusTotalSim vt{trace_result.truth, config.virustotal};
  const auto labels = build_labeled_set(model.kept_domains, trace_result.truth, vt,
                                        config.labeling);

  // 5. Train the deployed detector and triage the most suspicious domains.
  const core::DomainDetector detector{combined, labels, config.svm};
  std::vector<std::pair<double, std::string>> scored;
  for (const auto& domain : model.kept_domains) {
    scored.emplace_back(detector.score(domain), domain);
  }
  std::sort(scored.rbegin(), scored.rend());

  std::printf("\ntop 15 most suspicious domains:\n");
  std::printf("%10s  %-30s %s\n", "score", "domain", "ground truth");
  int true_positives = 0;
  for (int k = 0; k < 15 && k < static_cast<int>(scored.size()); ++k) {
    const auto& [score, domain] = scored[static_cast<std::size_t>(k)];
    std::string verdict = "benign";
    if (const auto family = trace_result.truth.family_of(domain)) {
      verdict = trace_result.truth.families()[*family].name;
      ++true_positives;
    }
    std::printf("%+10.3f  %-30s %s\n", score, domain.c_str(), verdict.c_str());
  }
  std::printf("\n%d of the top 15 are confirmed malicious.\n", true_positives);
  std::remove(log_path);
  return 0;
}
