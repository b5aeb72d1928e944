// Multi-campus campaign mining (the paper's future-work section): run the
// full pipeline independently on three campuses hit by the same campaigns,
// exchange compact cluster reports, and correlate them into cross-network
// campaigns — without sharing raw logs or host identities.
#include <cstdio>

#include "core/clustering.hpp"
#include "core/detector.hpp"
#include "core/federation.hpp"
#include "core/pipeline.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace dnsembed;

  constexpr std::size_t kCampuses = 3;
  std::vector<core::CampusReport> reports;
  std::vector<core::PipelineResult> results;
  util::Stopwatch watch;

  for (std::size_t campus = 0; campus < kCampuses; ++campus) {
    core::PipelineConfig config;
    config.seed = 100 + campus;
    config.trace.seed = 100 + campus;       // different population per campus
    config.trace.campaign_seed = 0xCA3B;    // same attackers everywhere
    config.trace.hosts = 120;
    config.trace.days = 3;
    config.trace.benign_sites = 600;
    config.trace.malware_families = 6;
    config.embedding_dimension = 24;
    config.embedding.line.total_samples = 1'200'000;
    config.svm.c = 1.0;
    config.svm.gamma = 0.5;
    config.xmeans.k_min = 8;
    config.xmeans.k_max = 48;

    auto result = core::run_pipeline(config);
    const auto clustering = core::cluster_domains(result.combined_embedding,
                                                  result.model.kept_domains,
                                                  result.trace.truth, config.xmeans);

    // Local verdicts from the locally trained detector (no ground truth
    // crosses the federation boundary).
    const core::DomainDetector detector{result.combined_embedding, result.labels, config.svm};
    auto report = core::make_campus_report(
        "campus-" + std::to_string(campus), clustering, result.model.kept_domains,
        result.model.dibg,
        [&detector](const std::string& d) { return detector.is_malicious(d); },
        /*min_suspicious_fraction=*/0.6);
    std::printf("campus-%zu: %zu kept domains, %zu clusters, %zu shared as suspicious\n",
                campus, result.model.kept_domains.size(), clustering.k,
                report.clusters.size());
    reports.push_back(std::move(report));
    results.push_back(std::move(result));
  }

  const auto campaigns = core::correlate_campuses(reports);
  std::printf("\ncorrelated %zu cross-campus campaigns in %.1fs total\n", campaigns.size(),
              watch.seconds());

  std::size_t shown = 0;
  for (const auto& campaign : campaigns) {
    std::printf("\ncampaign seen from %zu campuses: %zu domains "
                "(%zu observed at multiple campuses), %zu shared server IPs\n",
                campaign.campuses.size(), campaign.domains.size(),
                campaign.shared_domains.size(), campaign.shared_ips.size());
    std::printf("  sample domains:");
    for (std::size_t i = 0; i < std::min<std::size_t>(4, campaign.domains.size()); ++i) {
      std::printf(" %s", campaign.domains[i].c_str());
    }
    // Validate against ground truth (available here because we simulated).
    std::size_t truly_malicious = 0;
    for (const auto& d : campaign.domains) {
      if (results.front().trace.truth.is_malicious(d)) ++truly_malicious;
    }
    std::printf("\n  ground truth: %zu/%zu campaign domains are malicious\n", truly_malicious,
                campaign.domains.size());
    if (++shown >= 3) break;
  }
  return campaigns.empty() ? 1 : 0;
}
