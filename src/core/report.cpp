#include "core/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "core/scenario.hpp"

namespace dnsembed::core {

namespace {

/// "Per-scenario detection" section: the combined channel's out-of-fold
/// scores sliced by campaign archetype, plus seed-expansion reach from the
/// cluster structure. Emitted only when the scores are row-aligned with the
/// labeled set and the truth knows at least one family (simulation runs).
void write_scenario_section(std::ostream& out, const PipelineResult& result,
                            const ChannelEvaluations& evals, const ClusteringResult& clusters,
                            const ReportOptions& options) {
  const auto& scores = evals.combined.scores.scores;
  if (scores.size() != result.labels.size() || result.trace.truth.families().empty()) return;
  auto evaluation =
      evaluate_scenarios(result.labels, scores, result.trace.truth, options.score_threshold);
  if (evaluation.scenarios.empty()) return;
  annotate_seed_expansion(evaluation, clusters, result.trace.truth);

  out << "## Per-scenario detection\n\n";
  out << "| scenario | labeled | recall | precision | AUC | seed-expansion reach |\n";
  out << "|---|---|---|---|---|---|\n";
  char row[256];
  for (const auto& metrics : evaluation.scenarios) {
    char auc_text[32];
    if (metrics.auc_valid) {
      std::snprintf(auc_text, sizeof(auc_text), "%.4f", metrics.auc);
    } else {
      std::snprintf(auc_text, sizeof(auc_text), "n/a");
    }
    char reach_text[48];
    if (metrics.expansion_candidates > 0) {
      std::snprintf(reach_text, sizeof(reach_text), "%zu/%zu", metrics.expansion_reached,
                    metrics.expansion_candidates);
    } else {
      std::snprintf(reach_text, sizeof(reach_text), "n/a");
    }
    std::snprintf(row, sizeof(row), "| %s | %zu | %.4f | %.4f | %s | %s |\n",
                  metrics.scenario.c_str(), metrics.labeled, metrics.recall, metrics.precision,
                  auc_text, reach_text);
    out << row;
  }
  out << "\nbenign labeled: " << evaluation.benign_labeled << ", benign false positives at threshold: "
      << evaluation.benign_false_positives << "\n\n";
}

}  // namespace

SimilarityEdgeCounts similarity_edge_counts(const BehaviorModel& model) {
  SimilarityEdgeCounts counts{};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = (model.*kChannels[i].projected).edge_count();
  }
  return counts;
}

void write_detection_report(std::ostream& out, const PipelineResult& result,
                            const ChannelEvaluations& evals,
                            const ClusteringResult& clusters, const ReportOptions& options) {
  write_detection_report(out, result, similarity_edge_counts(result.model), evals, clusters,
                         options);
}

void write_detection_report(std::ostream& out, const PipelineResult& result,
                            const SimilarityEdgeCounts& similarity_edges,
                            const ChannelEvaluations& evals,
                            const ClusteringResult& clusters, const ReportOptions& options) {
  out << "# dnsembed detection report\n\n";

  out << "## Traffic and behavioral model\n\n";
  out << "| metric | value |\n|---|---|\n";
  out << "| DNS events | " << result.trace.dns_events << " |\n";
  out << "| NXDOMAIN events | " << result.trace.nxdomain_events << " |\n";
  out << "| netflow records | " << result.flows.size() << " |\n";
  out << "| domains after pruning | " << result.model.kept_domains.size() << " |\n";
  out << "| query-similarity edges | " << similarity_edges[0] << " |\n";
  out << "| IP-similarity edges | " << similarity_edges[1] << " |\n";
  out << "| temporal-similarity edges | " << similarity_edges[2] << " |\n";
  out << "| labeled domains | " << result.labels.size() << " ("
      << result.labels.malicious_count() << " malicious) |\n\n";

  out << "## Detection quality (cross-validated AUC)\n\n";
  out << "| feature channel | AUC |\n|---|---|\n";
  out << "| query behavioral | " << evals.query.auc << " |\n";
  out << "| IP resolving | " << evals.ip.auc << " |\n";
  out << "| temporal | " << evals.temporal.auc << " |\n";
  out << "| **combined** | **" << evals.combined.auc << "** |\n\n";
  const auto& cm = evals.combined.confusion_at_zero;
  out << "At decision threshold " << options.score_threshold << ": accuracy "
      << cm.accuracy() << ", precision " << cm.precision() << ", recall " << cm.recall()
      << ", FPR " << cm.fpr() << ".\n\n";

  write_scenario_section(out, result, evals, clusters, options);

  out << "## Most suspicious clusters\n\n";
  std::size_t shown = 0;
  for (const auto& cluster : clusters.clusters) {
    if (cluster.domains.size() < 3) continue;
    if (shown >= options.top_clusters) break;
    out << "### Cluster " << cluster.id << " — " << cluster.domains.size() << " domains";
    if (!cluster.dominant_family.empty()) {
      out << " (ground truth: " << 100.0 * cluster.malicious_fraction() << "% malicious, "
          << cluster.dominant_family << ")";
    }
    out << "\n\n";
    out << "sample: ";
    const std::size_t n = std::min(options.sample_domains, cluster.domains.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0) out << ", ";
      out << "`" << cluster.domains[i] << "`";
    }
    out << "\n\n";
    const auto pattern = traffic_pattern_for(cluster, result.trace.truth, result.flows);
    if (pattern.flows > 0) {
      out << "traffic: " << pattern.flows << " flows to " << pattern.server_ips.size()
          << " server IP(s) from " << pattern.distinct_hosts << " campus host(s), ports {";
      for (std::size_t i = 0; i < pattern.ports.size(); ++i) {
        if (i != 0) out << ", ";
        out << pattern.ports[i];
      }
      out << "}\n\n";
    }
    ++shown;
  }
  out << "---\ngenerated by dnsembed\n";
}

void write_worker_resources(std::ostream& out, const SupervisionStats& stats) {
  if (stats.resources.empty()) return;
  out << "Worker resources\n\n";
  out << "| task | attempts | wall s | cpu user s | cpu sys s | max RSS MB |\n";
  out << "|---|---|---|---|---|---|\n";
  char row[256];
  for (const auto& res : stats.resources) {
    std::snprintf(row, sizeof(row), "| %s | %zu | %.2f | %.2f | %.2f | %.1f |\n",
                  res.task.c_str(), res.attempts, res.wall_seconds, res.cpu_user_seconds,
                  res.cpu_system_seconds, static_cast<double>(res.max_rss_kb) / 1024.0);
    out << row;
  }
}

}  // namespace dnsembed::core
