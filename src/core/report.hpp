// Operator-facing markdown report: summarizes a detection run — traffic
// volume, graph sizes, cross-validated quality per feature channel, the
// most suspicious clusters with sample domains, and their netflow
// patterns. Rendered by the CLI `report` subcommand and usable as a
// library call.
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <iterator>

#include "core/clustering.hpp"
#include "core/pipeline.hpp"
#include "core/supervisor.hpp"

namespace dnsembed::core {

struct ReportOptions {
  std::size_t top_clusters = 5;
  std::size_t sample_domains = 6;
  /// Domains with detector scores above this count as "flagged".
  double score_threshold = 0.0;
};

/// Edge counts of the similarity graphs, in kChannels order: all the
/// report reads of them.
using SimilarityEdgeCounts = std::array<std::size_t, std::size(kChannels)>;

SimilarityEdgeCounts similarity_edge_counts(const BehaviorModel& model);

/// Write the report as markdown. `evals` and `clusters` may be partial
/// results of the same pipeline run; ground-truth columns are included
/// only when the trace carries a truth registry (simulation runs).
/// `similarity_edges` stands in for result.model's similarity graphs, so a
/// caller holding them as arenas (the resumable runner) need not convert
/// them.
void write_detection_report(std::ostream& out, const PipelineResult& result,
                            const SimilarityEdgeCounts& similarity_edges,
                            const ChannelEvaluations& evals,
                            const ClusteringResult& clusters,
                            const ReportOptions& options = {});

/// The same, with the edge counts of result.model.
void write_detection_report(std::ostream& out, const PipelineResult& result,
                            const ChannelEvaluations& evals,
                            const ClusteringResult& clusters,
                            const ReportOptions& options = {});

/// Markdown "Worker resources" table from the supervisor's per-task wait4
/// accounting (attempts, wall, cpu user/sys, max RSS). Rendered to the
/// CLI's stdout and mirrored by the --status-out file — deliberately NOT
/// part of report.md, which must stay byte-identical between supervised
/// and single-process runs. No-op when no task ran.
void write_worker_resources(std::ostream& out, const SupervisionStats& stats);

}  // namespace dnsembed::core
