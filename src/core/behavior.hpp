// Behavioral modeling (paper §4): consume the DNS event stream into the
// three bipartite graphs — host x domain (HDBG), IP x domain (DIBG),
// minute x domain (DTBG) — aggregate names to e2LDs, apply the pruning
// rules, and project onto the domain side to obtain the three Jaccard
// similarity graphs (Eq. 1-3).
//
// Convention: domains are always the RIGHT vertex set, so project_right()
// yields domain similarity for all three graphs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/log_record.hpp"
#include "dns/public_suffix.hpp"
#include "graph/bipartite.hpp"
#include "graph/projection.hpp"
#include "graph/stats.hpp"
#include "graph/weighted_graph.hpp"
#include "trace/sink.hpp"
#include "util/interner.hpp"

namespace dnsembed::core {

/// Streaming sink that accumulates the three bipartite graphs. Each event
/// adds its edges by vertex id: the e2LD is derived once per distinct raw
/// qname, and a minute bucket, an IPv4 address or an e2LD is named and
/// interned only the first time a graph sees it, in the order the by-name
/// build (`add_edge(host, e2ld)`, `add_edge("m<bucket>", e2ld)`, then
/// `add_edge(ip, e2ld)` per address) interns it — so every id, name and
/// adjacency list is that build's.
class GraphBuilderSink final : public trace::TraceSink {
 public:
  /// Time-bucket width for the DTBG (paper: one minute).
  explicit GraphBuilderSink(std::int64_t bucket_seconds = 60,
                            const dns::PublicSuffixList& psl = dns::PublicSuffixList::builtin());

  void on_dns(const dns::LogEntry& entry) override;

  /// Finalize and take the graphs (call once, after the stream ends).
  graph::BipartiteGraph take_hdbg();
  graph::BipartiteGraph take_dibg();
  graph::BipartiteGraph take_dtbg();

 private:
  /// A raw qname's e2LD as a right vertex of each graph. The DIBG id stays
  /// kNoVertex until an event of the qname has addresses: the DIBG interns
  /// an e2LD at its first event that has addresses.
  struct QnameIds {
    graph::VertexId hdbg;
    graph::VertexId dtbg;
    graph::VertexId dibg;
  };
  static constexpr graph::VertexId kNoVertex = ~graph::VertexId{0};

  std::int64_t bucket_seconds_;
  const dns::PublicSuffixList* psl_;
  graph::BipartiteGraph hdbg_;  // host x e2LD
  graph::BipartiteGraph dibg_;  // IP x e2LD
  graph::BipartiteGraph dtbg_;  // minute-bucket x e2LD
  std::unordered_map<std::string, QnameIds, util::StringViewHash, std::equal_to<>> qnames_;
  std::unordered_map<std::int64_t, graph::VertexId> minutes_;  // bucket -> DTBG left id
  std::unordered_map<std::uint32_t, graph::VertexId> ips_;     // IPv4 -> DIBG left id
};

struct BehaviorModelConfig {
  graph::DegreePruneOptions prune;          // paper's rules 1-2
  graph::ProjectionOptions query_projection;
  graph::ProjectionOptions ip_projection;
  graph::ProjectionOptions temporal_projection;
};

/// The pruned graphs plus the three domain similarity graphs. All four
/// domain-indexed structures share the same vertex set (kept_domains), but
/// vertex ids are per-graph.
struct BehaviorModel {
  std::vector<std::string> kept_domains;
  graph::BipartiteGraph hdbg;
  graph::BipartiteGraph dibg;
  graph::BipartiteGraph dtbg;
  graph::WeightedGraph query_similarity;
  graph::WeightedGraph ip_similarity;
  graph::WeightedGraph temporal_similarity;
};

/// One similarity channel (paper §4): a bipartite graph over domains, its
/// Jaccard projection and its embedding. The table below is the single
/// list of channels; run_pipeline, build_behavior_model and the resumable
/// runner's stage tasks all iterate it.
struct Channel {
  const char* name;        // "query" | "ip" | "temporal"
  const char* bipartite;   // trace-stage artifact of the bipartite graph
  const char* similarity;  // behavior-stage artifact of the projection (CSR)
  const char* embedding;   // embed-stage artifact of the LINE embedding
  /// The channel's LINE seed is PipelineConfig::seed + seed_offset.
  std::uint64_t seed_offset;
  graph::ProjectionOptions BehaviorModelConfig::*projection;
  graph::BipartiteGraph BehaviorModel::*pruned;
  graph::WeightedGraph BehaviorModel::*projected;
};

inline constexpr Channel kChannels[] = {
    {"query", "hdbg.bg", "query_sim.csr", "query.emb", 0, &BehaviorModelConfig::query_projection,
     &BehaviorModel::hdbg, &BehaviorModel::query_similarity},
    {"ip", "dibg.bg", "ip_sim.csr", "ip.emb", 1, &BehaviorModelConfig::ip_projection,
     &BehaviorModel::dibg, &BehaviorModel::ip_similarity},
    {"temporal", "dtbg.bg", "temporal_sim.csr", "temporal.emb", 2,
     &BehaviorModelConfig::temporal_projection, &BehaviorModel::dtbg,
     &BehaviorModel::temporal_similarity},
};

/// Pruning rules 1-2, which are defined on host behavior: the domains of
/// the (finalized) HDBG that survive them, in HDBG vertex order.
std::vector<std::string> kept_domains(const graph::BipartiteGraph& hdbg,
                                      const graph::DegreePruneOptions& prune);

/// `g` restricted to the domains in `kept` (every graph of the model is
/// pruned by the HDBG's rules this way). The result is finalized.
graph::BipartiteGraph restrict_domains(const graph::BipartiteGraph& g,
                                       const std::vector<std::string>& kept);

/// One-mode projection of the channel's pruned bipartite graph onto its
/// domains, traced as span "behavior.project.<channel>".
graph::WeightedGraph project_channel(const Channel& channel, const graph::BipartiteGraph& pruned,
                                     const graph::ProjectionOptions& options);

/// The same projection in the CSR arena form (graph::project_right_csr),
/// the form `run` saves, traced under the same span.
util::CsrGraph project_channel_csr(const Channel& channel, const graph::BipartiteGraph& pruned,
                                   const graph::ProjectionOptions& options);

/// Prune (kept_domains, applied to every graph) and project. Consumes the
/// graphs.
BehaviorModel build_behavior_model(graph::BipartiteGraph hdbg, graph::BipartiteGraph dibg,
                                   graph::BipartiteGraph dtbg,
                                   const BehaviorModelConfig& config);

}  // namespace dnsembed::core
