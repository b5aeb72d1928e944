#include "core/behavior.hpp"

#include <string_view>
#include <unordered_set>

#include "obs/span.hpp"

namespace dnsembed::core {

GraphBuilderSink::GraphBuilderSink(std::int64_t bucket_seconds, const dns::PublicSuffixList& psl)
    : bucket_seconds_{bucket_seconds}, psl_{&psl} {
  if (bucket_seconds <= 0) {
    throw std::invalid_argument{"GraphBuilderSink: bucket_seconds must be positive"};
  }
}

void GraphBuilderSink::on_dns(const dns::LogEntry& entry) {
  if (qname_ids_ == nullptr || entry.qname != qname_) {
    auto qname = qnames_.find(entry.qname);
    if (qname == qnames_.end()) {
      const std::string e2ld = psl_->e2ld_or_self(entry.qname);
      qname = qnames_
                  .emplace(entry.qname,
                           QnameIds{hdbg_.add_right(e2ld), dtbg_.add_right(e2ld), kNoVertex, {}})
                  .first;
    }
    qname_ = entry.qname;
    qname_ids_ = &qname->second;
  }
  QnameIds& ids = *qname_ids_;
  if (host_id_ == kNoVertex || entry.host != host_) {
    host_ = entry.host;
    host_id_ = hdbg_.add_left(entry.host);
  }
  hdbg_.add_edge(host_id_, ids.hdbg);

  const std::int64_t bucket = entry.timestamp / bucket_seconds_;
  auto [minute, new_minute] = minutes_.try_emplace(bucket);
  if (new_minute) minute->second = dtbg_.add_left("m" + std::to_string(bucket));
  dtbg_.add_edge(minute->second, ids.dtbg);

  if (entry.addresses.empty() || entry.addresses == ids.addresses) return;
  if (ids.dibg == kNoVertex) ids.dibg = dibg_.add_right(hdbg_.right_names().name(ids.hdbg));
  for (const auto& address : entry.addresses) {
    auto [ip, new_ip] = ips_.try_emplace(address.value());
    if (new_ip) ip->second = dibg_.add_left(address.to_string());
    dibg_.add_edge(ip->second, ids.dibg);
  }
  ids.addresses = entry.addresses;
}

graph::BipartiteGraph GraphBuilderSink::take_hdbg() {
  hdbg_.finalize();
  return std::move(hdbg_);
}

graph::BipartiteGraph GraphBuilderSink::take_dibg() {
  dibg_.finalize();
  return std::move(dibg_);
}

graph::BipartiteGraph GraphBuilderSink::take_dtbg() {
  dtbg_.finalize();
  return std::move(dtbg_);
}

std::vector<std::string> kept_domains(const graph::BipartiteGraph& hdbg,
                                      const graph::DegreePruneOptions& prune) {
  const auto keep_mask = graph::right_degree_keep_mask(hdbg, prune);
  std::vector<std::string> kept;
  for (graph::VertexId r = 0; r < hdbg.right_count(); ++r) {
    if (keep_mask[r]) kept.push_back(hdbg.right_names().name(r));
  }
  return kept;
}

graph::BipartiteGraph restrict_domains(const graph::BipartiteGraph& g,
                                       const std::vector<std::string>& kept) {
  OBS_SPAN("behavior.restrict");
  const std::unordered_set<std::string_view> keep(kept.begin(), kept.end());
  std::vector<bool> mask(g.right_count(), false);
  for (graph::VertexId r = 0; r < g.right_count(); ++r) {
    mask[r] = keep.contains(g.right_names().name(r));
  }
  return g.filter_right(mask);
}

util::CsrGraph project_channel(const Channel& channel, const graph::BipartiteGraph& pruned,
                               const graph::ProjectionOptions& options) {
  const std::string span = std::string{"behavior.project."} + channel.name;
  OBS_SPAN(span.c_str());
  return graph::project_right(pruned, options);
}

BehaviorModel build_behavior_model(graph::BipartiteGraph hdbg, graph::BipartiteGraph dibg,
                                   graph::BipartiteGraph dtbg,
                                   const BehaviorModelConfig& config) {
  hdbg.finalize();
  dibg.finalize();
  dtbg.finalize();

  OBS_SPAN("behavior.model");
  BehaviorModel model;
  model.kept_domains = kept_domains(hdbg, config.prune);
  model.hdbg = restrict_domains(hdbg, model.kept_domains);
  model.dibg = restrict_domains(dibg, model.kept_domains);
  model.dtbg = restrict_domains(dtbg, model.kept_domains);
  for (const auto& channel : kChannels) {
    model.*channel.projected =
        project_channel(channel, model.*channel.pruned, config.*channel.projection);
  }
  return model;
}

}  // namespace dnsembed::core
