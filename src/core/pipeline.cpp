#include "core/pipeline.hpp"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/log.hpp"

namespace dnsembed::core {

namespace {

/// Collects flows only (DNS events go to the graph builder).
class FlowStore final : public trace::TraceSink {
 public:
  void on_dns(const dns::LogEntry&) override {}
  void on_flow(const trace::NetflowRecord& record) override { flows_.push_back(record); }

  std::vector<trace::NetflowRecord> take() && { return std::move(flows_); }

 private:
  std::vector<trace::NetflowRecord> flows_;
};

/// Collects the raw entries (streaming-detector replays need them per day).
class EntryStore final : public trace::TraceSink {
 public:
  void on_dns(const dns::LogEntry& entry) override { entries_.push_back(entry); }

  std::vector<dns::LogEntry> take() && { return std::move(entries_); }

 private:
  std::vector<dns::LogEntry> entries_;
};

}  // namespace

graph::ProjectionOptions channel_projection(const PipelineConfig& config,
                                            const Channel& channel) {
  graph::ProjectionOptions projection = config.behavior.*channel.projection;
  projection.threads = 0;
  return projection;
}

embed::EmbedConfig pipeline_embedding(const PipelineConfig& config) {
  embed::EmbedConfig embedding = config.embedding;
  embedding.dimension = config.embedding_dimension;
  embedding.seed = config.seed;
  return embedding;
}

embed::EmbedConfig channel_embedding(const embed::EmbedConfig& base, const Channel& channel) {
  embed::EmbedConfig embedding = base;
  embedding.seed = base.seed + channel.seed_offset;
  return embedding;
}

ChannelEmbeddings embed_channels(const BehaviorModel& model, const embed::EmbedConfig& base) {
  ChannelEmbeddings out;
  for (const auto& channel : kChannels) {
    const std::string span = std::string{"embed."} + channel.name;
    OBS_SPAN(span.c_str());
    out.channels.push_back(
        embed::embed_graph(model.*channel.projected, channel_embedding(base, channel)));
  }
  std::vector<const embed::EmbeddingMatrix*> parts;
  for (const auto& embedding : out.channels) parts.push_back(&embedding);
  out.combined = embed::EmbeddingMatrix::concat(model.kept_domains, parts);
  return out;
}

PipelineResult run_pipeline(const PipelineConfig& config) {
  obs::StageSpan pipeline_span{"pipeline.run"};
  PipelineResult result;

  GraphBuilderSink graphs;
  FlowStore flow_store;
  EntryStore entry_store;
  {
    obs::StageSpan span{"pipeline.trace"};
    std::vector<trace::TraceSink*> sinks{&graphs, &flow_store};
    if (config.keep_entries) sinks.push_back(&entry_store);
    trace::TeeSink tee{sinks};
    result.trace = trace::generate_trace(config.trace, tee);
  }
  util::log_info() << "pipeline: trace " << result.trace.dns_events << " dns events";
  obs::metrics().gauge("pipeline.trace.dns_events").set(
      static_cast<std::int64_t>(result.trace.dns_events));
  result.flows = std::move(flow_store).take();
  if (config.keep_entries) result.entries = std::move(entry_store).take();

  {
    obs::StageSpan span{"pipeline.behavior"};
    BehaviorModelConfig behavior = config.behavior;
    for (const auto& channel : kChannels) {
      behavior.*channel.projection = channel_projection(config, channel);
    }
    result.model = build_behavior_model(graphs.take_hdbg(), graphs.take_dibg(),
                                        graphs.take_dtbg(), behavior);
  }
  util::log_info() << "pipeline: behavior model (" << result.model.kept_domains.size()
                   << " domains; q/i/t edges " << result.model.query_similarity.edge_count()
                   << "/" << result.model.ip_similarity.edge_count() << "/"
                   << result.model.temporal_similarity.edge_count() << ")";
  auto& registry = obs::metrics();
  registry.gauge("pipeline.behavior.kept_domains")
      .set(static_cast<std::int64_t>(result.model.kept_domains.size()));
  registry.gauge("pipeline.behavior.query_edges")
      .set(static_cast<std::int64_t>(result.model.query_similarity.edge_count()));
  registry.gauge("pipeline.behavior.ip_edges")
      .set(static_cast<std::int64_t>(result.model.ip_similarity.edge_count()));
  registry.gauge("pipeline.behavior.temporal_edges")
      .set(static_cast<std::int64_t>(result.model.temporal_similarity.edge_count()));

  {
    obs::StageSpan span{"pipeline.embed"};
    auto embedded = embed_channels(result.model, pipeline_embedding(config));
    // kChannels order.
    result.query_embedding = std::move(embedded.channels[0]);
    result.ip_embedding = std::move(embedded.channels[1]);
    result.temporal_embedding = std::move(embedded.channels[2]);
    result.combined_embedding = std::move(embedded.combined);
  }
  util::log_info() << "pipeline: embeddings (3x" << config.embedding_dimension << ")";

  {
    obs::StageSpan span{"pipeline.labels"};
    const intel::VirusTotalSim vt{result.trace.truth, config.virustotal};
    result.labels =
        build_labeled_set(result.model.kept_domains, result.trace.truth, vt, config.labeling);
  }
  util::log_info() << "pipeline: labeled set " << result.labels.size() << " ("
                   << result.labels.malicious_count() << " malicious)";
  registry.gauge("pipeline.labels.labeled").set(static_cast<std::int64_t>(result.labels.size()));
  registry.gauge("pipeline.labels.malicious")
      .set(static_cast<std::int64_t>(result.labels.malicious_count()));
  // Labeled-set composition by campaign archetype (scenario.* namespace;
  // detection-side gauges are published by evaluate_scenarios).
  {
    std::map<std::string, std::size_t> per_scenario;
    for (std::size_t i = 0; i < result.labels.size(); ++i) {
      if (result.labels.labels[i] != 1) continue;
      const std::string_view tag = result.labels.scenario(i);
      per_scenario[tag.empty() ? "unknown" : std::string{tag}] += 1;
    }
    for (const auto& [tag, count] : per_scenario) {
      registry.gauge("scenario." + tag + ".domains").set(static_cast<std::int64_t>(count));
    }
  }
  return result;
}

ChannelEvaluations evaluate_channels(const PipelineResult& result,
                                     const PipelineConfig& config) {
  obs::StageSpan span{"pipeline.svm"};
  ChannelEvaluations evals;
  const auto run = [&](const char* channel, const embed::EmbeddingMatrix& embedding) {
    OBS_SPAN(channel);
    return evaluate_svm(make_dataset(embedding, result.labels), config.svm, config.kfold,
                        config.seed);
  };
  evals.query = run("pipeline.svm.query", result.query_embedding);
  evals.ip = run("pipeline.svm.ip", result.ip_embedding);
  evals.temporal = run("pipeline.svm.temporal", result.temporal_embedding);
  evals.combined = run("pipeline.svm.combined", result.combined_embedding);
  return evals;
}

}  // namespace dnsembed::core
