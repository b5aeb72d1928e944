// End-to-end pipeline façade (paper Fig. 2): trace -> bipartite graphs ->
// pruning -> one-mode projections -> graph embeddings -> labeled set ->
// SVM detection / X-Means mining. Benches and examples drive experiments
// through this type.
#pragma once

#include <cstdint>

#include "core/behavior.hpp"
#include "core/detector.hpp"
#include "embed/embedder.hpp"
#include "intel/labels.hpp"
#include "intel/virustotal.hpp"
#include "ml/svm.hpp"
#include "ml/xmeans.hpp"
#include "trace/config.hpp"
#include "trace/generator.hpp"

namespace dnsembed::core {

struct PipelineConfig {
  trace::TraceConfig trace;
  BehaviorModelConfig behavior;

  /// Embedding size k per similarity graph; the combined vector is 3k
  /// (paper §6.1).
  std::size_t embedding_dimension = 32;
  embed::EmbedConfig embedding;  // method + method knobs; dimension/seed overridden

  intel::VirusTotalConfig virustotal;
  intel::LabelingConfig labeling;

  ml::SvmConfig svm;     // paper defaults: RBF, C = 0.09, gamma = 0.06
  std::size_t kfold = 10;

  ml::XMeansConfig xmeans;

  /// Retain the raw DNS log entries (streaming-detector replays split
  /// them by day; off by default — full traces are large).
  bool keep_entries = false;

  std::uint64_t seed = 1;

  PipelineConfig() {
    // Budget LINE by total samples, not per-edge: similarity graphs can
    // have millions of edges.
    embedding.line.total_samples = 6'000'000;
    // Kernel fill / batch scoring parallelism (deterministic; see SvmConfig).
    svm.threads = 0;
    xmeans.k_min = 4;
    xmeans.k_max = 48;
  }
};

/// `channel`'s projection options, counting on one thread per CPU of the
/// affinity mask (the output is the same at every thread count).
graph::ProjectionOptions channel_projection(const PipelineConfig& config, const Channel& channel);

/// The run-wide embedding config: `embedding` at embedding_dimension,
/// seeded with `seed`. Each channel reseeds it (channel_embedding).
embed::EmbedConfig pipeline_embedding(const PipelineConfig& config);

/// `base` reseeded for `channel`: seed base.seed + channel.seed_offset. The
/// one place a channel's seed is derived; embed_channels and `run`'s embed
/// tasks both use it.
embed::EmbedConfig channel_embedding(const embed::EmbedConfig& base, const Channel& channel);

/// A model's channel embeddings in kChannels order, and their
/// concatenation over the model's kept domains (paper §6.1:
/// x = [query-vec | ip-vec | temporal-vec]).
struct ChannelEmbeddings {
  std::vector<embed::EmbeddingMatrix> channels;
  embed::EmbeddingMatrix combined;
};

/// Embed each of the model's similarity graphs, in kChannels order, with
/// channel_embedding(base, channel), then concatenate them. Each channel
/// is traced as span "embed.<channel>".
ChannelEmbeddings embed_channels(const BehaviorModel& model, const embed::EmbedConfig& base);

struct PipelineResult {
  trace::TraceResult trace;
  BehaviorModel model;
  embed::EmbeddingMatrix query_embedding;
  embed::EmbeddingMatrix ip_embedding;
  embed::EmbeddingMatrix temporal_embedding;
  embed::EmbeddingMatrix combined_embedding;  // R^{3k}, rows = kept_domains
  intel::LabeledSet labels;
  std::vector<trace::NetflowRecord> flows;
  std::vector<dns::LogEntry> entries;  // only when keep_entries
};

/// Run trace generation through embedding + labeling. Detection and
/// clustering are separate calls (they are the per-experiment variables).
PipelineResult run_pipeline(const PipelineConfig& config);

/// Convenience: evaluate the SVM on each feature channel and the combined
/// vector (Figs. 6-7).
struct ChannelEvaluations {
  DetectionEvaluation query;
  DetectionEvaluation ip;
  DetectionEvaluation temporal;
  DetectionEvaluation combined;
};

ChannelEvaluations evaluate_channels(const PipelineResult& result, const PipelineConfig& config);

}  // namespace dnsembed::core
