// Shared configuration and printing helpers for the experiment harnesses.
//
// Every figure/table binary runs standalone with a "bench" scale chosen so
// the full suite finishes in minutes. Set DNSEMBED_SCALE=full to run at a
// scale closer to the paper's campus (more hosts/days/families; slower).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/pipeline.hpp"

namespace dnsembed::bench {

inline bool full_scale() {
  const char* env = std::getenv("DNSEMBED_SCALE");
  return env != nullptr && std::string{env} == "full";
}

/// The default experiment configuration shared by the figure benches.
inline core::PipelineConfig bench_pipeline_config() {
  core::PipelineConfig config;
  config.seed = 1;
  config.trace.seed = 42;
  if (full_scale()) {
    config.trace.hosts = 1200;
    config.trace.days = 14;
    config.trace.benign_sites = 8000;
    config.trace.third_party_pool = 600;
    config.trace.interests_per_host = 220;
    config.trace.malware_families = 30;
    config.embedding.line.total_samples = 20'000'000;
  } else {
    config.trace.hosts = 300;
    config.trace.days = 5;
    config.trace.benign_sites = 1800;
    config.trace.third_party_pool = 250;
    config.trace.interests_per_host = 120;
    config.trace.malware_families = 10;
    config.embedding.line.total_samples = 4'000'000;
  }
  config.embedding_dimension = 32;
  config.kfold = 10;
  // Similarity edges below 0.1 are incidental co-occurrence; dropping them
  // sparsifies the graphs ~5x and concentrates the LINE sampling budget.
  config.behavior.query_projection.min_similarity = 0.1;
  config.behavior.ip_projection.min_similarity = 0.1;
  config.behavior.temporal_projection.min_similarity = 0.1;
  // SVM: the paper's C = 0.09 / gamma = 0.06 were tuned for its feature
  // scale and underfit our 96-dim L2-normalized embeddings (AUC drops ~0.1
  // across every channel; see bench/abl_kernel for the sweep including the
  // paper's values). We use C = 1, gamma = 0.5.
  config.svm.kernel = ml::SvmKernel::kRbf;
  config.svm.c = 1.0;
  config.svm.gamma = 0.5;
  // Fine-grained clusters: families are ~10-60 domains each.
  config.xmeans.k_min = 8;
  config.xmeans.k_max = full_scale() ? 192 : 96;
  return config;
}

inline void print_header(const char* experiment, const char* paper_result) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper reports: %s\n", paper_result);
  std::printf("scale: %s (set DNSEMBED_SCALE=full for paper-like scale)\n",
              full_scale() ? "full" : "bench");
  std::printf("==============================================================\n");
}

inline void print_roc(const std::vector<ml::RocPoint>& roc, std::size_t max_points = 20) {
  std::printf("%10s %10s\n", "FPR", "TPR");
  const std::size_t stride = roc.size() > max_points ? roc.size() / max_points : 1;
  for (std::size_t i = 0; i < roc.size(); i += stride) {
    std::printf("%10.4f %10.4f\n", roc[i].fpr, roc[i].tpr);
  }
  if (!roc.empty()) std::printf("%10.4f %10.4f\n", roc.back().fpr, roc.back().tpr);
}

}  // namespace dnsembed::bench
