// Shared configuration and printing helpers for the experiment harnesses.
//
// Every figure/table binary runs standalone with a "bench" scale chosen so
// the full suite finishes in minutes. Set DNSEMBED_SCALE=full to run at a
// scale closer to the paper's campus (more hosts/days/families; slower).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

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

// --------------------------------------------------- BENCH_*.json records

/// Min and median wall time over a bench's repetitions.
struct Timing {
  double min_ms = 0.0;
  double median_ms = 0.0;
};

/// Min and median of a non-empty set of wall times.
inline Timing summarize(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  const std::size_t mid = ms.size() / 2;
  return {ms.front(), ms.size() % 2 == 1 ? ms[mid] : (ms[mid - 1] + ms[mid]) / 2.0};
}

inline Timing time_reps(const std::function<void()>& fn, int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch watch;
    fn();
    ms.push_back(watch.millis());
  }
  return summarize(std::move(ms));
}

inline std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(line.find_first_not_of(" \t", colon + 1));
    std::replace(model.begin(), model.end(), '"', '\'');
    return model;
  }
  return "unknown";
}

/// Writes the `"machine": {...}` member of a BENCH_*.json record: cores,
/// CPUs usable under the affinity mask, CPU model, the active SIMD rung and
/// the build type (each bench binary is compiled with DNSEMBED_BUILD_TYPE).
inline void write_machine_json(std::FILE* out) {
  std::fprintf(out,
               "\"machine\": {\"cores\": %u, \"usable_cpus\": %zu, \"cpu\": \"%s\", "
               "\"simd\": \"%s\", \"build_type\": \"%s\"}",
               std::thread::hardware_concurrency(), util::resolve_threads(0),
               cpu_model().c_str(), util::simd::level_name(util::simd::active_level()),
               DNSEMBED_BUILD_TYPE);
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
