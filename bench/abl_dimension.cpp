// Ablation: embedding size k per similarity graph (the combined feature
// vector is 3k, paper §6.1 leaves k unspecified).
#include <cstdio>

#include "bench_common.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace dnsembed;
  auto config = bench::bench_pipeline_config();
  bench::print_header("Ablation: embedding dimension k (combined channel, 10-fold CV)",
                      "paper does not report k; detection should saturate quickly");

  const auto base = core::run_pipeline(config);

  std::printf("%8s %8s %10s %12s\n", "k", "3k", "AUC", "embed(s)");
  for (const std::size_t k : {4u, 8u, 16u, 32u, 64u}) {
    util::Stopwatch watch;
    embed::EmbedConfig ec = core::pipeline_embedding(config);
    ec.dimension = k;
    const auto combined = core::embed_channels(base.model, ec).combined;
    const double embed_seconds = watch.seconds();
    const auto eval = core::evaluate_svm(core::make_dataset(combined, base.labels),
                                         config.svm, config.kfold, config.seed);
    std::printf("%8zu %8zu %10.4f %12.1f\n", k, 3 * k, eval.auc, embed_seconds);
  }
  return 0;
}
