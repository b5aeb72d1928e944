// Ablation: embedding method. LINE (both orders, as the paper), LINE
// first-/second-order only, DeepWalk, and node2vec on the same similarity
// graphs and labeled set.
#include <cstdio>

#include "bench_common.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dnsembed;

struct Variant {
  const char* name;
  embed::EmbedConfig config;
};

}  // namespace

int main() {
  using namespace dnsembed;
  auto config = bench::bench_pipeline_config();
  bench::print_header("Ablation: graph-embedding method (combined channel, 10-fold CV)",
                      "paper uses LINE (1st + 2nd order); alternatives not evaluated there");

  // Build graphs and labels once.
  const auto base = core::run_pipeline(config);

  std::vector<Variant> variants;
  {
    embed::EmbedConfig line = config.embedding;
    variants.push_back({"LINE (1st+2nd)", line});
    line.line.order = embed::LineOrder::kFirst;
    variants.push_back({"LINE (1st only)", line});
    line.line.order = embed::LineOrder::kSecond;
    variants.push_back({"LINE (2nd only)", line});

    embed::EmbedConfig walk;
    walk.method = embed::EmbedMethod::kDeepWalk;
    walk.walk.walks_per_vertex = 6;
    walk.walk.walk_length = 30;
    walk.sgns.epochs = 2;
    variants.push_back({"DeepWalk", walk});
    walk.method = embed::EmbedMethod::kNode2Vec;
    walk.walk.p = 0.5;
    walk.walk.q = 2.0;
    variants.push_back({"node2vec(p=.5,q=2)", walk});
  }

  std::printf("%-20s %10s %10s\n", "method", "AUC", "embed(s)");
  for (const auto& variant : variants) {
    util::Stopwatch watch;
    embed::EmbedConfig ec = variant.config;
    ec.dimension = config.embedding_dimension;
    ec.seed = config.seed;
    const auto combined = core::embed_channels(base.model, ec).combined;
    const double embed_seconds = watch.seconds();

    const auto eval = core::evaluate_svm(core::make_dataset(combined, base.labels),
                                         config.svm, config.kfold, config.seed);
    std::printf("%-20s %10.4f %10.1f\n", variant.name, eval.auc, embed_seconds);
  }
  std::printf("\nexpectation: every embedder separates (AUC > 0.9); LINE both orders >= "
              "single orders.\n");
  return 0;
}
