// Zero-day generalization experiment (beyond the paper, motivated by its
// "adapting to changing and evolving attacking strategies" claim): hold
// ENTIRE malware families out of the training labels and measure how well
// the detector flags their domains — behaviors it has never seen labeled.
// Compared against the Exposure baseline under the same protocol.
#include <cstdio>
#include <unordered_set>

#include "bench_common.hpp"
#include "core/behavior.hpp"
#include "core/detector.hpp"
#include "features/exposure.hpp"
#include "intel/labels.hpp"
#include "ml/decision_tree.hpp"
#include "trace/generator.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dnsembed;

class ExposureSink final : public trace::TraceSink {
 public:
  ExposureSink(std::int64_t start, std::int64_t end) : extractor_{start, end} {}
  void on_dns(const dns::LogEntry& entry) override {
    extractor_.observe(entry, psl_.e2ld_or_self(entry.qname));
  }
  features::ExposureExtractor& extractor() noexcept { return extractor_; }

 private:
  const dns::PublicSuffixList& psl_ = dns::PublicSuffixList::builtin();
  features::ExposureExtractor extractor_;
};

}  // namespace

int main() {
  using namespace dnsembed;
  const auto config = bench::bench_pipeline_config();
  bench::print_header(
      "Experiment: zero-day families (train without them, score their domains)",
      "beyond the paper; behavioral features should generalize to unseen families");

  core::GraphBuilderSink graphs;
  const auto horizon = static_cast<std::int64_t>(config.trace.days) * 86400;
  ExposureSink exposure{config.trace.start_time, config.trace.start_time + horizon};
  trace::TeeSink tee{{&graphs, &exposure}};
  const auto trace_result = trace::generate_trace(config.trace, tee);
  auto model = core::build_behavior_model(graphs.take_hdbg(), graphs.take_dibg(),
                                          graphs.take_dtbg(), config.behavior);

  const auto combined =
      core::embed_channels(model, core::pipeline_embedding(config)).combined;

  const intel::VirusTotalSim vt{trace_result.truth, config.virustotal};
  const auto all_labels =
      build_labeled_set(model.kept_domains, trace_result.truth, vt, config.labeling);

  std::printf("\n%-28s %14s %14s %12s\n", "held-out family", "embed AUC", "exposure AUC",
              "domains");
  double embed_sum = 0.0;
  double exposure_sum = 0.0;
  std::size_t evaluated = 0;
  for (const auto& family : trace_result.truth.families()) {
    // Split: family domains + an equal benign slice form the test set;
    // everything else trains.
    intel::LabeledSet train;
    intel::LabeledSet test;
    std::size_t benign_budget = 0;
    for (std::size_t k = 0; k < all_labels.size(); ++k) {
      const auto owner = trace_result.truth.family_of(all_labels.domains[k]);
      if (owner == family.id) ++benign_budget;
    }
    if (benign_budget < 10) continue;  // family mostly pruned/evading
    std::size_t benign_taken = 0;
    for (std::size_t k = 0; k < all_labels.size(); ++k) {
      const auto owner = trace_result.truth.family_of(all_labels.domains[k]);
      const bool held_out = owner == family.id;
      const bool benign_test =
          all_labels.labels[k] == 0 && benign_taken < benign_budget && (k % 3 == 0);
      if (benign_test) ++benign_taken;
      auto& bucket = (held_out || benign_test) ? test : train;
      bucket.domains.push_back(all_labels.domains[k]);
      bucket.labels.push_back(all_labels.labels[k]);
    }
    if (test.malicious_count() < 10 || test.malicious_count() == test.size()) continue;

    // Embedding detector.
    const auto svm_model = ml::train_svm(core::make_dataset(combined, train), config.svm);
    const auto embed_auc =
        ml::roc_auc(svm_model.decision_values(core::make_dataset(combined, test).x), test.labels);

    // Exposure baseline.
    ml::Dataset exp_train;
    exp_train.x = exposure.extractor().extract(train.domains);
    exp_train.y = train.labels;
    ml::Dataset exp_test;
    exp_test.x = exposure.extractor().extract(test.domains);
    exp_test.y = test.labels;
    const auto tree = ml::train_tree(exp_train, ml::TreeConfig{});
    const double exposure_auc = ml::roc_auc(tree.predict_probas(exp_test.x), exp_test.y);

    std::printf("%-28s %14.4f %14.4f %12zu\n", family.name.c_str(), embed_auc, exposure_auc,
                test.malicious_count());
    embed_sum += embed_auc;
    exposure_sum += exposure_auc;
    ++evaluated;
  }
  if (evaluated == 0) {
    std::printf("no families large enough to evaluate\n");
    return 1;
  }
  const double embed_mean = embed_sum / static_cast<double>(evaluated);
  const double exposure_mean = exposure_sum / static_cast<double>(evaluated);
  std::printf("\nmean over %zu held-out families: embedding %.4f vs exposure %.4f\n",
              evaluated, embed_mean, exposure_mean);
  std::printf("shape check (both detect unseen families, embedding >= exposure - 0.02): %s\n",
              embed_mean > 0.7 && embed_mean >= exposure_mean - 0.02 ? "PASS" : "FAIL");
  return embed_mean > 0.7 ? 0 : 1;
}
