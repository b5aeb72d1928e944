// §8.2 performance comparison: the Exposure baseline (four groups of
// hand-crafted passive-DNS features + a J48/C4.5 decision tree) against the
// proposed graph-embedding + SVM detector, on the same labeled set.
#include <cstdio>

#include "bench_common.hpp"
#include "core/behavior.hpp"
#include "features/exposure.hpp"
#include "ml/decision_tree.hpp"
#include "trace/generator.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dnsembed;

/// Sink feeding both the graph builder and the Exposure extractor.
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
  bench::print_header("Section 8.2: Exposure (J48) baseline vs graph embedding + SVM",
                      "Exposure AUC 0.88 vs proposed 0.94 (+6.8%)");

  // One trace, two consumers: the pipeline graphs and the Exposure features.
  util::Stopwatch watch;
  core::GraphBuilderSink graphs;
  const auto horizon = static_cast<std::int64_t>(config.trace.days) * 86400;
  ExposureSink exposure{config.trace.start_time, config.trace.start_time + horizon};
  trace::TeeSink tee{{&graphs, &exposure}};
  const auto trace_result = trace::generate_trace(config.trace, tee);

  auto model = core::build_behavior_model(graphs.take_hdbg(), graphs.take_dibg(),
                                          graphs.take_dtbg(), config.behavior);

  // Embedding features (proposed).
  const auto combined =
      core::embed_channels(model, core::pipeline_embedding(config)).combined;

  const intel::VirusTotalSim vt{trace_result.truth, config.virustotal};
  const auto labels = build_labeled_set(model.kept_domains, trace_result.truth, vt,
                                        config.labeling);
  std::printf("setup: %zu labeled domains in %.1fs\n", labels.size(), watch.seconds());

  // --- proposed: embeddings + SVM ---
  watch.reset();
  const auto ours = core::evaluate_svm(core::make_dataset(combined, labels), config.svm,
                                       config.kfold, config.seed);
  std::printf("proposed (LINE + SVM):    AUC %.4f  [paper 0.94]  (%.1fs)\n", ours.auc,
              watch.seconds());

  // --- baseline: Exposure features + C4.5 ---
  watch.reset();
  ml::Dataset exposure_data;
  exposure_data.x = exposure.extractor().extract(labels.domains);
  exposure_data.y = labels.labels;
  exposure_data.names = labels.domains;
  const auto baseline = ml::cross_validate(
      exposure_data, config.kfold, config.seed,
      [](const ml::Dataset& train, const ml::Dataset& test) {
        const auto tree = ml::train_tree(train, ml::TreeConfig{});
        return tree.predict_probas(test.x);
      });
  const double baseline_auc = ml::roc_auc(baseline.scores, baseline.labels);
  std::printf("Exposure (J48/C4.5):      AUC %.4f  [paper 0.88]  (%.1fs)\n", baseline_auc,
              watch.seconds());

  const double improvement = (ours.auc - baseline_auc) / baseline_auc * 100.0;
  std::printf("\nimprovement over Exposure: %+.1f%%  [paper: +6.8%%]\n", improvement);
  std::printf("shape check (proposed > Exposure): %s\n",
              ours.auc > baseline_auc ? "PASS" : "FAIL");
  return ours.auc > baseline_auc ? 0 : 1;
}
