// Adversarial scenario gate bench (extends exp_zero_day's held-out protocol
// to the full adversarial suite). Runs a clean pipeline plus a mimicry sweep
// of adversarial pipelines (zero-day + graph-evasion families, IoT host
// profiles) and FAILS (nonzero exit) unless:
//
//   1. the clean archetypes' pooled AUC in the adversarial run stays within
//      0.01 of the clean run's combined AUC (adversarial campaigns must not
//      degrade detection of ordinary ones),
//   2. zero-day recall is positive after the activation day under the
//      held-out protocol (train WITHOUT any zero-day labels, score the
//      zero-day domains directly against ground truth — the labels
//      themselves under-cover fresh domains because they evade blacklists),
//   3. evasion-family recall at the default mimicry rate stays at or above
//      a measured floor.
//
// The mimicry sweep (0 .. 1) plus per-scenario seed-expansion reach is
// recorded for trend-watching. Results land in BENCH_adversarial.json
// (override with DNSEMBED_BENCH_JSON); DNSEMBED_BENCH_SMOKE=1 shrinks the
// trace for CI and keeps the same gates.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/clustering.hpp"
#include "core/detector.hpp"
#include "core/pipeline.hpp"
#include "core/scenario.hpp"
#include "ml/metrics.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dnsembed;

constexpr double kDefaultMimicry = 0.5;
// Measured at both scales with seed 42 (evasion recall 1.0 at every sweep
// point); the floor leaves room for classifier jitter, not for regressions.
constexpr double kEvasionRecallFloor = 0.60;
constexpr double kCleanAucSlack = 0.01;

core::PipelineConfig point_config(bool smoke, bool adversarial, double mimicry) {
  core::PipelineConfig config;
  config.seed = 1;
  config.trace.seed = 42;
  config.trace.hosts = smoke ? 60 : 160;
  config.trace.days = smoke ? 4 : 6;
  config.trace.benign_sites = smoke ? 300 : 900;
  config.trace.malware_families = smoke ? 5 : 8;
  config.embedding_dimension = smoke ? 16 : 32;
  config.embedding.line.total_samples = smoke ? 300'000 : 2'000'000;
  config.kfold = smoke ? 3 : 5;
  config.behavior.query_projection.min_similarity = 0.1;
  config.behavior.ip_projection.min_similarity = 0.1;
  config.behavior.temporal_projection.min_similarity = 0.1;
  config.svm.kernel = ml::SvmKernel::kRbf;
  config.svm.c = 1.0;
  config.svm.gamma = 0.5;
  config.xmeans.k_min = 4;
  config.xmeans.k_max = smoke ? 32 : 64;
  if (adversarial) {
    config.trace.zero_day_families = 2;
    config.trace.evasion_families = 2;
    config.trace.evasion_mimicry_rate = mimicry;
    config.trace.iot_host_fraction = 0.15;
  }
  return config;
}

struct PointResult {
  double mimicry = 0.0;
  double wall_ms = 0.0;
  double combined_auc = 0.0;
  double clean_pool_auc = 0.0;  // baseline archetypes vs all labeled benign
  std::size_t zero_day_known = 0;     // embedded zero-day domains (held-out)
  std::size_t zero_day_detected = 0;  // ... scoring malicious after activation
  core::ScenarioEvaluation scenarios;
};

bool adversarial_tag(const std::string& tag) {
  return tag == "zero-day" || tag == "evasion";
}

PointResult run_point(const core::PipelineConfig& config, double mimicry) {
  util::Stopwatch watch;
  PointResult point;
  point.mimicry = mimicry;
  const auto result = core::run_pipeline(config);
  const auto eval = core::evaluate_svm(core::make_dataset(result.combined_embedding, result.labels),
                                       config.svm, config.kfold, config.seed);
  point.combined_auc = eval.auc;
  point.scenarios = core::evaluate_scenarios(result.labels, eval.scores.scores,
                                             result.trace.truth, 0.0);
  const auto clusters = core::cluster_domains(result.combined_embedding, result.model.kept_domains,
                                              result.trace.truth, config.xmeans);
  core::annotate_seed_expansion(point.scenarios, clusters, result.trace.truth);

  // Clean-archetype pool: the same out-of-fold scores restricted to baseline
  // campaign kinds plus every labeled benign domain.
  std::vector<double> pooled;
  std::vector<int> pooled_labels;
  for (std::size_t i = 0; i < result.labels.size(); ++i) {
    const std::string tag{result.labels.scenario(i)};
    if (result.labels.labels[i] == 1 && adversarial_tag(tag)) continue;
    pooled.push_back(eval.scores.scores[i]);
    pooled_labels.push_back(result.labels.labels[i]);
  }
  point.clean_pool_auc = ml::roc_auc(pooled, pooled_labels);

  // Held-out zero-day protocol: drop every zero-day domain from the training
  // labels, then score the ground-truth zero-day domains directly.
  intel::LabeledSet train;
  for (std::size_t i = 0; i < result.labels.size(); ++i) {
    if (result.labels.scenario(i) == "zero-day") continue;
    train.domains.push_back(result.labels.domains[i]);
    train.labels.push_back(result.labels.labels[i]);
  }
  if (train.malicious_count() > 0 && train.malicious_count() < train.size()) {
    const core::DomainDetector detector{result.combined_embedding, train, config.svm};
    for (const auto& family : result.trace.truth.families()) {
      if (family.kind != trace::FamilyKind::kZeroDay) continue;
      for (const auto& domain : family.domains) {
        if (!detector.knows(domain)) continue;
        ++point.zero_day_known;
        if (detector.is_malicious(domain)) ++point.zero_day_detected;
      }
    }
  }
  point.wall_ms = watch.millis();
  return point;
}

const core::ScenarioMetrics* find_scenario(const PointResult& point, const char* tag) {
  for (const auto& metrics : point.scenarios.scenarios) {
    if (metrics.scenario == tag) return &metrics;
  }
  return nullptr;
}

void print_point_json(std::FILE* out, const PointResult& point, bool last) {
  std::fprintf(out,
               "    {\n"
               "      \"mimicry\": %.2f,\n"
               "      \"wall_ms\": %.1f,\n"
               "      \"combined_auc\": %.4f,\n"
               "      \"clean_pool_auc\": %.4f,\n"
               "      \"zero_day_known\": %zu,\n"
               "      \"zero_day_heldout_detected\": %zu,\n"
               "      \"benign_labeled\": %zu,\n"
               "      \"benign_false_positives\": %zu,\n"
               "      \"scenarios\": [\n",
               point.mimicry, point.wall_ms, point.combined_auc, point.clean_pool_auc,
               point.zero_day_known, point.zero_day_detected, point.scenarios.benign_labeled,
               point.scenarios.benign_false_positives);
  for (std::size_t i = 0; i < point.scenarios.scenarios.size(); ++i) {
    const auto& metrics = point.scenarios.scenarios[i];
    std::fprintf(out,
                 "        {\"scenario\": \"%s\", \"labeled\": %zu, \"detected\": %zu, "
                 "\"recall\": %.4f, \"precision\": %.4f, \"auc\": %s, "
                 "\"expansion_reached\": %zu, \"expansion_candidates\": %zu}%s\n",
                 metrics.scenario.c_str(), metrics.labeled, metrics.detected, metrics.recall,
                 metrics.precision,
                 metrics.auc_valid ? (std::to_string(metrics.auc).substr(0, 6)).c_str() : "null",
                 metrics.expansion_reached, metrics.expansion_candidates,
                 i + 1 < point.scenarios.scenarios.size() ? "," : "");
  }
  std::fprintf(out, "      ]\n    }%s\n", last ? "" : ",");
}

}  // namespace

int main() {
  const bool smoke = std::getenv("DNSEMBED_BENCH_SMOKE") != nullptr;
  const char* json_path = std::getenv("DNSEMBED_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_adversarial.json";

  std::printf("micro_adversarial: clean baseline + mimicry sweep (%s scale)\n",
              smoke ? "smoke" : "bench");

  const auto clean = run_point(point_config(smoke, false, 0.0), 0.0);
  std::printf("clean: combined AUC %.4f (%.0f ms)\n", clean.combined_auc, clean.wall_ms);

  const std::vector<double> sweep_rates{0.0, 0.25, kDefaultMimicry, 1.0};
  std::vector<PointResult> sweep;
  sweep.reserve(sweep_rates.size());  // default_point stays valid across push_backs
  const PointResult* default_point = nullptr;
  for (const double rate : sweep_rates) {
    sweep.push_back(run_point(point_config(smoke, true, rate), rate));
    const auto& point = sweep.back();
    const auto* evasion = find_scenario(point, "evasion");
    std::printf(
        "mimicry %.2f: combined AUC %.4f, clean-pool AUC %.4f, evasion recall %s, "
        "zero-day held-out %zu/%zu (%.0f ms)\n",
        rate, point.combined_auc, point.clean_pool_auc,
        evasion != nullptr ? std::to_string(evasion->recall).substr(0, 6).c_str() : "n/a",
        point.zero_day_detected, point.zero_day_known, point.wall_ms);
    if (rate == kDefaultMimicry) default_point = &sweep.back();
  }

  // Gates.
  const auto* evasion_default =
      default_point != nullptr ? find_scenario(*default_point, "evasion") : nullptr;
  const bool clean_auc_ok =
      default_point != nullptr &&
      default_point->clean_pool_auc >= clean.combined_auc - kCleanAucSlack;
  const bool zero_day_ok =
      default_point != nullptr && default_point->zero_day_known > 0 &&
      default_point->zero_day_detected > 0;
  const bool evasion_ok = evasion_default != nullptr && evasion_default->labeled > 0 &&
                          evasion_default->recall >= kEvasionRecallFloor;

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_adversarial: cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"smoke\": %s,\n  ", smoke ? "true" : "false");
  bench::write_machine_json(out);
  std::fprintf(out,
               ",\n"
               "  \"default_mimicry\": %.2f,\n"
               "  \"evasion_recall_floor\": %.2f,\n"
               "  \"clean_auc_slack\": %.2f,\n"
               "  \"clean\": {\"combined_auc\": %.4f, \"wall_ms\": %.1f},\n"
               "  \"gates\": {\n"
               "    \"clean_scenario_auc_within_slack\": %s,\n"
               "    \"zero_day_heldout_recall_positive\": %s,\n"
               "    \"evasion_recall_above_floor\": %s\n"
               "  },\n"
               "  \"sweep\": [\n",
               kDefaultMimicry, kEvasionRecallFloor, kCleanAucSlack,
               clean.combined_auc, clean.wall_ms, clean_auc_ok ? "true" : "false",
               zero_day_ok ? "true" : "false", evasion_ok ? "true" : "false");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    print_point_json(out, sweep[i], i + 1 == sweep.size());
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path);

  bool failed = false;
  if (!clean_auc_ok) {
    std::fprintf(stderr,
                 "micro_adversarial: FAIL: clean-archetype AUC %.4f regressed below clean "
                 "baseline %.4f - %.2f\n",
                 default_point != nullptr ? default_point->clean_pool_auc : 0.0,
                 clean.combined_auc, kCleanAucSlack);
    failed = true;
  }
  if (!zero_day_ok) {
    std::fprintf(stderr,
                 "micro_adversarial: FAIL: zero-day held-out recall is zero (%zu/%zu after "
                 "activation)\n",
                 default_point != nullptr ? default_point->zero_day_detected : 0,
                 default_point != nullptr ? default_point->zero_day_known : 0);
    failed = true;
  }
  if (!evasion_ok) {
    std::fprintf(stderr,
                 "micro_adversarial: FAIL: evasion recall %s at mimicry %.2f is below floor "
                 "%.2f\n",
                 evasion_default != nullptr ? std::to_string(evasion_default->recall).c_str()
                                            : "n/a",
                 kDefaultMimicry, kEvasionRecallFloor);
    failed = true;
  }
  return failed ? 1 : 0;
}
