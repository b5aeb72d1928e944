// Microbenchmarks: SVM training, decision-tree training, k-means, ROC, and
// the report stage's two ML layers at the `run` shape (X-Means and SVM
// cross-validation).
#include <benchmark/benchmark.h>

#include "ml/decision_tree.hpp"
#include "ml/kmeans.hpp"
#include "ml/metrics.hpp"
#include "ml/svm.hpp"
#include "ml/xmeans.hpp"
#include "util/rng.hpp"

namespace {

using namespace dnsembed;

ml::Dataset blobs(std::size_t per_class, std::size_t dims, std::uint64_t seed) {
  util::Rng rng{seed};
  ml::Dataset data;
  data.x = ml::Matrix{per_class * 2, dims};
  data.y.resize(per_class * 2);
  for (std::size_t i = 0; i < per_class * 2; ++i) {
    const int label = i < per_class ? 0 : 1;
    for (std::size_t d = 0; d < dims; ++d) {
      data.x.at(i, d) = rng.normal() + (label == 1 && d == 0 ? 2.5 : 0.0);
    }
    data.y[i] = label;
  }
  return data;
}

void BM_SvmTrain(benchmark::State& state) {
  const auto data = blobs(static_cast<std::size_t>(state.range(0)), 32, 1);
  ml::SvmConfig config;
  config.c = 1.0;
  config.gamma = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::train_svm(data, config));
  }
}
BENCHMARK(BM_SvmTrain)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_TreeTrain(benchmark::State& state) {
  const auto data = blobs(static_cast<std::size_t>(state.range(0)), 15, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::train_tree(data, ml::TreeConfig{}));
  }
}
BENCHMARK(BM_TreeTrain)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_KMeans(benchmark::State& state) {
  const auto data = blobs(static_cast<std::size_t>(state.range(0)), 32, 3);
  ml::KMeansConfig config;
  config.k = 16;
  config.restarts = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kmeans(data.x, config));
  }
}
BENCHMARK(BM_KMeans)->Arg(1000)->Unit(benchmark::kMillisecond);

// `run` clusters ~1.5k combined embeddings (three 24-dimensional channels)
// with X-Means at k in [8, 64]; here 40 families of noisy rows stand in.
void BM_XMeans(benchmark::State& state) {
  constexpr std::size_t kRows = 1500;
  constexpr std::size_t kDims = 72;
  constexpr std::size_t kFamilies = 40;
  util::Rng rng{5};
  ml::Matrix centers{kFamilies, kDims};
  for (std::size_t c = 0; c < kFamilies; ++c) {
    for (double& v : centers.row(c)) v = rng.normal() * 0.15;
  }
  ml::Matrix x{kRows, kDims};
  for (std::size_t i = 0; i < kRows; ++i) {
    const auto center = centers.row(i % kFamilies);
    auto row = x.row(i);
    for (std::size_t d = 0; d < kDims; ++d) row[d] = center[d] + rng.normal() * 0.05;
  }
  ml::XMeansConfig config;
  config.k_min = 8;
  config.k_max = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::xmeans(x, config));
  }
}
BENCHMARK(BM_XMeans)->Unit(benchmark::kMillisecond);

// `run` scores each channel with 5-fold cross-validation of the paper's RBF
// SVM over ~1k labeled rows: 24 dimensions per channel, 72 combined.
void BM_SvmCrossValidate(benchmark::State& state) {
  const auto data = blobs(500, static_cast<std::size_t>(state.range(0)), 6);
  const ml::SvmConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::cross_validate_svm(data, 5, 1, config));
  }
}
BENCHMARK(BM_SvmCrossValidate)->Arg(24)->Arg(72)->Unit(benchmark::kMillisecond);

void BM_RocAuc(benchmark::State& state) {
  util::Rng rng{4};
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> scores(n);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = rng.bernoulli(0.3) ? 1 : 0;
    scores[i] = rng.normal() + labels[i];
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::roc_auc(scores, labels));
  }
}
BENCHMARK(BM_RocAuc)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
