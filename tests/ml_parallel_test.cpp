// Tests that the threaded SVM paths (parallel kernel-row fill during SMO
// training, parallel batch scoring, the fold-shared kernel cache of
// cross_validate_svm) are bit-identical to the serial paths for every
// thread count. Labeled "concurrency" so they run under the TSan build
// (-DDNSEMBED_TSAN=ON).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "ml/crossval.hpp"
#include "ml/dataset.hpp"
#include "ml/svm.hpp"
#include "util/rng.hpp"

namespace dnsembed::ml {
namespace {

// Two overlapping 4-D Gaussian blobs: `benign` rows, then `malicious` rows.
Dataset blobs(std::size_t benign, std::size_t malicious, std::uint64_t seed) {
  util::Rng rng{seed};
  Dataset data;
  data.x = Matrix{benign + malicious, 4};
  data.y.resize(benign + malicious);
  for (std::size_t i = 0; i < benign + malicious; ++i) {
    const int label = i < benign ? 0 : 1;
    for (std::size_t j = 0; j < 4; ++j) {
      data.x.at(i, j) = (label == 0 ? 0.0 : 1.5) + rng.normal();
    }
    data.y[i] = label;
  }
  return data;
}

Dataset blobs(std::size_t per_class, std::uint64_t seed) {
  return blobs(per_class, per_class, seed);
}

TEST(SvmParallel, TrainingIsIdenticalAcrossThreadCounts) {
  const Dataset train = blobs(60, 42);
  SvmConfig serial;
  serial.threads = 1;
  // Tiny cache forces evictions, so the parallel fill path runs repeatedly.
  serial.cache_rows = 4;
  const SvmModel base = train_svm(train, serial);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    SvmConfig config = serial;
    config.threads = threads;
    const SvmModel model = train_svm(train, config);
    EXPECT_EQ(model.support_vector_count(), base.support_vector_count()) << threads;
    EXPECT_DOUBLE_EQ(model.bias(), base.bias()) << threads;
    EXPECT_EQ(model.iterations(), base.iterations()) << threads;
  }
}

TEST(SvmParallel, BatchScoringIsIdenticalAcrossThreadCounts) {
  const Dataset train = blobs(50, 7);
  const Dataset test = blobs(40, 8);

  SvmConfig serial;
  serial.threads = 1;
  const std::vector<double> base = train_svm(train, serial).decision_values(test.x);

  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
    SvmConfig config = serial;
    config.threads = threads;
    const std::vector<double> scores = train_svm(train, config).decision_values(test.x);
    ASSERT_EQ(scores.size(), base.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      ASSERT_DOUBLE_EQ(scores[i], base[i]) << "threads=" << threads << " row " << i;
    }
  }
}

TEST(SvmParallel, ThreadsExceedingRowsIsSafe) {
  const Dataset train = blobs(3, 5);  // 6 rows, fewer than requested threads
  SvmConfig config;
  config.threads = 16;
  const SvmModel model = train_svm(train, config);
  const auto scores = model.decision_values(train.x);
  EXPECT_EQ(scores.size(), train.size());
  // Scoring a single row through the batch path works too.
  const auto one = model.decision_values(train.x.select_rows(std::vector<std::size_t>{0}));
  EXPECT_DOUBLE_EQ(one[0], scores[0]);
}

// cross_validate_svm shares one kernel cache across the folds; every
// out-of-fold score must keep the bits of the per-fold path it replaces.
TEST(SvmCrossValidate, MatchesPerFoldTrainingBitForBit) {
  // 30/70 classes, as in the labeled set.
  const Dataset data = blobs(70, 30, 11);

  SvmConfig rbf;
  rbf.c = 1.0;
  rbf.gamma = 0.3;
  SvmConfig linear = rbf;
  linear.kernel = SvmKernel::kLinear;
  SvmConfig weighted = rbf;
  weighted.class_weight[1] = 2.5;
  SvmConfig tiny_cache = rbf;
  tiny_cache.cache_rows = 2;
  SvmConfig paper;  // C = 0.09, gamma = 0.06

  const std::pair<const char*, SvmConfig> configs[] = {
      {"rbf", rbf}, {"linear", linear}, {"weighted", weighted},
      {"cache_rows=2", tiny_cache}, {"paper", paper}};
  for (const auto& [name, base] : configs) {
    for (const std::size_t k : {std::size_t{2}, std::size_t{5}, std::size_t{10}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SvmConfig config = base;
        config.threads = threads;
        const auto want = cross_validate(
            data, k, 19, [&config](const Dataset& train, const Dataset& test) {
              return train_svm(train, config).decision_values(test.x);
            });
        const auto got = cross_validate_svm(data, k, 19, config);
        const std::string where = std::string{name} + " k=" + std::to_string(k) +
                                  " threads=" + std::to_string(threads);
        ASSERT_EQ(got.scores.size(), want.scores.size()) << where;
        EXPECT_EQ(got.labels, want.labels) << where;
        for (std::size_t i = 0; i < got.scores.size(); ++i) {
          EXPECT_EQ(std::memcmp(&got.scores[i], &want.scores[i], sizeof(double)), 0)
              << where << " row " << i << ": " << got.scores[i] << " vs " << want.scores[i];
        }
      }
    }
  }
}

TEST(SvmCrossValidate, RejectsWhatTrainingRejects) {
  const Dataset data = blobs(10, 3);
  SvmConfig bad_c;
  bad_c.c = 0.0;
  EXPECT_THROW(cross_validate_svm(data, 2, 1, bad_c), std::invalid_argument);
  EXPECT_THROW(cross_validate_svm(data, 1, 1, SvmConfig{}), std::invalid_argument);
  // One positive row: the fold that holds it out trains on one class.
  Dataset lonely = data;
  for (std::size_t i = 10; i < 19; ++i) lonely.y[i] = 0;
  EXPECT_THROW(cross_validate_svm(lonely, 2, 1, SvmConfig{}), std::invalid_argument);
}

}  // namespace
}  // namespace dnsembed::ml
