// Tests for Platt scaling.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/calibration.hpp"
#include "ml/metrics.hpp"
#include "util/rng.hpp"

namespace dnsembed::ml {
namespace {

TEST(Platt, MonotoneAndBounded) {
  util::Rng rng{1};
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 2000; ++i) {
    const int y = rng.bernoulli(0.4) ? 1 : 0;
    scores.push_back(rng.normal() + (y == 1 ? 2.0 : -2.0));
    labels.push_back(y);
  }
  PlattScaler scaler;
  scaler.fit(scores, labels);
  ASSERT_TRUE(scaler.fitted());
  double prev = 0.0;
  for (double s = -5.0; s <= 5.0; s += 0.5) {
    const double p = scaler.probability(s);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_GE(p, prev);  // monotone in the score
    prev = p;
  }
  EXPECT_LT(scaler.probability(-4.0), 0.1);
  EXPECT_GT(scaler.probability(4.0), 0.9);
}

TEST(Platt, CalibrationIsRoughlyAccurate) {
  // Scores from a known logistic model: p(y=1|s) = sigmoid(1.5 s).
  util::Rng rng{3};
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 8000; ++i) {
    const double s = rng.uniform(-3.0, 3.0);
    const double p = 1.0 / (1.0 + std::exp(-1.5 * s));
    scores.push_back(s);
    labels.push_back(rng.bernoulli(p) ? 1 : 0);
  }
  PlattScaler scaler;
  scaler.fit(scores, labels);
  for (double s = -2.0; s <= 2.0; s += 1.0) {
    const double expected = 1.0 / (1.0 + std::exp(-1.5 * s));
    EXPECT_NEAR(scaler.probability(s), expected, 0.08) << "at score " << s;
  }
}

TEST(Platt, CalibrationPreservesRankingAuc) {
  util::Rng rng{5};
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 1000; ++i) {
    const int y = rng.bernoulli(0.3) ? 1 : 0;
    scores.push_back(rng.normal() * 1.5 + (y == 1 ? 1.0 : -1.0));
    labels.push_back(y);
  }
  PlattScaler scaler;
  scaler.fit(scores, labels);
  std::vector<double> probs;
  for (const double s : scores) probs.push_back(scaler.probability(s));
  EXPECT_NEAR(roc_auc(probs, labels), roc_auc(scores, labels), 1e-9);
}

TEST(Platt, ErrorsOnMisuse) {
  PlattScaler scaler;
  EXPECT_THROW(scaler.probability(0.0), std::logic_error);
  EXPECT_THROW(scaler.fit({1.0}, {1, 0}), std::invalid_argument);
  EXPECT_THROW(scaler.fit({1.0, 2.0}, {1, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace dnsembed::ml
