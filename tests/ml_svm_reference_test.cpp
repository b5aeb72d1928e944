// SMO against a plain reference. The reference below is the solver as a
// plain loop: the whole kernel matrix up front, the working-set scan and
// the gradient update written out element by element, the bias from the
// free support vectors. train_svm (coefficients, bias, iterations, support
// vectors) and cross_validate_svm (every out-of-fold score) must reproduce
// it bit for bit on every SIMD rung. Integer grids with duplicate rows put
// exact ties in -y * gradient, so the first-index rule of the scan decides.
// Labeled "simd" so ci_check gates it with the kernel parity tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ml/crossval.hpp"
#include "ml/dataset.hpp"
#include "ml/svm.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace dnsembed::ml {
namespace {

using util::simd::Level;

/// A solved dual as positions into the training rows.
struct ReferenceModel {
  std::vector<std::size_t> support;  // training positions with alpha > 1e-12
  std::vector<double> coef;          // alpha * y of each, in that order
  double bias = 0.0;
  std::size_t iterations = 0;
};

/// K(a, b) with the kernel cache's arithmetic: the rows kernel gives the
/// pairwise squared_l2's bits, then exp(-gamma * d); or the dot product.
double reference_kernel(const SvmConfig& config, std::span<const double> a,
                        std::span<const double> b) {
  if (config.kernel == SvmKernel::kRbf) {
    return std::exp(-config.gamma * util::simd::squared_l2(a, b));
  }
  return util::simd::dot(a, b);
}

ReferenceModel reference_smo(const Matrix& x, const std::vector<std::size_t>& rows,
                             const std::vector<int>& labels, const SvmConfig& config) {
  const std::size_t n = rows.size();
  std::vector<double> kernel(n * n);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t s = 0; s < n; ++s) {
      kernel[t * n + s] = reference_kernel(config, x.row(rows[t]), x.row(rows[s]));
    }
  }
  std::vector<double> y(n);
  std::vector<double> cap(n);
  for (std::size_t t = 0; t < n; ++t) {
    y[t] = labels[rows[t]] == 1 ? 1.0 : -1.0;
    cap[t] = config.c * config.class_weight[labels[rows[t]]];
  }
  std::vector<double> alpha(n, 0.0);
  std::vector<double> gradient(n, -1.0);
  const std::size_t max_iter = config.max_iterations != 0
                                   ? config.max_iterations
                                   : std::max<std::size_t>(10'000'000, 100 * n);
  std::size_t iter = 0;
  for (; iter < max_iter; ++iter) {
    double max_up = -std::numeric_limits<double>::infinity();
    double min_low = std::numeric_limits<double>::infinity();
    std::size_t i = n;
    std::size_t j = n;
    for (std::size_t t = 0; t < n; ++t) {
      const double value = -y[t] * gradient[t];
      const bool in_up = (y[t] > 0 && alpha[t] < cap[t]) || (y[t] < 0 && alpha[t] > 0);
      const bool in_low = (y[t] > 0 && alpha[t] > 0) || (y[t] < 0 && alpha[t] < cap[t]);
      if (in_up && value > max_up) {
        max_up = value;
        i = t;
      }
      if (in_low && value < min_low) {
        min_low = value;
        j = t;
      }
    }
    if (i == n || j == n || max_up - min_low < config.tolerance) break;

    const double* const ki = kernel.data() + i * n;
    const double* const kj = kernel.data() + j * n;
    double eta = ki[i] + kj[j] - 2.0 * ki[j];
    if (eta <= 0.0) eta = 1e-12;
    const double delta = (max_up - min_low) / eta;
    double step = delta;
    step = std::min(step, y[i] > 0 ? cap[i] - alpha[i] : alpha[i]);
    step = std::min(step, y[j] > 0 ? alpha[j] : cap[j] - alpha[j]);
    alpha[i] += y[i] * step;
    alpha[j] -= y[j] * step;
    for (std::size_t t = 0; t < n; ++t) gradient[t] += step * y[t] * (ki[t] - kj[t]);
  }

  ReferenceModel out;
  out.iterations = iter;
  double bias_sum = 0.0;
  std::size_t bias_count = 0;
  double up_bound = std::numeric_limits<double>::infinity();
  double low_bound = -std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < n; ++t) {
    const double value = -y[t] * gradient[t];
    if (alpha[t] > 0.0 && alpha[t] < cap[t]) {
      bias_sum += value;
      ++bias_count;
    }
    const bool in_up = (y[t] > 0 && alpha[t] < cap[t]) || (y[t] < 0 && alpha[t] > 0);
    const bool in_low = (y[t] > 0 && alpha[t] > 0) || (y[t] < 0 && alpha[t] < cap[t]);
    if (in_up) up_bound = std::min(up_bound, value);
    if (in_low) low_bound = std::max(low_bound, value);
  }
  if (bias_count > 0) {
    out.bias = bias_sum / static_cast<double>(bias_count);
  } else if (std::isfinite(up_bound) && std::isfinite(low_bound)) {
    out.bias = (up_bound + low_bound) / 2.0;
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (alpha[t] > 1e-12) {
      out.support.push_back(t);
      out.coef.push_back(alpha[t] * y[t]);
    }
  }
  return out;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// The coefficients and support vectors of a model, read back from its
/// text form (17 significant digits restore each double exactly).
std::pair<std::vector<double>, std::vector<std::vector<double>>> saved_terms(
    const SvmModel& model) {
  std::stringstream text;
  model.save(text);
  std::string line;
  std::getline(text, line);  // magic
  std::getline(text, line);  // kernel, C, gamma, bias
  std::size_t count = 0;
  std::size_t dim = 0;
  text >> count >> dim;
  std::vector<double> coef(count);
  std::vector<std::vector<double>> vectors(count, std::vector<double>(dim));
  for (std::size_t s = 0; s < count; ++s) {
    text >> coef[s];
    for (double& v : vectors[s]) text >> v;
  }
  return {std::move(coef), std::move(vectors)};
}

/// Two overlapping Gaussian classes in `dim` dimensions, 30% malicious.
Dataset random_blobs(std::size_t rows, std::size_t dim, std::uint64_t seed) {
  util::Rng rng{seed};
  Dataset data;
  data.x = Matrix{rows, dim};
  data.y.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    data.y[i] = rng.bernoulli(0.3) ? 1 : 0;
    for (double& v : data.x.row(i)) v = (data.y[i] == 1 ? 0.8 : 0.0) + rng.normal();
  }
  data.y[0] = 0;
  data.y[1] = 1;
  return data;
}

/// Points on a {0, 1, 2}^dim grid, so rows repeat (some with both labels)
/// and linear kernel values are small integers: -y * gradient ties exactly.
Dataset integer_grid(std::size_t rows, std::size_t dim, std::uint64_t seed) {
  util::Rng rng{seed};
  Dataset data;
  data.x = Matrix{rows, dim};
  data.y.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    double total = 0.0;
    for (double& v : data.x.row(i)) {
      v = static_cast<double>(rng.uniform_index(3));
      total += v;
    }
    data.y[i] = (total > static_cast<double>(dim)) != rng.bernoulli(0.15) ? 1 : 0;
  }
  data.y[0] = 0;
  data.y[1] = 1;
  return data;
}

struct SvmCase {
  std::string name;
  Dataset data;
};

std::vector<SvmCase> svm_cases() {
  std::vector<SvmCase> cases;
  cases.push_back({"blobs", random_blobs(140, 6, 71)});
  cases.push_back({"blobs24", random_blobs(260, 24, 73)});
  cases.push_back({"grid3", integer_grid(120, 3, 79)});
  cases.push_back({"grid2", integer_grid(90, 2, 83)});
  return cases;
}

std::vector<std::pair<std::string, SvmConfig>> svm_configs() {
  SvmConfig rbf;
  rbf.c = 1.0;
  rbf.gamma = 0.3;
  SvmConfig linear = rbf;
  linear.kernel = SvmKernel::kLinear;
  linear.c = 0.5;
  SvmConfig weighted = rbf;
  weighted.class_weight[1] = 2.5;
  SvmConfig weighted_linear = linear;
  weighted_linear.class_weight[0] = 0.4;
  SvmConfig tiny_cache = rbf;
  tiny_cache.cache_rows = 2;
  SvmConfig capped = linear;
  capped.max_iterations = 7;
  return {{"rbf", rbf},           {"linear", linear},
          {"weighted", weighted}, {"weighted_linear", weighted_linear},
          {"cache_rows=2", tiny_cache}, {"max_iterations=7", capped},
          {"paper", SvmConfig{}}};
}

TEST(SmoReference, TrainSvmMatchesThePlainLoopBitForBit) {
  const Level original = util::simd::active_level();
  for (const Level level : {Level::kScalar, Level::kAvx2}) {
    if (!util::simd::level_supported(level)) continue;
    util::simd::force_level(level);
    for (const auto& c : svm_cases()) {
      std::vector<std::size_t> rows(c.data.size());
      for (std::size_t t = 0; t < rows.size(); ++t) rows[t] = t;
      for (const auto& [name, config] : svm_configs()) {
        const std::string where =
            std::string{util::simd::level_name(level)} + " " + c.name + " " + name;
        const ReferenceModel want = reference_smo(c.data.x, rows, c.data.y, config);
        const SvmModel got = train_svm(c.data, config);
        EXPECT_EQ(got.iterations(), want.iterations) << where;
        EXPECT_TRUE(same_bits(got.bias(), want.bias))
            << where << " bias " << got.bias() << " vs " << want.bias;
        ASSERT_EQ(got.support_vector_count(), want.support.size()) << where;
        const auto [coef, vectors] = saved_terms(got);
        for (std::size_t s = 0; s < want.support.size(); ++s) {
          EXPECT_TRUE(same_bits(coef[s], want.coef[s])) << where << " coef " << s;
          const auto row = c.data.x.row(want.support[s]);
          EXPECT_TRUE(std::equal(row.begin(), row.end(), vectors[s].begin(), same_bits))
              << where << " support vector " << s;
        }
        if (config.max_iterations == 0) {
          EXPECT_GT(want.iterations, 10u) << where;
        }
      }
    }
  }
  util::simd::force_level(original);
}

TEST(SmoReference, CrossValidateSvmMatchesThePlainLoopBitForBit) {
  const Level original = util::simd::active_level();
  for (const Level level : {Level::kScalar, Level::kAvx2}) {
    if (!util::simd::level_supported(level)) continue;
    util::simd::force_level(level);
    for (const auto& c : svm_cases()) {
      for (const auto& [name, config] : svm_configs()) {
        for (const std::size_t k : {std::size_t{3}, std::size_t{5}}) {
          const std::string where = std::string{util::simd::level_name(level)} + " " +
                                    c.name + " " + name + " k=" + std::to_string(k);
          std::vector<double> want(c.data.size(), 0.0);
          for_each_fold(c.data.y, k, 23, [&](const auto& train_idx, const auto& test_idx) {
            const ReferenceModel model = reference_smo(c.data.x, train_idx, c.data.y, config);
            for (const std::size_t row : test_idx) {
              double score = model.bias;
              for (std::size_t s = 0; s < model.support.size(); ++s) {
                score += model.coef[s] * reference_kernel(config,
                                                          c.data.x.row(train_idx[model.support[s]]),
                                                          c.data.x.row(row));
              }
              want[row] = score;
            }
          });
          const CrossValScores got = cross_validate_svm(c.data, k, 23, config);
          ASSERT_EQ(got.scores.size(), want.size()) << where;
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_TRUE(same_bits(got.scores[i], want[i]))
                << where << " row " << i << ": " << got.scores[i] << " vs " << want[i];
          }
        }
      }
    }
  }
  util::simd::force_level(original);
}

}  // namespace
}  // namespace dnsembed::ml
