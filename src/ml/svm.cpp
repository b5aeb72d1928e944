#include "ml/svm.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <memory>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/artifact.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace dnsembed::ml {

namespace {

double kernel_value(const SvmConfig& config, std::span<const double> a,
                    std::span<const double> b) noexcept {
  switch (config.kernel) {
    case SvmKernel::kRbf:
      return std::exp(-config.gamma * util::simd::squared_l2(a, b));
    case SvmKernel::kLinear:
      return util::simd::dot(a, b);
  }
  return 0.0;
}

/// LRU cache of kernel matrix rows: K(i, *) over every row of x. Row fill
/// is O(n · dim) per miss — the training hot path — so misses are filled
/// in parallel when a pool is supplied (each column independent, so the
/// result is identical to the serial fill). An RBF row takes its squared
/// distances from one util::simd::squared_l2_rows call per chunk, each
/// bit-identical to the pairwise call kernel_value makes.
///
/// Storage is ONE contiguous arena of capacity x n doubles plus two flat
/// index arrays (row -> slot, slot -> row). The previous
/// unordered_map<row, vector<double>> paid an allocation per miss and a
/// hash probe plus pointer chase per hit; here a hit is a single array
/// load and a miss overwrites its slot in place, so the SMO inner loop
/// only ever touches flat memory. Eviction scans the slot ticks for the
/// stalest row — O(capacity) per miss, noise next to the O(n · dim) fill.
class KernelCache {
 public:
  KernelCache(const Matrix& x, const SvmConfig& config, util::ThreadPool* pool = nullptr)
      : x_{x}, config_{config}, pool_{pool},
        capacity_{std::min(std::max<std::size_t>(2, config.cache_rows),
                           std::max<std::size_t>(x.rows(), 2))},
        arena_{std::make_unique_for_overwrite<double[]>(capacity_ * x.rows())},
        slot_row_(capacity_, kNone),
        slot_tick_(capacity_, 0),
        row_slot_(x.rows(), kNone) {}

  std::span<const double> row(std::size_t i) {
    // Kernel-fill hot path: one relaxed add per row event (hit or fill),
    // never per kernel value.
    static obs::Counter& hits = obs::metrics().counter("ml.svm.kernel_cache_hits");
    static obs::Counter& fills = obs::metrics().counter("ml.svm.kernel_rows_filled");
    const std::size_t n = x_.rows();
    if (row_slot_[i] != kNone) {
      hits.add(1);
      const std::size_t slot = row_slot_[i];
      slot_tick_[slot] = ++tick_;
      return {arena_.get() + slot * n, n};
    }
    fills.add(1);
    // Victim: first free slot, else the least recently used one.
    std::size_t slot = 0;
    std::uint64_t stalest = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t s = 0; s < capacity_; ++s) {
      if (slot_row_[s] == kNone) {
        slot = s;
        break;
      }
      if (slot_tick_[s] < stalest) {
        stalest = slot_tick_[s];
        slot = s;
      }
    }
    if (slot_row_[slot] != kNone) row_slot_[slot_row_[slot]] = kNone;
    double* const dst = arena_.get() + slot * n;
    const auto xi = x_.row(i);
    const std::size_t dim = x_.cols();
    const auto fill = [&](std::size_t lo, std::size_t hi, std::size_t) {
      if (config_.kernel == SvmKernel::kRbf) {
        util::simd::squared_l2_rows(xi.data(), x_.data() + lo * dim, hi - lo, dim, dst + lo);
        for (std::size_t j = lo; j < hi; ++j) dst[j] = std::exp(-config_.gamma * dst[j]);
      } else {
        for (std::size_t j = lo; j < hi; ++j) dst[j] = kernel_value(config_, xi, x_.row(j));
      }
    };
    if (pool_ != nullptr) {
      pool_->parallel_for(0, n, fill);
    } else {
      fill(0, n, 0);
    }
    slot_row_[slot] = i;
    row_slot_[i] = slot;
    slot_tick_[slot] = ++tick_;
    return {dst, n};
  }

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  const Matrix& x_;
  const SvmConfig& config_;
  util::ThreadPool* pool_;
  std::size_t capacity_;
  std::unique_ptr<double[]> arena_;      // capacity_ rows of n kernel values, unset until filled
  std::vector<std::size_t> slot_row_;    // slot -> cached row id (kNone = free)
  std::vector<std::uint64_t> slot_tick_; // slot -> last-use tick
  std::vector<std::size_t> row_slot_;    // row id -> slot (kNone = not cached)
  std::uint64_t tick_ = 0;
};

std::unique_ptr<util::ThreadPool> fill_pool(const SvmConfig& config, std::size_t rows) {
  const std::size_t threads = std::min(util::resolve_threads(config.threads), rows);
  if (threads <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(threads);
}

/// A solved dual: one entry per training row.
struct SmoSolution {
  std::vector<double> alpha;
  std::vector<double> y;  // signed labels
  double bias = 0.0;
  std::size_t iterations = 0;

  bool is_support_vector(std::size_t t) const noexcept { return alpha[t] > 1e-12; }
};

/// SMO over the training rows `rows` of the cache's matrix (labels[r] is
/// row r's label): K(t, s) = cache.row(rows[t])[rows[s]].
SmoSolution solve_smo(KernelCache& cache, const std::vector<std::size_t>& rows,
                      const std::vector<int>& labels, const SvmConfig& config) {
  OBS_SPAN("ml.svm.train");
  const std::size_t n = rows.size();
  if (n < 2) throw std::invalid_argument{"train_svm: need at least 2 rows"};
  if (config.c <= 0.0) throw std::invalid_argument{"train_svm: C must be positive"};
  if (config.kernel == SvmKernel::kRbf && config.gamma <= 0.0) {
    throw std::invalid_argument{"train_svm: gamma must be positive"};
  }
  bool has_pos = false;
  bool has_neg = false;
  for (const std::size_t r : rows) (labels[r] == 1 ? has_pos : has_neg) = true;
  if (!has_pos || !has_neg) {
    throw std::invalid_argument{"train_svm: both classes required"};
  }

  // Signed labels and per-class box bounds.
  SmoSolution out;
  std::vector<double>& y = out.y;
  y.resize(n);
  std::vector<double> cap(n);
  for (std::size_t t = 0; t < n; ++t) {
    y[t] = labels[rows[t]] == 1 ? 1.0 : -1.0;
    cap[t] = config.c * config.class_weight[labels[rows[t]]];
  }

  // Dual problem: min 1/2 a^T Q a - e^T a, 0 <= a_i <= cap_i, y^T a = 0,
  // with Q_ij = y_i y_j K_ij. gradient[i] = (Q a)_i - 1.
  std::vector<double>& alpha = out.alpha;
  alpha.assign(n, 0.0);
  std::vector<double> gradient(n, -1.0);

  const std::size_t max_iter = config.max_iterations != 0
                                   ? config.max_iterations
                                   : std::max<std::size_t>(10'000'000, 100 * n);
  std::size_t iter = 0;
  for (; iter < max_iter; ++iter) {
    // Maximal violating pair (Keerthi et al. / libsvm WSS1):
    //   i = argmax_{t in I_up}   -y_t * grad_t
    //   j = argmin_{t in I_low}  -y_t * grad_t
    // each the first index of its extremum.
    const auto [i, j, max_up, min_low] =
        util::simd::max_violating_pair(y.data(), gradient.data(), alpha.data(), cap.data(), n);
    if (i == n || j == n || max_up - min_low < config.tolerance) break;

    const double* const ki = cache.row(rows[i]).data();
    const double* const kj = cache.row(rows[j]).data();
    double eta = ki[rows[i]] + kj[rows[j]] - 2.0 * ki[rows[j]];
    if (eta <= 0.0) eta = 1e-12;

    // Unconstrained step along the pair, then clip to the box.
    const double delta = (max_up - min_low) / eta;
    double step = delta;
    if (y[i] > 0) {
      step = std::min(step, cap[i] - alpha[i]);
    } else {
      step = std::min(step, alpha[i]);
    }
    if (y[j] > 0) {
      step = std::min(step, alpha[j]);
    } else {
      step = std::min(step, cap[j] - alpha[j]);
    }
    alpha[i] += y[i] * step;
    alpha[j] -= y[j] * step;

    // Delta alpha_i = y_i * step and delta alpha_j = -y_j * step, so
    // grad_t += Q_ti dA_i + Q_tj dA_j = y_t * step * (K_ti - K_tj).
    util::simd::smo_gradient_step(step, y.data(), ki, kj, rows.data(), gradient.data(), n);
  }
  out.iterations = iter;

  // Bias from free support vectors (fallback: midpoint of the bounds).
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
    if (util::simd::in_smo_up(y[t], alpha[t], cap[t])) up_bound = std::min(up_bound, value);
    if (util::simd::in_smo_low(y[t], alpha[t], cap[t])) low_bound = std::max(low_bound, value);
  }
  if (bias_count > 0) {
    out.bias = bias_sum / static_cast<double>(bias_count);
  } else if (std::isfinite(up_bound) && std::isfinite(low_bound)) {
    out.bias = (up_bound + low_bound) / 2.0;
  }
  return out;
}

}  // namespace

SvmModel train_svm(const Dataset& train, const SvmConfig& config) {
  train.validate();
  std::vector<std::size_t> rows(train.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  const auto pool = fill_pool(config, rows.size());
  KernelCache cache{train.x, config, pool.get()};
  const SmoSolution solution = solve_smo(cache, rows, train.y, config);

  // Collect support vectors.
  std::vector<std::size_t> sv_idx;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (solution.is_support_vector(t)) sv_idx.push_back(t);
  }
  SvmModel model;
  model.config_ = config;
  model.bias_ = solution.bias;
  model.iterations_ = solution.iterations;
  model.support_vectors_ = train.x.select_rows(sv_idx);
  model.coef_.reserve(sv_idx.size());
  for (const std::size_t t : sv_idx) model.coef_.push_back(solution.alpha[t] * solution.y[t]);
  return model;
}

CrossValScores cross_validate_svm(const Dataset& data, std::size_t k, std::uint64_t seed,
                                  const SvmConfig& config) {
  static obs::Counter& scored = obs::metrics().counter("ml.svm.scored_rows");
  data.validate();
  CrossValScores out;
  out.scores.assign(data.size(), 0.0);
  out.labels = data.y;
  const auto pool = fill_pool(config, data.size());
  KernelCache cache{data.x, config, pool.get()};
  for_each_fold(data.y, k, seed, [&](const auto& train_idx, const auto& test_idx) {
    const SmoSolution solution = solve_smo(cache, train_idx, data.y, config);
    // bias + sum of coef_s * K(sv_s, row) in support-vector order: the float
    // operations of SvmModel::decision_value, one cached row per vector.
    std::vector<double> fold_scores(test_idx.size(), solution.bias);
    for (std::size_t t = 0; t < train_idx.size(); ++t) {
      if (!solution.is_support_vector(t)) continue;
      const double coef = solution.alpha[t] * solution.y[t];
      const double* const k_row = cache.row(train_idx[t]).data();
      for (std::size_t j = 0; j < test_idx.size(); ++j) {
        fold_scores[j] += coef * k_row[test_idx[j]];
      }
    }
    for (std::size_t j = 0; j < test_idx.size(); ++j) out.scores[test_idx[j]] = fold_scores[j];
    scored.add(test_idx.size());
  });
  return out;
}

double SvmModel::decision_value(std::span<const double> x) const {
  double sum = bias_;
  for (std::size_t s = 0; s < coef_.size(); ++s) {
    sum += coef_[s] * kernel_value(config_, support_vectors_.row(s), x);
  }
  return sum;
}

int SvmModel::predict(std::span<const double> x, double threshold) const {
  return decision_value(x) >= threshold ? 1 : 0;
}

void SvmModel::save(std::ostream& out) const {
  out.precision(17);
  out << "dnsembed-svm 1\n";
  out << (config_.kernel == SvmKernel::kRbf ? "rbf" : "linear") << ' ' << config_.c << ' '
      << config_.gamma << ' ' << bias_ << '\n';
  out << coef_.size() << ' ' << support_vectors_.cols() << '\n';
  for (std::size_t s = 0; s < coef_.size(); ++s) {
    out << coef_[s];
    for (const double v : support_vectors_.row(s)) out << ' ' << v;
    out << '\n';
  }
}

SvmModel SvmModel::load(std::istream& in) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "dnsembed-svm" || version != 1) {
    throw std::runtime_error{"SvmModel::load: bad header"};
  }
  SvmModel model;
  std::string kernel;
  if (!(in >> kernel >> model.config_.c >> model.config_.gamma >> model.bias_)) {
    throw std::runtime_error{"SvmModel::load: bad parameter line"};
  }
  if (kernel == "rbf") {
    model.config_.kernel = SvmKernel::kRbf;
  } else if (kernel == "linear") {
    model.config_.kernel = SvmKernel::kLinear;
  } else {
    throw std::runtime_error{"SvmModel::load: unknown kernel " + kernel};
  }
  std::size_t count = 0;
  std::size_t dim = 0;
  if (!(in >> count >> dim) || dim == 0) {
    throw std::runtime_error{"SvmModel::load: bad shape line"};
  }
  model.coef_.resize(count);
  model.support_vectors_ = Matrix{count, dim};
  for (std::size_t s = 0; s < count; ++s) {
    if (!(in >> model.coef_[s])) throw std::runtime_error{"SvmModel::load: truncated"};
    for (double& v : model.support_vectors_.row(s)) {
      if (!(in >> v)) throw std::runtime_error{"SvmModel::load: truncated"};
    }
  }
  return model;
}

void SvmModel::save_file(const std::string& path) const {
  std::ostringstream payload;
  save(payload);
  util::save_artifact(path, "svm-model", payload.str());
}

SvmModel SvmModel::load_file(const std::string& path) {
  std::istringstream payload{util::load_artifact(path, "svm-model")};
  try {
    return load(payload);
  } catch (const std::runtime_error& e) {
    util::fsio::note_corrupt_detected();
    throw util::CorruptArtifact{path, e.what()};
  }
}

std::vector<double> SvmModel::decision_values(const Matrix& x) const {
  OBS_SPAN("ml.svm.batch_score");
  static obs::Counter& scored = obs::metrics().counter("ml.svm.scored_rows");
  scored.add(x.rows());
  std::vector<double> out(x.rows());
  const std::size_t threads = std::min(util::resolve_threads(config_.threads), x.rows());
  const auto score = [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t i = lo; i < hi; ++i) out[i] = decision_value(x.row(i));
  };
  if (threads > 1) {
    util::ThreadPool pool{threads};
    pool.parallel_for(0, x.rows(), score);
  } else {
    score(0, x.rows(), 0);
  }
  return out;
}

}  // namespace dnsembed::ml
