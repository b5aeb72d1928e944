// C-SVC support vector machine trained with SMO (sequential minimal
// optimization, libsvm-style maximal-violating-pair working-set selection).
// The paper's detector (§6.2) is an RBF SVM with C = 0.09 and gamma = 0.06;
// decision values (Eq. 7) feed the ROC/AUC evaluation.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "ml/crossval.hpp"
#include "ml/dataset.hpp"

namespace dnsembed::ml {

enum class SvmKernel { kRbf, kLinear };

struct SvmConfig {
  SvmKernel kernel = SvmKernel::kRbf;
  /// Box constraint (paper: 0.09).
  double c = 0.09;
  /// RBF kernel coefficient (paper: 0.06). Ignored for the linear kernel.
  double gamma = 0.06;
  /// Per-class C multipliers, index 0 = benign, 1 = malicious. Useful for
  /// the 30/70 class imbalance; 1.0/1.0 matches the paper.
  double class_weight[2] = {1.0, 1.0};
  /// KKT violation tolerance for convergence.
  double tolerance = 1e-3;
  /// Hard cap on SMO iterations (0 = heuristic: max(10^7, 100 n)).
  std::size_t max_iterations = 0;
  /// Kernel row cache size in rows (bounds memory at cache_rows * n, where
  /// n counts the training rows, or for cross_validate_svm every labeled
  /// row: one cache serves all folds).
  std::size_t cache_rows = 2048;
  /// Worker threads for kernel-row fill during training and for batch
  /// scoring (decision_values): 1 = serial, 0 = one per hardware thread.
  /// Results are identical for every value (each matrix entry / row is
  /// computed independently). Not persisted by save()/load().
  std::size_t threads = 1;
};

/// Trained model: support vectors with signed coefficients and the bias.
class SvmModel {
 public:
  /// Signed decision value: positive side = class 1 (malicious).
  double decision_value(std::span<const double> x) const;

  /// Hard 0/1 prediction at the given decision threshold.
  int predict(std::span<const double> x, double threshold = 0.0) const;

  /// Batch scoring, parallelized across rows when config.threads != 1
  /// (the training config's threads knob is carried into the model).
  std::vector<double> decision_values(const Matrix& x) const;

  /// Feature dimension the model was trained on.
  std::size_t dimension() const noexcept { return support_vectors_.cols(); }

  /// Worker threads for decision_values (0 = one per hardware thread).
  /// Scores are identical at every value; the knob is not persisted, so
  /// loaded models default to serial until a caller raises it.
  void set_scoring_threads(std::size_t threads) noexcept { config_.threads = threads; }

  std::size_t support_vector_count() const noexcept { return coef_.size(); }
  double bias() const noexcept { return bias_; }
  std::size_t iterations() const noexcept { return iterations_; }

  /// Persist / restore the trained model (text format: header with kernel,
  /// C, gamma, bias; one support vector per line with its coefficient).
  void save(std::ostream& out) const;
  static SvmModel load(std::istream& in);

  /// Durable artifact persistence: the text format above wrapped in an
  /// atomic, checksummed container. load_file throws util::CorruptArtifact
  /// on a damaged container or unparseable payload.
  void save_file(const std::string& path) const;
  static SvmModel load_file(const std::string& path);

 private:
  friend SvmModel train_svm(const Dataset& train, const SvmConfig& config);

  SvmConfig config_{};
  Matrix support_vectors_;
  std::vector<double> coef_;  // alpha_i * (2 y_i - 1)
  double bias_ = 0.0;
  std::size_t iterations_ = 0;
};

/// Train on a validated dataset containing both classes.
SvmModel train_svm(const Dataset& train, const SvmConfig& config);

/// Stratified k-fold SVM scores (stratified_kfold's folds), bit-identical to
/// cross_validate with a scorer that runs train_svm then decision_values.
/// One kernel cache over all rows of data.x serves every fold: each fold's
/// SMO reads it through its training rows, and a held-out row's score sums
/// the support vectors' cached kernel values in support-vector order.
CrossValScores cross_validate_svm(const Dataset& data, std::size_t k, std::uint64_t seed,
                                  const SvmConfig& config);

}  // namespace dnsembed::ml
