#include "core/detector.hpp"

#include <algorithm>

namespace dnsembed::core {

ml::Dataset make_dataset(const embed::EmbeddingMatrix& embedding,
                         const intel::LabeledSet& labels) {
  ml::Dataset data;
  data.x = ml::Matrix{labels.size(), embedding.dimension()};
  data.y = labels.labels;
  data.names = labels.domains;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (const auto vec = embedding.vector_for(labels.domains[i])) {
      auto dst = data.x.row(i);
      for (std::size_t d = 0; d < vec->size(); ++d) dst[d] = (*vec)[d];
    }
  }
  data.validate();
  return data;
}

DetectionEvaluation evaluate_svm(const ml::Dataset& data, const ml::SvmConfig& svm,
                                 std::size_t folds, std::uint64_t seed) {
  DetectionEvaluation eval;
  eval.folds = folds;
  eval.scores = ml::cross_validate_svm(data, folds, seed, svm);
  eval.roc = ml::roc_curve(eval.scores.scores, eval.scores.labels);
  eval.auc = ml::roc_auc(eval.scores.scores, eval.scores.labels);
  eval.confusion_at_zero = ml::confusion_at(eval.scores.scores, eval.scores.labels, 0.0);
  return eval;
}

DomainDetector::DomainDetector(const embed::EmbeddingMatrix& embedding,
                               const intel::LabeledSet& labels, const ml::SvmConfig& svm)
    : embedding_{&embedding},
      model_{ml::train_svm(make_dataset(embedding, labels), svm)},
      svm_config_{svm} {}

double DomainDetector::score(const std::string& domain) const {
  std::vector<double> x(embedding_->dimension(), 0.0);
  if (const auto vec = embedding_->vector_for(domain)) {
    for (std::size_t d = 0; d < vec->size(); ++d) x[d] = (*vec)[d];
  }
  return model_.decision_value(x);
}

bool DomainDetector::is_malicious(const std::string& domain, double threshold) const {
  return score(domain) >= threshold;
}

bool DomainDetector::knows(const std::string& domain) const {
  return embedding_->index_of(domain).has_value();
}

void DomainDetector::calibrate(const intel::LabeledSet& labels, std::size_t folds,
                               std::uint64_t seed) {
  // Out-of-fold decision values avoid the optimistic bias of calibrating
  // on the same data the deployed model was trained on.
  const auto cv = ml::cross_validate_svm(make_dataset(*embedding_, labels), folds, seed,
                                         svm_config_);
  scaler_.fit(cv.scores, cv.labels);
}

double DomainDetector::probability(const std::string& domain) const {
  return scaler_.probability(score(domain));
}

}  // namespace dnsembed::core
