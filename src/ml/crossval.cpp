#include "ml/crossval.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace dnsembed::ml {

std::vector<std::vector<std::size_t>> stratified_kfold(const std::vector<int>& labels,
                                                       std::size_t k, std::uint64_t seed) {
  if (k < 2) throw std::invalid_argument{"stratified_kfold: k must be >= 2"};
  if (labels.size() < k) throw std::invalid_argument{"stratified_kfold: fewer rows than folds"};

  std::vector<std::size_t> pos;
  std::vector<std::size_t> neg;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    (labels[i] == 1 ? pos : neg).push_back(i);
  }
  util::Rng rng{seed};
  rng.shuffle(pos);
  rng.shuffle(neg);

  std::vector<std::vector<std::size_t>> folds(k);
  std::size_t next = 0;
  for (const auto& group : {pos, neg}) {
    for (const std::size_t idx : group) {
      folds[next % k].push_back(idx);
      ++next;
    }
  }
  return folds;
}

void for_each_fold(const std::vector<int>& labels, std::size_t k, std::uint64_t seed,
                   const FoldVisitor& visit) {
  const auto folds = stratified_kfold(labels, k, seed);
  for (const auto& test_idx : folds) {
    std::vector<std::size_t> train_idx;
    train_idx.reserve(labels.size() - test_idx.size());
    std::vector<bool> held(labels.size(), false);
    for (const std::size_t i : test_idx) held[i] = true;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (!held[i]) train_idx.push_back(i);
    }
    visit(train_idx, test_idx);
  }
}

CrossValScores cross_validate(const Dataset& data, std::size_t k, std::uint64_t seed,
                              const FoldScorer& scorer) {
  data.validate();
  CrossValScores out;
  out.scores.assign(data.size(), 0.0);
  out.labels = data.y;
  for_each_fold(data.y, k, seed, [&](const auto& train_idx, const auto& test_idx) {
    const auto fold_scores = scorer(data.select(train_idx), data.select(test_idx));
    if (fold_scores.size() != test_idx.size()) {
      throw std::runtime_error{"cross_validate: scorer returned wrong count"};
    }
    for (std::size_t j = 0; j < test_idx.size(); ++j) out.scores[test_idx[j]] = fold_scores[j];
  });
  return out;
}

}  // namespace dnsembed::ml
