// Stratified k-fold cross-validation (paper §8.1 uses k = 10): shuffles,
// then deals each class round-robin across folds so every fold preserves
// the 30/70 malicious/benign mix.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ml/dataset.hpp"

namespace dnsembed::ml {

/// Fold assignment: folds[f] lists the row indices held out in fold f.
std::vector<std::vector<std::size_t>> stratified_kfold(const std::vector<int>& labels,
                                                       std::size_t k, std::uint64_t seed);

/// Result of one cross-validated scoring run: out-of-fold decision scores
/// aligned with the dataset rows (every row is scored exactly once, by the
/// model that did not train on it).
struct CrossValScores {
  std::vector<double> scores;
  std::vector<int> labels;
};

/// A scorer trains on `train` and returns one decision score per row of
/// `test.x` (higher = more malicious).
using FoldScorer = std::function<std::vector<double>(const Dataset& train, const Dataset& test)>;

/// Visits the stratified folds in order: `train` lists every row outside
/// `test`, ascending.
using FoldVisitor = std::function<void(const std::vector<std::size_t>& train,
                                       const std::vector<std::size_t>& test)>;

/// The index-level fold loop under cross_validate and cross_validate_svm.
void for_each_fold(const std::vector<int>& labels, std::size_t k, std::uint64_t seed,
                   const FoldVisitor& visit);

/// Run stratified k-fold CV and collect out-of-fold scores.
CrossValScores cross_validate(const Dataset& data, std::size_t k, std::uint64_t seed,
                              const FoldScorer& scorer);

}  // namespace dnsembed::ml
