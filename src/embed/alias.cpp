#include "embed/alias.hpp"

#include <stdexcept>

namespace dnsembed::embed {

AliasTable::AliasTable(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument{"AliasTable: empty weights"};
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) throw std::invalid_argument{"AliasTable: negative weight"};
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument{"AliasTable: weights sum to zero"};

  const std::size_t n = weights.size();
  pmf_.resize(n);
  buckets_.assign(n, Bucket{0.0, 0});

  // Scaled probabilities; buckets with mass < 1 are "small", >= 1 "large".
  std::vector<double> scaled(n);
  std::vector<std::size_t> small;
  std::vector<std::size_t> large;
  for (std::size_t i = 0; i < n; ++i) {
    pmf_[i] = weights[i] / total;
    scaled[i] = pmf_[i] * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    small.pop_back();
    const std::size_t l = large.back();
    buckets_[s] = {scaled[s], l};
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers (numerical residue) get probability 1.
  for (const std::size_t i : small) buckets_[i].prob = 1.0;
  for (const std::size_t i : large) buckets_[i].prob = 1.0;
}

double AliasTable::probability(std::size_t i) const noexcept {
  return i < pmf_.size() ? pmf_[i] : 0.0;
}

}  // namespace dnsembed::embed
