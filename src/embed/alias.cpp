#include "embed/alias.hpp"

namespace dnsembed::embed {

AliasTable::AliasTable(std::span<const double> weights) {
  buckets_.reserve(weights.size());
  for (const double w : weights) buckets_.push_back({w, 0});
  const double total = build_walker(std::span{buckets_}, &Bucket::alias);
  pmf_.reserve(weights.size());
  for (const double w : weights) pmf_.push_back(w / total);
}

double AliasTable::probability(std::size_t i) const noexcept {
  return i < pmf_.size() ? pmf_[i] : 0.0;
}

}  // namespace dnsembed::embed
