// Walker's alias method: O(n) construction, O(1) sampling from a discrete
// distribution. LINE samples millions of edges and negative vertices per
// training run, so constant-time draws matter.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace dnsembed::embed {

class AliasTable {
 public:
  /// One bucket: keep index i with probability `prob`, else take `alias`.
  /// Side by side, so a draw reads one cache line.
  struct Bucket {
    double prob;
    std::size_t alias;
  };

  /// Build from non-negative weights (at least one must be positive).
  explicit AliasTable(std::span<const double> weights);
  explicit AliasTable(const std::vector<double>& weights)
      : AliasTable{std::span<const double>{weights}} {}

  /// Draw an index with probability proportional to its weight: one
  /// uniform_index for the bucket, then one uniform for the coin.
  std::size_t sample(util::Rng& rng) const noexcept {
    const std::size_t bucket = rng.uniform_index(buckets_.size());
    const Bucket& b = buckets_[bucket];
    return rng.uniform() < b.prob ? bucket : b.alias;
  }

  std::size_t size() const noexcept { return buckets_.size(); }

  /// The Walker buckets, for samplers that pack their own payload next to
  /// each bucket (LINE's edge sampler).
  std::span<const Bucket> buckets() const noexcept { return buckets_; }

  /// Exact sampling probability of index i (for tests).
  double probability(std::size_t i) const noexcept;

 private:
  std::vector<Bucket> buckets_;
  std::vector<double> pmf_;  // normalized input, kept for probability()
};

}  // namespace dnsembed::embed
