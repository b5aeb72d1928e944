// Walker's alias method: O(n) construction, O(1) sampling from a discrete
// distribution. LINE samples millions of edges and negative vertices per
// training run, so constant-time draws matter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace dnsembed::embed {

/// Walker's construction, in place, into the caller's buckets. On entry each
/// bucket's `prob` holds its non-negative weight; on return it holds the
/// bucket's keep probability and `bucket.*alias` the index of the bucket a
/// failed coin takes (0 where the coin cannot fail). A bucket's scaled mass
/// is (w / total) · n; the small (< 1) and large buckets go on two stacks,
/// and the residue left on either stack when the other empties gets
/// probability 1. AliasTable and LINE's packed edge sampler both build
/// through this, so their tables agree bit for bit. Returns the weights'
/// total. Throws std::invalid_argument for no buckets, more than 2^32 - 1,
/// a negative weight or a zero total.
template <typename Bucket, typename Index>
double build_walker(std::span<Bucket> buckets, Index Bucket::*alias) {
  const std::size_t n = buckets.size();
  if (n == 0) throw std::invalid_argument{"alias table: no weights"};
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument{"alias table: more than 2^32 - 1 weights"};
  }
  double total = 0.0;
  for (const Bucket& b : buckets) {
    if (b.prob < 0.0) throw std::invalid_argument{"alias table: negative weight"};
    total += b.prob;
  }
  if (total <= 0.0) throw std::invalid_argument{"alias table: weights sum to zero"};

  // One worklist holds both stacks: the small stack grows up from the
  // front (work[0, small)), the large one down from the back (work[large,
  // n), top at work[large]). A bucket is on at most one stack, so they
  // never meet.
  std::vector<std::uint32_t> work(n);
  std::size_t small = 0;
  std::size_t large = n;
  for (std::size_t i = 0; i < n; ++i) {
    Bucket& b = buckets[i];
    b.prob = b.prob / total * static_cast<double>(n);
    b.*alias = 0;
    work[b.prob < 1.0 ? small++ : --large] = static_cast<std::uint32_t>(i);
  }
  while (small > 0 && large < n) {
    const std::uint32_t s = work[--small];
    const std::uint32_t l = work[large];
    buckets[s].*alias = static_cast<Index>(l);
    double& mass = buckets[l].prob;
    mass = (mass + buckets[s].prob) - 1.0;
    if (mass < 1.0) {
      ++large;
      work[small++] = l;
    }
  }
  // Leftovers (numerical residue) get probability 1.
  for (std::size_t k = 0; k < small; ++k) buckets[work[k]].prob = 1.0;
  for (std::size_t k = large; k < n; ++k) buckets[work[k]].prob = 1.0;
  return total;
}

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
    // A branch, not a mask select: a predicted branch lets the caller's
    // load of the drawn row start before the coin resolves. On `run`'s
    // noise tables the coin keeps ~70% of draws and a select only ties;
    // on flatter weights (91% kept) the branch is up to ~12% faster
    // (DESIGN §11).
    return rng.uniform() < b.prob ? bucket : b.alias;
  }

  std::size_t size() const noexcept { return buckets_.size(); }

  /// Exact sampling probability of index i (for tests).
  double probability(std::size_t i) const noexcept;

 private:
  std::vector<Bucket> buckets_;
  std::vector<double> pmf_;  // normalized input, kept for probability()
};

}  // namespace dnsembed::embed
