// Flat open-addressing counter table for insert-or-increment workloads.
//
// The sketched projection deduplicates its LSH candidate pairs with it, and
// bench/micro_obs times its pair-counting loop (the exact projection's hot
// path before its row-wise engine). A node-based std::unordered_map pays a
// pointer chase plus an allocation per distinct key on that kind of path;
// this table instead keeps
// packed (key, count) slots in one contiguous power-of-two array with
// linear probing, growing at ~70% load — the layout TurboHash-style flat
// tables use to beat chained maps on counting workloads.
//
// Hot-loop design, each measured against the chained map on the pair-count
// workload the exact projection then ran (bench/micro_graph.cpp):
//   - multiply-shift (Fibonacci) hashing: one imul + shift, taking the HIGH
//     product bits as the slot so dense key ranges still spread uniformly
//     (a full-avalanche mix costs 3 dependent imuls per increment and only
//     buys hash quality this table does not need);
//   - ensure() + increment_unchecked(): callers that know a run length
//     hoist the grow-check out of the inner loop;
//   - prefetch(): issue the slot load a dozen keys ahead of the increment
//     to hide the random-access miss on tables larger than cache.
//
// A slot is occupied iff its count is non-zero (counts are always >= 1
// once a key is inserted), so every 64-bit key value is usable, including
// 0. Counts saturate at kMaxCount instead of wrapping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace dnsembed::util {

/// splitmix64 finalizer: full-avalanche mix of a 64-bit key. Not used for
/// slot probing (see above) — callers use it where bit independence from
/// the probe hash matters, e.g. the sketch's counter-based hash family.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class FlatCounter {
 public:
  static constexpr std::uint32_t kMaxCount = std::numeric_limits<std::uint32_t>::max();

  FlatCounter() = default;

  /// Pre-size for an expected number of distinct keys (avoids rehashing
  /// during a build loop of known magnitude).
  explicit FlatCounter(std::size_t expected_keys) { reserve(expected_keys); }

  /// Add delta to key's count, inserting at delta if absent. Saturates at
  /// kMaxCount rather than wrapping.
  void increment(std::uint64_t key, std::uint32_t delta = 1) {
    ensure(1);
    increment_unchecked(key, delta);
  }

  /// increment() without the capacity check. Caller must have called
  /// ensure(n) covering all unchecked increments issued since.
  void increment_unchecked(std::uint64_t key, std::uint32_t delta = 1) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot_of(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.count == 0) {
        s.key = key;
        s.count = delta;
        ++size_;
        return;
      }
      if (s.key == key) {
        s.count = delta > kMaxCount - s.count ? kMaxCount : s.count + delta;
        return;
      }
      i = (i + 1) & mask;
    }
  }

  /// Guarantee capacity for `extra` further distinct keys without growth;
  /// hoists the per-increment load-factor check out of inner loops.
  void ensure(std::size_t extra) {
    const std::size_t need = size_ + extra;
    if (need * 10 > slots_.size() * 7) reserve(need);
  }

  /// Hint the cache to load key's home slot. Call ~8-16 keys ahead of the
  /// matching increment()/count() to hide the random-access miss on tables
  /// larger than cache.
  void prefetch(std::uint64_t key) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (!slots_.empty()) __builtin_prefetch(&slots_[slot_of(key)], 1 /*write*/, 1);
#endif
  }

  /// Current count for key (0 if never incremented).
  std::uint32_t count(std::uint64_t key) const noexcept {
    if (slots_.empty()) return 0;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot_of(key);
    while (true) {
      const Slot& s = slots_[i];
      if (s.count == 0) return 0;
      if (s.key == key) return s.count;
      i = (i + 1) & mask;
    }
  }

  /// Number of distinct keys.
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Slot-array capacity (power of two; 0 before the first insert).
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Visit every (key, count) pair in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.count != 0) fn(s.key, s.count);
    }
  }

  /// Add every count from other into this table (saturating). Rehashes at
  /// most once, up front, to a capacity fitting the worst-case union size;
  /// the per-key inserts then run unchecked.
  void merge_from(const FlatCounter& other) {
    if (other.size_ == 0) return;
    ensure(other.size_);
    other.for_each([this](std::uint64_t key, std::uint32_t c) { increment_unchecked(key, c); });
  }

  /// Merge that may cannibalize other: an empty destination steals the
  /// whole table (no rehash, no per-key work — the pass-2 shard merge hits
  /// this on its first worker). Otherwise falls back to the copying merge.
  /// other is left empty either way.
  void merge_from(FlatCounter&& other) {
    if (size_ == 0) {
      slots_ = std::move(other.slots_);
      size_ = other.size_;
      shift_ = other.shift_;
    } else {
      merge_from(static_cast<const FlatCounter&>(other));
    }
    other.clear();
  }

  /// Ensure capacity for the given number of distinct keys without rehash.
  void reserve(std::size_t expected_keys) {
    std::size_t want = kMinCapacity;
    while (expected_keys * 10 > want * 7) want <<= 1;
    if (want > slots_.size()) rehash(want);
  }

  void clear() noexcept {
    slots_.clear();
    size_ = 0;
    shift_ = 64;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t count = 0;  // 0 == empty slot
  };

  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::uint64_t kFibonacci = 0x9e3779b97f4a7c15ull;

  /// Home slot: high bits of the Fibonacci product (the well-mixed ones).
  std::size_t slot_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * kFibonacci) >> shift_);
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(new_capacity));
    int shift = 64;
    for (std::size_t c = new_capacity; c > 1; c >>= 1) --shift;
    shift_ = shift;
    const std::size_t mask = new_capacity - 1;
    for (const Slot& s : old) {
      if (s.count == 0) continue;
      std::size_t i = slot_of(s.key);
      while (slots_[i].count != 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(capacity); 64 while empty
};

}  // namespace dnsembed::util
