// Atomic snapshot publication with hazard-slot reclamation: the serve
// daemon's reload primitive.
//
// A SnapshotHolder<T> owns the current immutable snapshot. Readers acquire
// a guard (wait-free except for a retry loop that only spins while a
// publish lands between its two loads), use the snapshot, and release.
// publish() installs a new snapshot with one atomic exchange, then retires
// the old one: it waits until no hazard slot still references it and
// deletes it. Readers never block, never take a lock, and can never observe
// a torn or freed snapshot:
//
//   reader                               writer
//   ------                               ------
//   p = current.load(acquire)            old = current.exchange(next)
//   slot.store(p, seq_cst)               for each slot:
//   if current.load(seq_cst) != p:         while slot == old: yield
//     retry                              delete old
//   ... use *p ...
//   slot.store(nullptr, release)
//
// The seq_cst store/re-check pair closes the classic hazard-pointer race:
// once the re-check passes, either the writer's exchange had not happened
// (so the writer's slot scan sees our slot) or it had (and we are holding
// the NEW snapshot, which is not being retired). Hazard slots are a fixed
// process-wide pool of cache-line-padded slots shared by every holder; each
// reader thread claims one slot on first use and releases it at thread
// exit. Guards do not nest per thread (the slot holds one pointer) — the
// serve engine takes exactly one guard per operation.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace dnsembed::serve {

namespace detail {

inline constexpr std::size_t kHazardSlots = 128;

struct alignas(64) HazardSlot {
  std::atomic<const void*> ptr{nullptr};
  std::atomic<bool> owned{false};
};

inline std::array<HazardSlot, kHazardSlots>& hazard_slots() {
  static std::array<HazardSlot, kHazardSlots> slots;
  return slots;
}

/// The calling thread's hazard slot, claimed on first use and released at
/// thread exit. Throws when more than kHazardSlots threads read snapshots
/// concurrently — a hard documented cap, far above any sane reader count.
inline HazardSlot& my_hazard_slot() {
  struct Owner {
    HazardSlot* slot = nullptr;
    Owner() noexcept {
      for (HazardSlot& s : hazard_slots()) {
        bool expected = false;
        if (s.owned.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
          slot = &s;
          return;
        }
      }
    }
    ~Owner() {
      if (slot != nullptr) {
        slot->ptr.store(nullptr, std::memory_order_release);
        slot->owned.store(false, std::memory_order_release);
      }
    }
  };
  thread_local Owner owner;
  if (owner.slot == nullptr) {
    throw std::runtime_error{"serve: hazard slots exhausted (too many reader threads)"};
  }
  return *owner.slot;
}

}  // namespace detail

/// RAII read guard: pins one snapshot for its lifetime. Null when the
/// holder has never published.
template <typename T>
class SnapshotGuard {
 public:
  SnapshotGuard(const std::atomic<const T*>& current, detail::HazardSlot& slot) : slot_{slot} {
    for (;;) {
      const T* p = current.load(std::memory_order_acquire);
      slot_.ptr.store(p, std::memory_order_seq_cst);
      if (current.load(std::memory_order_seq_cst) == p) {
        ptr_ = p;
        return;
      }
      // A publish landed between the two loads; re-pin the new snapshot.
    }
  }
  ~SnapshotGuard() { slot_.ptr.store(nullptr, std::memory_order_release); }

  SnapshotGuard(const SnapshotGuard&) = delete;
  SnapshotGuard& operator=(const SnapshotGuard&) = delete;

  const T* get() const noexcept { return ptr_; }
  const T& operator*() const noexcept { return *ptr_; }
  const T* operator->() const noexcept { return ptr_; }
  explicit operator bool() const noexcept { return ptr_ != nullptr; }

 private:
  detail::HazardSlot& slot_;
  const T* ptr_ = nullptr;
};

template <typename T>
class SnapshotHolder {
 public:
  SnapshotHolder() = default;
  ~SnapshotHolder() {
    // No readers may be live at destruction (callers stop their reader
    // threads before destroying the owner), so the final snapshot is
    // deleted directly.
    delete current_.exchange(nullptr, std::memory_order_acq_rel);
  }

  SnapshotHolder(const SnapshotHolder&) = delete;
  SnapshotHolder& operator=(const SnapshotHolder&) = delete;

  /// Pin the current snapshot for reading. Wait-free modulo publish overlap.
  SnapshotGuard<T> acquire() const { return {current_, detail::my_hazard_slot()}; }

  bool has_value() const noexcept {
    return current_.load(std::memory_order_acquire) != nullptr;
  }

  /// Install `next` as the current snapshot and retire the old one once
  /// every in-flight guard on it has released. Concurrent publishes
  /// serialize on an internal mutex; readers are never blocked.
  void publish(std::unique_ptr<T> next) {
    const std::lock_guard<std::mutex> lock{publish_mutex_};
    const T* old = current_.exchange(next.release(), std::memory_order_seq_cst);
    if (old == nullptr) return;
    for (detail::HazardSlot& slot : detail::hazard_slots()) {
      while (slot.ptr.load(std::memory_order_seq_cst) == old) {
        std::this_thread::yield();
      }
    }
    delete old;
  }

 private:
  std::atomic<const T*> current_{nullptr};
  mutable std::mutex publish_mutex_;
};

}  // namespace dnsembed::serve
