#include "util/thread_pool.hpp"

#include <sched.h>

#include <algorithm>

namespace dnsembed::util {

namespace {

/// CPUs in the calling thread's affinity mask; hardware_concurrency() when
/// the mask cannot be read.
std::size_t usable_cpus() noexcept {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

std::size_t resolve_threads(std::size_t requested) noexcept {
  const std::size_t cpus = usable_cpus();
  if (requested == 0) return cpus;
  return std::min(requested, cpus);
}

ThreadPool::ThreadPool(std::size_t threads) {
  threads = resolve_threads(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged{std::move(task)};
  std::future<void> fut = packaged.get_future();
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, workers_.size());
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    if (lo >= hi) break;
    futures.push_back(submit([&fn, lo, hi, c] { fn(lo, hi, c); }));
  }
  for (auto& f : futures) f.get();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace dnsembed::util
