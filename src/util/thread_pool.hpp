// Fixed-size thread pool with a parallel_for helper, used by the one-mode
// projection engine (graph/projection.cpp) and the SVM kernel-fill /
// batch-scoring paths (ml/svm.cpp) to spread work across cores.
//
// Determinism contract: parallel_for splits [begin, end) into at most
// size() contiguous chunks and calls fn(chunk_begin, chunk_end, chunk_index).
// chunk_index is the 0-based index of the contiguous chunk — NOT the id of
// the OS thread that happens to execute it — and the partition depends only
// on (begin, end, size()). Worker-local state indexed by chunk_index
// therefore receives an identical work assignment on every run with the
// same pool size; only the execution interleaving varies.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dnsembed::util {

/// Resolve a user-facing thread-count knob: 0 = one per CPU the calling
/// thread may run on (its affinity mask, so taskset and cpusets count; at
/// least 1); explicit requests are capped at that count. Oversubscribing a
/// CPU-bound pool only adds context-switch overhead — BENCH_projection.json
/// measured T=8 running 2x slower than T=1 on a single-core container
/// before the cap.
std::size_t resolve_threads(std::size_t requested) noexcept;

class ThreadPool {
 public:
  /// Worker count goes through resolve_threads(): 0 means one per usable
  /// CPU, explicit values are capped at that count.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; the returned future reports completion/exceptions.
  std::future<void> submit(std::function<void()> task);

  /// Run fn(begin..end) split into one contiguous chunk per worker and wait.
  /// fn receives (chunk_begin, chunk_end, worker_index).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace dnsembed::util
