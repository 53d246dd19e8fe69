// ThreadPool: a fixed-size worker pool for fork/join super-steps.
//
// Built for the parallel multi-partition growth in core/multi_tlp.cpp, but
// deliberately generic: run_indexed() fans one callable out over [0, n)
// and acts as a barrier. Exceptions propagate: the barrier rethrows the
// exception of the smallest failing index (deterministic regardless of
// scheduling). The destructor stops and joins the workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tlp {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 means std::thread::hardware_concurrency,
  /// with a floor of 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Runs fn(0) .. fn(n-1) across the pool and blocks until all complete
  /// (a fork/join barrier). If any invocations throw, rethrows the
  /// exception of the SMALLEST failing index — deterministic no matter how
  /// the indices were scheduled. Reentrant calls from inside a task are not
  /// supported.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /// Wakes idle workers and lets them exit once the queue is empty.
  void stop();
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopped_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tlp
