// Fixed-size thread pool used for Theorem-2 parallel per-output-bit
// extraction.  The paper runs "in n threads" (16 on their Xeon); we expose
// the thread count as a parameter so the same experiments scale to any
// machine.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gfre {

/// Simple work-queue thread pool.  Tasks are std::function<void()>; submit()
/// returns a future for completion/exception propagation.
class ThreadPool {
 public:
  /// Creates `n` worker threads (n >= 1).  n == 1 still uses a worker
  /// thread, which keeps per-thread timing uniform across configurations.
  explicit ThreadPool(std::size_t n);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task.  The returned future rethrows any exception the task
  /// raised.
  template <typename F>
  std::future<void> submit(F&& f) {
    auto task =
        std::make_shared<std::packaged_task<void()>>(std::forward<F>(f));
    std::future<void> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  std::size_t size() const { return workers_.size(); }

  /// Run `count` indexed tasks (fn(0..count-1)) across the pool and wait
  /// for ALL of them to finish — even when some throw.  The first exception
  /// (lowest index) is stashed as a std::exception_ptr and rethrown only
  /// after every task has completed, so `fn` is never destroyed while a
  /// worker still references it and a throwing task can never escalate to
  /// std::terminate.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Reasonable default worker count for this machine.
  static std::size_t default_threads();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Effective cores: how many of `k` equal spin threads run in parallel,
/// as k x (one thread's time) / (k threads' time), median of three trials.
/// A timing recorded on a host with few real cores must be read against
/// it.
double effective_cores(unsigned k);

}  // namespace gfre
