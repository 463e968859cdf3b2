#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "util/error.hpp"
#include "util/timer.hpp"

namespace gfre {

ThreadPool::ThreadPool(std::size_t n) {
  GFRE_ASSERT(n >= 1, "thread pool needs at least one worker");
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futs;
  futs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futs.push_back(submit([i, &fn] { fn(i); }));
  }
  // Drain every future before surfacing any failure: tasks capture `fn` by
  // reference, so returning (by throw) while workers still run would leave
  // them calling a destroyed function.  The first failure is stashed and
  // rethrown once the whole range has completed.
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, hw);
}

double effective_cores(unsigned k) {
  const auto spin = [] {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 40'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::atomic<std::uint64_t> sink{0};
  const auto timed = [&](unsigned threads) {
    Timer timer;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
      pool.emplace_back([&] { sink += spin(); });
    for (auto& thread : pool) thread.join();
    return timer.seconds();
  };
  std::vector<double> ratios;
  for (int trial = 0; trial < 3; ++trial) {
    const double one = timed(1);
    ratios.push_back(k * one / timed(k));
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[1];
}

}  // namespace gfre
