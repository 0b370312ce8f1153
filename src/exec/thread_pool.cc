#include "exec/thread_pool.h"

#include <atomic>
#include <exception>

#ifdef __linux__
#include <sched.h>
#endif

namespace uxm {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  num_threads_ = num_threads;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task: exceptions land in the caller's future
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker = [&]() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  // The calling thread participates too, so ParallelFor makes progress
  // even when every pool worker is busy with other work.
  std::vector<std::future<void>> futures;
  const size_t helpers = static_cast<size_t>(num_threads());
  futures.reserve(helpers);
  for (size_t t = 0; t < helpers; ++t) {
    auto f = Submit(worker);
    if (f.valid()) futures.push_back(std::move(f));
  }
  worker();
  for (auto& f : futures) f.get();
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::Shutdown() {
  // Claim the worker handles under the lock so concurrent Shutdown calls
  // are safe: only the caller that swaps them out joins; everyone else
  // sees an empty vector and returns.
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (std::thread& w : workers) {
    if (w.joinable()) w.join();
  }
}

int ThreadPool::DefaultThreadCount() {
#ifdef __linux__
  // The CPUs this process may actually run on: hardware_concurrency
  // counts the whole machine, so a process confined by taskset/cpusets to
  // one CPU would otherwise get a pool (and shard drivers) sized for all
  // of them, time-slicing that one core.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int allowed = CPU_COUNT(&mask);
    if (allowed > 0) return allowed;
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace uxm
