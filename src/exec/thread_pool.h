// A fixed-size thread pool with a single shared FIFO queue. Deliberately
// minimal: no work stealing, no priorities, no dynamic sizing — the batch
// executor layered on top (exec/batch_executor.h) does its own dynamic
// load balancing with an atomic cursor, so the pool only needs to run
// opaque tasks and shut down cleanly.
//
// Exception safety: tasks are wrapped in std::packaged_task, so an
// exception escaping a task is captured into the returned future and
// rethrown at future.get(); worker threads never die from a throwing
// task. ParallelFor rethrows the first captured exception in the calling
// thread after every worker has finished.
#ifndef UXM_EXEC_THREAD_POOL_H_
#define UXM_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace uxm {

/// \brief Fixed-size FIFO thread pool.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int num_threads);

  /// Drains the queue and joins all workers (equivalent to Shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` and returns a future for its result. If `fn` throws,
  /// the exception is delivered through the future. Returns an invalid
  /// (default-constructed) future if the pool is already shut down.
  template <typename F>
  std::future<std::invoke_result_t<std::decay_t<F>>> Submit(F&& fn) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return std::future<R>();
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Runs fn(0) .. fn(n-1) across the pool's workers with dynamic
  /// (atomic-cursor) scheduling and blocks until every index has run.
  /// The first exception thrown by any fn(i) is rethrown here after all
  /// workers finish; remaining indices may be skipped once an exception
  /// is observed.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Stops accepting work, runs every already-queued task, joins all
  /// workers. Idempotent; safe to call concurrently with Submit.
  void Shutdown();

  /// The pool's configured width. Stable for the pool's lifetime (it is
  /// not zeroed by Shutdown), so it is safe to read concurrently.
  int num_threads() const { return num_threads_; }

  /// The number of CPUs in the calling thread's affinity mask
  /// (sched_getaffinity; a taskset/cpuset confinement of the process),
  /// falling back to std::thread::hardware_concurrency and then to 1.
  static int DefaultThreadCount();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  int num_threads_ = 0;
  std::vector<std::thread> workers_;
};

/// \brief A handful of dedicated threads joined on scope exit.
///
/// For short-lived coordinator/driver threads that themselves DISPATCH
/// into a ThreadPool and block on the result — CorpusExecutor's
/// per-shard schedulers beyond the first (corpus/corpus_executor.h)
/// are the motivating case. Such drivers must NOT run as pool tasks: a
/// driver occupying a pool worker while its nested ParallelFor waits for
/// slot tasks queued behind OTHER blocked drivers is a deadlock cycle.
/// Dedicated threads keep the pool's workers free for actual work, and
/// join-on-destruction keeps an exception on the spawning path from
/// leaking a running thread.
class ScopedThreads {
 public:
  ScopedThreads() = default;
  ~ScopedThreads() { JoinAll(); }

  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

  /// Spawns a thread running `fn`. The callable must not throw — there
  /// is no future to carry the exception; marshal failures through
  /// captured state instead.
  template <typename F>
  void Spawn(F&& fn) {
    threads_.emplace_back(std::forward<F>(fn));
  }

  /// Joins every spawned thread. Idempotent.
  void JoinAll() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::vector<std::thread> threads_;
};

}  // namespace uxm

#endif  // UXM_EXEC_THREAD_POOL_H_
