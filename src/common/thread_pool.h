#ifndef SUBEX_COMMON_THREAD_POOL_H_
#define SUBEX_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace subex {

/// Fixed-size worker pool for data-parallel experiment loops.
///
/// The explainer benchmarks score thousands of independent subspaces; the
/// pool lets pipelines fan those out without spawning a thread per task.
/// On single-core machines (`num_threads == 1` or `0`) `ParallelFor` degrades
/// to a plain sequential loop with zero synchronization overhead.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers. `0` means
  /// `std::thread::hardware_concurrency()`.
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains outstanding work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t num_threads() const { return threads_.size(); }

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  /// Runs `body(i)` for every `i` in `[0, count)`, blocking until all
  /// iterations complete. Iterations are distributed dynamically so uneven
  /// per-iteration cost (e.g. subspaces of different dimensionality) balances
  /// out; the calling thread claims iterations too, and waits only for this
  /// call's iterations, so calls may nest inside pool tasks and concurrent
  /// callers never wait for each other's work. `body` must be safe to call
  /// concurrently. If `body` throws, the first exception is rethrown on the
  /// calling thread after every started iteration has finished (iterations
  /// not yet started may be skipped); the pool remains usable.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& body);

  /// The pool installed for the calling thread by its innermost open
  /// `Scope`, or null.
  static ThreadPool* Current();

  /// `Current()->ParallelFor(count, body)` when the calling thread has a
  /// current pool, a plain loop on the calling thread otherwise.
  static void ParallelForOnCurrent(
      std::size_t count, const std::function<void(std::size_t)>& body);

  /// Installs `pool` (may be null) as the calling thread's current pool for
  /// the scope's lifetime and restores the previous one on close.
  class Scope {
   public:
    explicit Scope(ThreadPool* pool);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadPool* previous_;
  };

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  bool shutting_down_ = false;
};

}  // namespace subex

#endif  // SUBEX_COMMON_THREAD_POOL_H_
