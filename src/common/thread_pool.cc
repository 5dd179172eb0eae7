#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "common/thread_hooks.h"

namespace subex {
namespace {

thread_local ThreadPool* current_pool = nullptr;

/// One `ParallelFor` call, shared by its caller and helper tasks. `finished`
/// is the call's latch: it counts claimed iterations, run or skipped, and
/// the caller returns once it reaches `count`. A helper that starts later
/// claims an index past the end and never touches `body`, which may be gone
/// by then; the state itself lives as long as the last helper holding it.
struct ForState {
  ForState(std::size_t n, const std::function<void(std::size_t)>& b)
      : count(n), body(&b) {}

  /// Claims and runs iterations until none is left. An exception escaping
  /// `body` on a worker would otherwise unwind through WorkerLoop and
  /// terminate the process; instead the first one is kept for the caller,
  /// and iterations claimed after it are skipped.
  void Run() {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          (*body)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!failed.exchange(true)) error = std::current_exception();
        }
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
        std::lock_guard<std::mutex> lock(mutex);
        all_finished.notify_all();
      }
    }
  }

  const std::size_t count;
  const std::function<void(std::size_t)>* const body;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::condition_variable all_finished;
  std::exception_ptr error;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (threads_.size() == 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  // The caller works too, so `count - 1` helpers are enough.
  auto state = std::make_shared<ForState>(count, body);
  const std::size_t helpers = std::min(threads_.size(), count - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    Submit([state] { state->Run(); });
  }
  state->Run();
  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_finished.wait(lock, [&] {
    return state->finished.load(std::memory_order_acquire) == count;
  });
  if (state->failed.load()) std::rethrow_exception(state->error);
}

ThreadPool* ThreadPool::Current() { return current_pool; }

void ThreadPool::ParallelForOnCurrent(
    std::size_t count, const std::function<void(std::size_t)>& body) {
  if (current_pool != nullptr) {
    current_pool->ParallelFor(count, body);
  } else {
    for (std::size_t i = 0; i < count; ++i) body(i);
  }
}

ThreadPool::Scope::Scope(ThreadPool* pool) : previous_(current_pool) {
  current_pool = pool;
}

ThreadPool::Scope::~Scope() { current_pool = previous_; }

void ThreadPool::WorkerLoop() {
  NotifyThreadStart();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) break;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
  NotifyThreadExit();
}

}  // namespace subex
