#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace subex {
namespace {

TEST(ThreadPoolTest, SingleThreadParallelForRunsAllIterations) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(100, [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, MultiThreadParallelForRunsAllIterationsOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, SubmitAndWait) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // The destructor drains the queue before joining.
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, DestructorWithNoWorkReturnsImmediately) {
  { ThreadPool pool(2); }  // Must not deadlock.
  SUCCEED();
}

TEST(ThreadPoolTest, ReducesCorrectSum) {
  ThreadPool pool(4);
  std::vector<long long> partial(256, 0);
  pool.ParallelFor(256, [&](std::size_t i) {
    partial[i] = static_cast<long long>(i) * i;
  });
  const long long total =
      std::accumulate(partial.begin(), partial.end(), 0LL);
  long long expected = 0;
  for (long long i = 0; i < 256; ++i) expected += i * i;
  EXPECT_EQ(total, expected);
}

TEST(ThreadPoolTest, ParallelForRethrowsBodyExceptionOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [](std::size_t i) {
                         if (i == 42) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, PoolStaysUsableAfterBodyException) {
  ThreadPool pool(4);
  try {
    pool.ParallelFor(64, [](std::size_t) { throw std::runtime_error("x"); });
    FAIL() << "expected the body exception to propagate";
  } catch (const std::runtime_error&) {
  }
  // The pool must still run work to completion afterwards.
  std::vector<std::atomic<int>> hits(128);
  pool.ParallelFor(128, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadParallelForPropagatesException) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.ParallelFor(8, [](std::size_t) { throw std::logic_error("seq"); }),
      std::logic_error);
}

TEST(ThreadPoolTest, NumThreadsReported) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
}

TEST(ThreadPoolTest, DestructorJoinsWithPendingCompletedWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 20);
}

// Nesting: ParallelFor called from inside pool tasks, at every pool size the
// pipelines use. Each leaf iteration must run exactly once.
class ThreadPoolNestingTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadPoolNestingTest, NestedParallelForRunsEveryIterationOnce) {
  ThreadPool pool(GetParam());
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.ParallelFor(kOuter, [&](std::size_t i) {
    pool.ParallelFor(kInner,
                     [&](std::size_t j) { hits[i * kInner + j].fetch_add(1); });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ThreadPoolNestingTest, PoolTaskNestsTwoLevels) {
  ThreadPool pool(GetParam());
  constexpr std::size_t kWidth = 5;
  std::vector<std::atomic<int>> hits(kWidth * kWidth * kWidth);
  std::promise<void> done;
  pool.Submit([&] {
    pool.ParallelFor(kWidth, [&](std::size_t i) {
      pool.ParallelFor(kWidth, [&](std::size_t j) {
        pool.ParallelFor(kWidth, [&](std::size_t k) {
          hits[(i * kWidth + j) * kWidth + k].fetch_add(1);
        });
      });
    });
    done.set_value();
  });
  done.get_future().wait();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ThreadPoolNestingTest, NestedExceptionReachesInnerCaller) {
  ThreadPool pool(GetParam());
  constexpr std::size_t kOuter = 4;
  std::atomic<int> caught{0};
  pool.ParallelFor(kOuter, [&](std::size_t) {
    try {
      pool.ParallelFor(8, [](std::size_t j) {
        if (j == 3) throw std::runtime_error("inner");
      });
    } catch (const std::runtime_error&) {
      caught.fetch_add(1);
    }
  });
  EXPECT_EQ(caught.load(), static_cast<int>(kOuter));
  // The pool then runs a new ParallelFor to completion.
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ThreadPoolNestingTest,
                         ::testing::Values(1u, 2u, 4u));

TEST(ThreadPoolConcurrencyTest, ConcurrentCallersWaitOnlyForTheirOwnWork) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> slow_started{0};
  std::atomic<bool> slow_done{false};
  ThreadPool pool(4);
  std::thread slow_caller([&] {
    pool.ParallelFor(2, [&](std::size_t) {
      slow_started.fetch_add(1);
      released.wait();
    });
    slow_done.store(true);
  });
  while (slow_started.load() < 2) std::this_thread::yield();

  // This call returns while both slow iterations are still blocked.
  std::vector<std::atomic<int>> hits(32);
  pool.ParallelFor(32, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(slow_done.load());

  release.set_value();
  slow_caller.join();
  EXPECT_TRUE(slow_done.load());
}

TEST(ThreadPoolConcurrencyTest, CallerFinishesAloneWhileEveryWorkerIsBusy) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> blocked{0};
  ThreadPool pool(2);  // Joined first, while the gate above still exists.
  for (int w = 0; w < 2; ++w) {
    pool.Submit([&] {
      blocked.fetch_add(1);
      released.wait();
    });
  }
  while (blocked.load() < 2) std::this_thread::yield();
  {
    // The helpers stay queued behind the blocked workers; the caller runs
    // every iteration itself and returns. The helpers start after `body`
    // is gone and must not touch it.
    std::vector<int> hits(16, 0);
    const std::function<void(std::size_t)> body = [&](std::size_t i) {
      hits[i] += 1;
    };
    pool.ParallelFor(hits.size(), body);
    for (int h : hits) EXPECT_EQ(h, 1);
  }
  release.set_value();
}

TEST(ThreadPoolScopeTest, ScopeRestoresThePreviousPoolOnClose) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  EXPECT_EQ(ThreadPool::Current(), nullptr);
  {
    const ThreadPool::Scope a(&outer);
    EXPECT_EQ(ThreadPool::Current(), &outer);
    {
      const ThreadPool::Scope b(&inner);
      EXPECT_EQ(ThreadPool::Current(), &inner);
      {
        const ThreadPool::Scope c(nullptr);
        EXPECT_EQ(ThreadPool::Current(), nullptr);
      }
      EXPECT_EQ(ThreadPool::Current(), &inner);
    }
    EXPECT_EQ(ThreadPool::Current(), &outer);
    // The current pool belongs to the thread that installed it.
    std::thread other([] { EXPECT_EQ(ThreadPool::Current(), nullptr); });
    other.join();
  }
  EXPECT_EQ(ThreadPool::Current(), nullptr);
}

TEST(ThreadPoolScopeTest, ParallelForOnCurrentUsesTheInstalledPool) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(64);
  auto record = [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  };
  ThreadPool::ParallelForOnCurrent(ran_on.size(), record);
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);

  ThreadPool pool(4);
  const ThreadPool::Scope scope(&pool);
  std::vector<std::atomic<int>> hits(256);
  ThreadPool::ParallelForOnCurrent(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace subex
