#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dmv/par/par.hpp"

// The pool's scheduling contract: every job completes and returns to its
// caller, a task's exception reaches the caller without wedging the
// pool, a caller that finds the pool busy runs its job serially inline
// on its own thread, and a parallel call made from inside a task runs
// inline on that task's thread.

namespace dmv::par {
namespace {

TEST(Par, BackToBackShortJobsAllComplete) {
  // Many tiny jobs in a row: a worker that wakes late for one job must
  // not disturb the next one's counters (a lost completion hangs here).
  ThreadScope scope(4);
  for (int job = 0; job < 2000; ++job) {
    std::vector<int> hits(8, 0);
    parallel_for(hits.size(), 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    ASSERT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 8)
        << "job " << job;
  }
}

TEST(Par, FirstTaskExceptionIsRethrownAndPoolStaysUsable) {
  ThreadScope scope(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_tasks(16,
                              [&](std::size_t t) {
                                ran.fetch_add(1);
                                if (t % 4 == 1) {
                                  throw std::runtime_error("task failed");
                                }
                              }),
               std::runtime_error);
  // Every task still ran: a failure does not cancel the others.
  EXPECT_EQ(ran.load(), 16);
  // The next job on the same pool runs normally.
  const std::int64_t sum = parallel_reduce(
      std::size_t{1000}, 10, std::int64_t{0},
      [](std::size_t begin, std::size_t end) {
        std::int64_t s = 0;
        for (std::size_t i = begin; i < end; ++i) {
          s += static_cast<std::int64_t>(i);
        }
        return s;
      },
      [](std::int64_t& acc, std::int64_t part) { acc += part; });
  EXPECT_EQ(sum, 999 * 1000 / 2);
}

TEST(Par, SecondCallerWhilePoolHeldRunsInlineAndCountsFallback) {
  ThreadScope scope(4);
  std::mutex mutex;
  std::condition_variable cv;
  bool second_done = false;
  // The first caller's job holds the pool until the second caller has
  // finished its own job (bounded wait, so a broken pool fails instead
  // of hanging the suite).
  std::thread first([&] {
    parallel_tasks(4, [&](std::size_t t) {
      if (t != 0) return;
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait_for(lock, std::chrono::seconds(30),
                  [&] { return second_done; });
    });
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!pool_busy() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(pool_busy());

  const std::uint64_t fallbacks_before = busy_fallbacks();
  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::vector<std::thread::id> ran_on;
  parallel_for(8, 1, [&](std::size_t begin, std::size_t) {
    order.push_back(begin);
    ran_on.push_back(std::this_thread::get_id());
  });
  {
    std::lock_guard<std::mutex> lock(mutex);
    second_done = true;
  }
  cv.notify_all();
  first.join();

  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, self);
  EXPECT_EQ(busy_fallbacks(), fallbacks_before + 1);
}

TEST(Par, NestedCallInsideTaskRunsInline) {
  ThreadScope scope(4);
  const std::uint64_t fallbacks_before = busy_fallbacks();
  std::vector<int> inline_ok(4, 0);
  parallel_tasks(4, [&](std::size_t t) {
    EXPECT_TRUE(in_parallel_region());
    const std::thread::id self = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool same_thread = true;
    parallel_for(6, 1, [&](std::size_t begin, std::size_t) {
      order.push_back(begin);
      same_thread = same_thread && std::this_thread::get_id() == self;
    });
    inline_ok[t] =
        same_thread && order == std::vector<std::size_t>{0, 1, 2, 3, 4, 5};
  });
  EXPECT_FALSE(in_parallel_region());
  EXPECT_EQ(inline_ok, (std::vector<int>{1, 1, 1, 1}));
  // Inline nesting is not a busy-pool fallback.
  EXPECT_EQ(busy_fallbacks(), fallbacks_before);
}

}  // namespace
}  // namespace dmv::par
