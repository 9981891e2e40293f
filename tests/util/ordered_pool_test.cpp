#include "util/ordered_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "../trace/live_threads.hpp"
#include "util/rng.hpp"

namespace tdt {
namespace {

using trace::live_threads;
using trace::threads_settle;

struct Item {
  std::uint64_t k = 0;
  std::uint64_t input = 0;
};

/// Sleeps a duration between 0 and 300 us that depends only on `k`.
void random_pause(std::uint64_t k) {
  Xoshiro256 rng(k * 0x9E3779B97F4A7C15ull + 1);
  std::this_thread::sleep_for(std::chrono::microseconds(rng.next_below(300)));
}

TEST(OrderedPool, JobsOfRandomDurationComeOutInJobOrder) {
  constexpr std::uint64_t kJobs = 200;
  for (const std::size_t threads : {0, 1, 3, 8}) {
    OrderedPool<Item> pool(threads, std::max<std::size_t>(1, 2 * threads),
                           [](std::uint64_t k, Item& item) {
                             if (k == kJobs) return false;
                             random_pause(k);
                             item.k = k;
                             return true;
                           });
    std::uint64_t want = 0;
    while (const Item* item = pool.take()) {
      ASSERT_EQ(item->k, want) << threads << " threads";
      ++want;
    }
    EXPECT_EQ(want, kJobs) << threads << " threads";
    EXPECT_EQ(pool.take(), nullptr);
  }
}

TEST(OrderedPool, NoJobStartsPastTheWindow) {
  constexpr std::uint64_t kJobs = 120;
  constexpr std::size_t kWindow = 3;
  for (const std::size_t threads : {1, 4}) {
    // The consumer counts a slot released before the pool does, so a job
    // the release admits already sees the new count.
    std::atomic<std::uint64_t> released{0};
    std::atomic<int> violations{0};
    OrderedPool<Item> pool(threads, kWindow, [&](std::uint64_t k, Item& item) {
      if (k >= released.load() + kWindow) ++violations;
      if (k == kJobs) return false;
      random_pause(k);
      item.k = k;
      return true;
    });
    for (std::uint64_t want = 0;; ++want) {
      const Item* item = pool.take();
      if (item == nullptr) break;
      ASSERT_EQ(item->k, want);
      // Hold the slot, so the workers run up to the window and wait.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ASSERT_EQ(item->k, want) << "a job wrote into the held slot";
      released.store(want + 1);
      pool.release();
    }
    EXPECT_EQ(violations.load(), 0) << threads << " threads";
  }
}

TEST(OrderedPool, ExceptionComesOutAtItsTurnAndNothingAfterIt) {
  constexpr std::uint64_t kThrower = 5;
  for (const std::size_t threads : {0, 3}) {
    // The earlier jobs are slow, so with workers job 5 throws first.
    OrderedPool<Item> pool(threads, 8, [](std::uint64_t k, Item& item) {
      if (k == kThrower) throw std::runtime_error("job 5 failed");
      if (k < kThrower) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      item.k = k;
      return true;
    });
    for (std::uint64_t want = 0; want < kThrower; ++want) {
      const Item* item = pool.take();
      ASSERT_NE(item, nullptr) << threads << " threads, slot " << want;
      EXPECT_EQ(item->k, want);
    }
    try {
      (void)pool.take();
      ADD_FAILURE() << threads << " threads: job 5 did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 5 failed");
    }
    EXPECT_EQ(pool.take(), nullptr) << threads << " threads";
    EXPECT_EQ(pool.take(), nullptr) << threads << " threads";
  }
}

TEST(OrderedPool, AJobThatReportsTheEndStopsFurtherClaims) {
  constexpr std::uint64_t kEnd = 10;
  for (const std::size_t threads : {0, 1}) {
    std::atomic<std::uint64_t> highest{0};
    {
      OrderedPool<Item> pool(threads, 4, [&](std::uint64_t k, Item& item) {
        highest.store(std::max(highest.load(), k));
        item.k = k;
        return k != kEnd;
      });
      std::uint64_t taken = 0;
      while (pool.take() != nullptr) ++taken;
      EXPECT_EQ(taken, kEnd);
      EXPECT_EQ(pool.take(), nullptr);
      // Give a worker that ignored the end time to claim the next job.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(highest.load(), kEnd) << threads << " threads";
  }
}

TEST(OrderedPool, ZeroThreadsRunEachJobOnTheCallerAtItsTurn) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on;
  OrderedPool<Item> pool(0, 4, [&](std::uint64_t k, Item& item) {
    ran_on.push_back(std::this_thread::get_id());
    item.k = k;
    return k < 3;
  });
  EXPECT_TRUE(ran_on.empty());
  ASSERT_NE(pool.take(), nullptr);
  EXPECT_EQ(ran_on.size(), 1u);
  while (pool.take() != nullptr) {
  }
  ASSERT_EQ(ran_on.size(), 4u);
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
}

TEST(OrderedPool, FedJobsStartOnlyOnceFed) {
  constexpr std::uint64_t kJobs = 50;
  for (const std::size_t threads : {0, 1, 2}) {
    std::atomic<int> unfed{0};
    OrderedPool<Item> pool(
        threads, 1,
        [&](std::uint64_t k, Item& item) {
          if (item.input != 3 * k) ++unfed;
          item.k = item.input + 1;
          return true;
        },
        OrderedPool<Item>::Start::Fed);
    // The writer's order: take and release job k - 1, then feed job k.
    std::uint64_t want = 0;
    for (std::uint64_t k = 0; k <= kJobs; ++k) {
      if (k > 0) {
        const Item* done = pool.take();
        ASSERT_NE(done, nullptr);
        EXPECT_EQ(done->k, 3 * want + 1);
        ++want;
        pool.release();
      }
      if (k == kJobs) break;
      random_pause(k);
      pool.feed_slot().input = 3 * k;
      pool.feed();
    }
    EXPECT_EQ(want, kJobs);
    EXPECT_EQ(unfed.load(), 0) << threads << " threads";
  }
}

TEST(OrderedPool, DestroyedMidStreamItJoinsItsWorkers) {
  // Runtimes such as TSan start a helper thread with the first thread
  // the process creates; start one here so the baseline includes it.
  std::thread([] {}).join();
  const std::size_t baseline = live_threads();
  constexpr std::size_t kThreads = 4;
  std::atomic<int> started{0};
  std::atomic<int> running{0};
  {
    OrderedPool<Item> pool(kThreads, kThreads,
                           [&](std::uint64_t k, Item& item) {
                             ++running;
                             ++started;
                             if (k >= 2) {
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(100));
                             }
                             item.k = k;
                             --running;
                             return true;  // never ends
                           });
    ASSERT_NE(pool.take(), nullptr);
    ASSERT_NE(pool.take(), nullptr);
    // Jobs 2 to 4 sleep, and the fourth worker waits on the window.
    for (int i = 0; i < 200 && started.load() < 5; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(started.load(), 5);
    if (baseline != 0) {
      EXPECT_GE(live_threads(), baseline + kThreads);
    }
  }
  EXPECT_EQ(running.load(), 0) << "the destructor returned before its jobs";
  if (baseline != 0) {
    EXPECT_TRUE(threads_settle(baseline));
  }
}

}  // namespace
}  // namespace tdt
