// Synchronization primitives: mutual exclusion, fairness, barriers,
// eventcounts — all as process-shared PODs.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "mpf/sync/backoff.hpp"
#include "mpf/sync/barrier.hpp"
#include "mpf/sync/event_count.hpp"
#include "mpf/sync/spinlock.hpp"

namespace {

using namespace mpf::sync;

template <typename Lock>
void exclusion_test() {
  Lock lock;
  std::uint64_t counter = 0;
  constexpr int kThreads = 6;
  constexpr int kRounds = 20'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        lock.lock();
        ++counter;  // data race unless the lock works
        lock.unlock();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kRounds);
}

TEST(SpinLock, MutualExclusion) { exclusion_test<SpinLock>(); }

TEST(SpinLock, TryLock) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_TRUE(lock.is_locked());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_FALSE(lock.is_locked());
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(SpinLock, LockCountingReportsZeroUncontended) {
  SpinLock lock;
  EXPECT_EQ(lock.lock_counting(), 0u);
  lock.unlock();
}

TEST(SenseBarrier, SynchronizesPhases) {
  constexpr int kThreads = 5;
  constexpr int kPhases = 200;
  SenseBarrier barrier(kThreads);
  std::atomic<int> phase_sum{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        phase_sum.fetch_add(1);
        barrier.arrive_and_wait();
        // After the barrier every thread of this phase has contributed.
        EXPECT_GE(phase_sum.load(), (p + 1) * kThreads);
        barrier.arrive_and_wait();  // second barrier before next phase
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(phase_sum.load(), kThreads * kPhases);
}

TEST(SenseBarrier, SingleParticipantNeverBlocks) {
  SenseBarrier barrier(1);
  for (int i = 0; i < 10; ++i) barrier.arrive_and_wait();
  EXPECT_EQ(barrier.participants(), 1u);
}

TEST(EventCount, NotifyWakesWaiter) {
  EventCount ec;
  std::atomic<bool> woke{false};
  const auto ticket = ec.prepare_wait();
  std::thread waiter([&] {
    ec.wait(ticket);
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  ec.notify_all();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(EventCount, NotifyBeforeWaitIsNotLost) {
  EventCount ec;
  const auto ticket = ec.prepare_wait();
  ec.notify_all();
  ec.wait(ticket);  // returns immediately: generation moved
  SUCCEED();
}

TEST(EventCount, WaitRoundsGivesUp) {
  EventCount ec;
  const auto ticket = ec.prepare_wait();
  EXPECT_FALSE(ec.wait_rounds(ticket, 8));  // nothing notifies
  ec.notify_all();
  EXPECT_TRUE(ec.wait_rounds(ticket, 8));
}

TEST(Backoff, RoundsGrow) {
  Backoff backoff;
  EXPECT_EQ(backoff.rounds(), 0u);
  for (int i = 0; i < 10; ++i) backoff.pause();
  EXPECT_EQ(backoff.rounds(), 10u);
  backoff.reset();
  EXPECT_EQ(backoff.rounds(), 0u);
}

TEST(Backoff, SleepStageIsBounded) {
  BackoffPolicy policy;
  policy.spin_limit = 2;
  policy.yield_limit = 2;
  policy.sleep_min_ns = 1000;
  policy.sleep_max_ns = 2000;
  Backoff backoff(policy);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) backoff.pause();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // 16 sleep rounds capped at 2 us each, plus scheduling slop.
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
}

}  // namespace
