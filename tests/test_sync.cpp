// Synchronization primitives: mutual exclusion, fairness, barriers, and
// the Parker wait word every blocking wait sleeps on — all as
// process-shared PODs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "mpf/sync/barrier.hpp"
#include "mpf/sync/parker.hpp"
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
  const std::uint32_t ticket = Parker::prepare(ec);
  std::thread waiter([&] {
    EXPECT_TRUE(Parker::park(ec, ticket, kNoParkDeadline, 0));
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  Parker::wake(ec);
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(EventCount, NotifyBeforeWaitIsNotLost) {
  EventCount ec;
  const std::uint32_t ticket = Parker::prepare(ec);
  Parker::wake(ec);
  // Returns at once, spin or no spin: the epoch already moved.
  EXPECT_TRUE(Parker::park(ec, ticket, kNoParkDeadline, 0));
  EXPECT_TRUE(Parker::park(ec, ticket, kNoParkDeadline, 1'000'000));
  // Nobody ever slept, so the wake left no sleeper flag behind.
  EXPECT_EQ(ec.epoch.load() & Parker::kSleeper, 0u);
}

TEST(Parker, DeadlineExpiresNeverEarly) {
  WaitNode node;
  const std::uint32_t ticket = Parker::prepare(node);
  // Sub-tick, tick-scale and long remainders, with and without a spin
  // budget longer than the wait: expiry is decided against the clock.
  for (const std::uint64_t wait_ns :
       {std::uint64_t{1}, std::uint64_t{700}, std::uint64_t{20'000},
        std::uint64_t{1'000'000}, std::uint64_t{30'000'000}}) {
    for (const std::uint64_t spin_ns : {std::uint64_t{0}, 2 * wait_ns}) {
      const std::uint64_t deadline = steady_now_ns() + wait_ns;
      EXPECT_FALSE(Parker::park(node, ticket, deadline, spin_ns));
      EXPECT_GE(steady_now_ns(), deadline)
          << wait_ns << " ns, spin " << spin_ns;
    }
  }
  // A wake before the deadline ends the wait early with true.
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Parker::wake(node);
  });
  EXPECT_TRUE(
      Parker::park(node, ticket, steady_now_ns() + 5'000'000'000ull, 0));
  waker.join();
}

TEST(Parker, WakeAllRousesEverySleeper) {
  WaitNode node;
  constexpr int kSleepers = 8;
  const std::uint32_t ticket = Parker::prepare(node);
  std::atomic<int> woken{0};
  std::vector<std::thread> sleepers;
  for (int i = 0; i < kSleepers; ++i) {
    sleepers.emplace_back([&] {
      if (Parker::park(node, ticket, steady_now_ns() + 10'000'000'000ull, 0)) {
        woken.fetch_add(1);
      }
    });
  }
  // Give every sleeper time to reach its sleep.
  while ((node.epoch.load() & Parker::kSleeper) == 0) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(woken.load(), 0);
  Parker::wake(node);
  for (auto& t : sleepers) t.join();
  EXPECT_EQ(woken.load(), kSleepers);
  EXPECT_EQ(node.epoch.load() & Parker::kSleeper, 0u);
}

TEST(Parker, WakeRacingTheSleeperBitNeverHangs) {
  // Each round the sleeper snapshots, publishes the round, and parks; the
  // waker wakes as soon as it sees the round.  The wake lands anywhere
  // from before the sleeper's flagging CAS to after its FUTEX_WAIT; a lost
  // one would hold the park to its 10 s deadline.
  constexpr std::uint32_t kRounds = 100'000;
  WaitNode node;
  std::atomic<std::uint32_t> round{0};
  std::thread waker([&] {
    for (std::uint32_t i = 1; i <= kRounds; ++i) {
      while (round.load(std::memory_order_acquire) < i) {
        std::this_thread::yield();
      }
      Parker::wake(node);
    }
  });
  std::uint32_t lost = 0;
  for (std::uint32_t i = 1; i <= kRounds; ++i) {
    const std::uint32_t ticket = Parker::prepare(node);
    round.store(i, std::memory_order_release);
    if (!Parker::park(node, ticket, steady_now_ns() + 10'000'000'000ull, 0)) {
      ++lost;
      break;
    }
  }
  if (lost != 0) round.store(kRounds + 1);  // let the waker finish
  waker.join();
  EXPECT_EQ(lost, 0u);
}

TEST(Parker, SpinsTheFullBudgetOnlyAfterASleepItWouldHaveSaved) {
  // The sleeper bit tells a spinning park from a sleeping one.  A fresh
  // thread spins 1/16 of the budget; after a sleep that ended within the
  // budget it spins all of it, until a park expires.
  constexpr std::uint64_t kSpinNs = 2'000'000'000;  // short spin: 125 ms
  WaitNode node;
  std::atomic<int> started{0};
  std::thread parker([&] {
    for (int i = 0; i < 4; ++i) {
      const std::uint32_t ticket = Parker::prepare(node);
      started.store(i + 1);
      const std::uint64_t deadline =
          i == 2 ? steady_now_ns() + 10'000'000 : kNoParkDeadline;
      EXPECT_EQ(Parker::park(node, ticket, deadline, kSpinNs), i != 2) << i;
    }
  });
  auto await_start = [&](int park) {
    while (started.load() < park) std::this_thread::yield();
  };
  auto expect_short_spin = [&] {
    const std::uint64_t t0 = steady_now_ns();
    while ((node.epoch.load() & Parker::kSleeper) == 0) {
      std::this_thread::yield();
    }
    EXPECT_LT(steady_now_ns() - t0, kSpinNs / 2);
    Parker::wake(node);
  };
  await_start(1);  // fresh thread: short spin, then a sleep ended early
  expect_short_spin();
  await_start(2);  // so this park spins the whole budget
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(node.epoch.load() & Parker::kSleeper, 0u);
  Parker::wake(node);
  await_start(4);  // park 3 expired, so park 4 is back to the short spin
  expect_short_spin();
  parker.join();
}

TEST(Parker, SpinCatchesAMicrosecondHandOff) {
  // A wake 50 µs into a park lands in its spin phase: the parker never
  // flags itself a sleeper.  Park 1 sleeps and is woken at once, which
  // earns the thread the full 16 ms spin, as a pipeline thread has it;
  // park 2 is the hand-off.  The waker watches the word until it wakes.
  WaitNode node;
  std::atomic<int> started{0};
  std::thread parker([&] {
    for (int i = 1; i <= 2; ++i) {
      const std::uint32_t ticket = Parker::prepare(node);
      started.store(i);
      const std::uint64_t deadline = steady_now_ns() + 10'000'000'000ull;
      EXPECT_TRUE(Parker::park(node, ticket, deadline, kDefaultParkSpinNs))
          << i;
    }
  });
  while (started.load() < 1) std::this_thread::yield();
  while ((node.epoch.load() & Parker::kSleeper) == 0) {
    std::this_thread::yield();
  }
  Parker::wake(node);
  while (started.load() < 2) std::this_thread::yield();
  bool flagged = false;
  const std::uint64_t wake_at = steady_now_ns() + 50'000;
  while (steady_now_ns() < wake_at) {
    flagged |= (node.epoch.load() & Parker::kSleeper) != 0;
  }
  Parker::wake(node);
  parker.join();
  EXPECT_FALSE(flagged);
}

TEST(SpinPoll, ReturnsOnceDoneAndNeverBeforeItsEnd) {
  int reads = 0;
  EXPECT_TRUE(spin_poll([&] { return ++reads == 5; }, steady_now_ns(),
                        kNoParkDeadline));
  EXPECT_EQ(reads, 5);
  // An end already passed still reads the word once.
  reads = 0;
  EXPECT_FALSE(spin_poll([&] { return ++reads, false; }, steady_now_ns(), 0));
  EXPECT_EQ(reads, 1);
  // A word that never moves: false, through the yield phase, and never
  // before the end.
  const std::uint64_t end = steady_now_ns() + 2 * kSpinPollYieldNs;
  EXPECT_FALSE(spin_poll([] { return false; }, steady_now_ns(), end));
  EXPECT_GE(steady_now_ns(), end);
}

}  // namespace
