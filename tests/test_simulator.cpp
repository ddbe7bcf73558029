// Unit tests of the discrete-event simulator: scheduling order,
// determinism, virtual mutexes/conditions, deadlock detection, the bus
// reservation model and the paging model.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpf/sim/simulator.hpp"
#include "mpf/sync/parker.hpp"
#include "mpf/sync/spinlock.hpp"

namespace {

using namespace mpf;
using sim::MachineModel;
using sim::Simulator;

TEST(Simulator, RunsEveryProcessToCompletion) {
  Simulator sim;
  std::vector<int> done(8, 0);
  sim.spawn_group(8, [&](int rank) { done[rank] = 1; });
  sim.run();
  EXPECT_EQ(std::accumulate(done.begin(), done.end(), 0), 8);
}

TEST(Simulator, AdvanceOrdersExecutionByVirtualTime) {
  // Process 0 advances in big steps, process 1 in small steps; the
  // interleaving must follow virtual time, not spawn order.
  Simulator sim;
  std::vector<std::pair<int, sim::Time>> trace;
  sim.spawn([&] {
    for (int i = 0; i < 3; ++i) {
      sim.advance(100);
      trace.emplace_back(0, sim.now());
    }
  });
  sim.spawn([&] {
    for (int i = 0; i < 6; ++i) {
      sim.advance(50);
      trace.emplace_back(1, sim.now());
    }
  });
  sim.run();
  ASSERT_EQ(trace.size(), 9u);
  // Events must be non-decreasing in virtual time.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].second, trace[i].second)
        << "event " << i << " ran out of virtual-time order";
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    sync::SpinLock lock;
    for (int p = 0; p < 6; ++p) {
      sim.spawn([&, p] {
        for (int i = 0; i < 5; ++i) {
          sim.mutex_lock(&lock);
          sim.advance(100 + 37 * p);
          order.push_back(p);
          sim.mutex_unlock(&lock);
          sim.advance(11 * (p + 1));
        }
      });
    }
    sim.run();
    return order;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 30u);
}

TEST(Simulator, MutexProvidesExclusionInVirtualTime) {
  Simulator sim;
  sync::SpinLock lock;
  int in_section = 0;
  int max_in_section = 0;
  sim.spawn_group(8, [&](int) {
    for (int i = 0; i < 10; ++i) {
      sim.mutex_lock(&lock);
      ++in_section;
      max_in_section = std::max(max_in_section, in_section);
      sim.advance(500);
      --in_section;
      sim.mutex_unlock(&lock);
    }
  });
  sim.run();
  EXPECT_EQ(max_in_section, 1);
  // 80 critical sections of 500 ns serialized => makespan >= 40 us.
  EXPECT_GE(sim.elapsed(), 40'000u);
}

TEST(Simulator, CondWaitWakesOnNotify) {
  Simulator sim;
  sync::SpinLock lock;
  sync::EventCount cond;
  bool flag = false;
  sim::Time waiter_done = 0;
  sim.spawn([&] {
    sim.mutex_lock(&lock);
    while (!flag) sim.cond_wait_for(&lock, &cond, ~std::uint64_t{0});
    waiter_done = sim.now();
    sim.mutex_unlock(&lock);
  });
  sim.spawn([&] {
    sim.advance(1'000'000);
    sim.mutex_lock(&lock);
    flag = true;
    sim.mutex_unlock(&lock);
    sim.cond_notify_all(&cond);
  });
  sim.run();
  // Waiter resumed at/after the notifier's clock plus the wakeup charge.
  EXPECT_GE(waiter_done, 1'000'000u);
}

TEST(Simulator, DeadlockIsDetected) {
  Simulator sim;
  sync::SpinLock lock;
  sync::EventCount cond;
  sim.spawn([&] {
    sim.mutex_lock(&lock);
    sim.cond_wait_for(&lock, &cond, ~std::uint64_t{0});  // nobody notifies
    sim.mutex_unlock(&lock);
  });
  sim.spawn([&] { sim.advance(10); });
  EXPECT_THROW(sim.run(), sim::DeadlockError);
}

TEST(Simulator, ExceptionInProcessPropagates) {
  Simulator sim;
  sim.spawn([&] { throw std::runtime_error("boom"); });
  sim.spawn([&] { sim.advance(1); });
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulator, BusSerializesConcurrentCopies) {
  // Two processes each copy 1 MB with a CPU cost of ~0: the bus must
  // serialize them, so the makespan is >= 2x the single-transfer time.
  MachineModel m;
  m.copy_ns_per_byte = 0;
  m.block_overhead_ns = 0;
  m.bus_fraction = 1.0;
  Simulator sim(m);
  sim.spawn_group(2, [&](int) { sim.charge_copy(1 << 20, 0); });
  sim.run();
  const double one = (1 << 20) * m.bus_ns_per_byte;
  EXPECT_GE(sim.elapsed(), static_cast<sim::Time>(2 * one * 0.99));
  EXPECT_GE(sim.bus_busy_ns(), static_cast<std::uint64_t>(2 * one * 0.99));
}

TEST(Simulator, CpuBoundCopiesOverlap) {
  // With a large CPU cost per byte the bus never binds, so two copies on
  // two processors overlap almost entirely.
  MachineModel m = MachineModel::balance21000();
  Simulator sim(m);
  sim.spawn_group(2, [&](int) { sim.charge_copy(1024, 0); });
  sim.run();
  const double one = 1024 * m.copy_ns_per_byte;
  EXPECT_LT(sim.elapsed(), static_cast<sim::Time>(1.2 * one));
}

TEST(Simulator, PagingChargesOnlyAbovePressure) {
  MachineModel m;
  m.resident_bytes = 1024;
  Simulator sim(m);
  sim.spawn([&] {
    sim.charge_touch(4096);  // footprint 0: free
    EXPECT_EQ(sim.page_faults(), 0u);
    sim.footprint_alloc(100'000);  // far above the threshold
    sim.charge_touch(4096);
    EXPECT_GT(sim.page_faults(), 0u);
    sim.footprint_free(100'000);
    EXPECT_EQ(sim.footprint(), 0u);
  });
  sim.run();
  EXPECT_GT(sim.elapsed(), 0u);
}

TEST(Simulator, SpawnAfterRunIsRejected) {
  Simulator sim;
  sim.spawn([] {});
  sim.run();
  EXPECT_THROW(sim.spawn([] {}), std::logic_error);
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulator, ElapsedIsMakespanOverProcesses) {
  Simulator sim;
  sim.spawn([&] { sim.advance(500); });
  sim.spawn([&] { sim.advance(9'000); });
  sim.spawn([&] { sim.advance(100); });
  sim.run();
  EXPECT_EQ(sim.elapsed(), 9'000u);
}

}  // namespace
