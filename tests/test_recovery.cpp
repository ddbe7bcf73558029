// Failure detection and recovery: robust locks that survive a dead
// holder, the reap() sweep (journal resolution, connection closure with
// last-connection semantics, block reclamation), the failure statuses
// blocked callers observe, and the close-vs-blocked-receive race on every
// backend (threads, fork, simulator).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "mpf/core/facility.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/sim/sim_platform.hpp"
#include "mpf/sim/trace.hpp"

namespace {

using namespace mpf;
using sim::SimPlatform;
using sim::Simulator;

Config small_config() {
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  c.block_payload = 10;
  c.message_blocks = 1024;
  c.suspicion_ns = 1'000'000;  // 1 ms
  return c;
}

struct SimFixture {
  Config config;
  Simulator sim;
  SimPlatform platform{sim};
  shm::HeapRegion region;
  Facility facility;

  explicit SimFixture(Config c = small_config())
      : config(c),
        region(c.derived_arena_bytes()),
        facility(Facility::create(c, region, platform)) {}
};

// ---- robust locks at the simulator level --------------------------------

TEST(RobustLock, WaiterSeizesFromDeadHolder) {
  Simulator sim;
  sim::Trace trace;
  sim.set_trace(&trace);
  sim::FaultPlan plan;
  sim::FaultAction kill;
  kill.kind = sim::FaultAction::Kind::kill_at_time;
  kill.process = 0;
  kill.at_ns = 500;
  plan.actions.push_back(kill);
  sim.set_fault_plan(plan);

  int cell = 0;  // any address works as a virtual mutex key
  bool seized = false;
  std::uint32_t seized_from = 0;
  sim.spawn([&] {
    sim.mutex_lock(&cell);
    sim.advance(10'000);  // the kill fires here, lock still held
    sim.mutex_unlock(&cell);
  });
  sim.spawn([&] {
    sim.advance(1'000);
    RobustOp op;
    op.tag = sync::SpinLock::tag_for(1);
    op.suspicion_ns = 2'000;
    op.alive = [](void*, std::uint32_t) { return false; };
    sim.mutex_lock_robust(&cell, op);
    seized = op.seized;
    seized_from = op.seized_from;
    sim.mutex_unlock(&cell);
  });
  sim.run();

  EXPECT_EQ(sim.kills(), 1u);
  EXPECT_FALSE(sim.process_alive(0));
  EXPECT_TRUE(sim.process_alive(1));
  EXPECT_TRUE(seized);
  EXPECT_EQ(sync::SpinLock::pid_of(seized_from), 0u);
  EXPECT_EQ(trace.count(sim::TraceKind::fault_injected), 1u);
  EXPECT_GE(trace.count(sim::TraceKind::recovery), 1u);
}

TEST(RobustLock, ZeroSuspicionNeverSeizes) {
  // suspicion_ns == 0 must behave like a plain lock: the waiter simply
  // waits (and is woken when the dying holder abandons the mutex — the
  // seizure happens only for suspecting waiters, so this one relies on the
  // next unlock).  Here the holder lives and unlocks normally.
  Simulator sim;
  int cell = 0;
  bool waiter_ran = false;
  sim.spawn([&] {
    sim.mutex_lock(&cell);
    sim.advance(5'000);
    sim.mutex_unlock(&cell);
  });
  sim.spawn([&] {
    sim.advance(100);
    RobustOp op;
    op.tag = sync::SpinLock::tag_for(1);
    op.suspicion_ns = 0;
    sim.mutex_lock_robust(&cell, op);
    EXPECT_FALSE(op.seized);
    waiter_ran = true;
    sim.mutex_unlock(&cell);
  });
  sim.run();
  EXPECT_TRUE(waiter_ran);
}

// ---- robust locks on the native base path -------------------------------

/// The base Platform::lock_robust over real spinlocks, with a wall clock
/// that counts its reads.
class ClockCountingPlatform final : public Platform {
 public:
  void lock(sync::SpinLock& cell) override { cell.lock(); }
  void unlock(sync::SpinLock& cell) override { cell.unlock(); }
  bool wait_for(sync::SpinLock&, sync::EventCount&, std::uint64_t,
                RobustOp*) override {
    ADD_FAILURE() << "lock_robust must not wait";
    return false;
  }
  void notify_all(sync::EventCount&) override {}
  [[nodiscard]] std::uint64_t now_ns() const override {
    clock_reads.fetch_add(1, std::memory_order_relaxed);
    return sync::steady_now_ns();
  }
  [[nodiscard]] const char* name() const noexcept override {
    return "clock-counting";
  }

  mutable std::atomic<std::uint64_t> clock_reads{0};
};

/// Liveness probe whose verdict is fixed; counts how often it was asked.
struct Probe {
  bool verdict_alive;
  std::atomic<int> calls{0};

  static bool ask(void* ctx, std::uint32_t) {
    auto* self = static_cast<Probe*>(ctx);
    self->calls.fetch_add(1, std::memory_order_relaxed);
    return self->verdict_alive;
  }
};

RobustOp probing_op(Probe& probe, std::uint64_t suspicion_ns) {
  RobustOp op;
  op.tag = sync::SpinLock::tag_for(1);
  op.alive = &Probe::ask;
  op.ctx = &probe;
  op.suspicion_ns = suspicion_ns;
  return op;
}

TEST(NativeRobustLock, FreeCellReadsNoClock) {
  ClockCountingPlatform platform;
  Probe probe{false};
  sync::SpinLock cell;
  RobustOp op = probing_op(probe, 100'000'000);
  platform.lock_robust(cell, op);
  EXPECT_EQ(platform.clock_reads.load(), 0u);
  EXPECT_EQ(cell.holder_tag(), op.tag);
  EXPECT_FALSE(op.seized);
  EXPECT_EQ(probe.calls.load(), 0);
  cell.unlock();
}

TEST(NativeRobustLock, DeadHolderSeizedNoSoonerThanSuspicion) {
  constexpr std::uint64_t kSuspicionNs = 2'000'000;
  ClockCountingPlatform platform;
  Probe probe{false};
  sync::SpinLock cell;
  cell.lock_tagged(sync::SpinLock::tag_for(7));  // never released
  RobustOp op = probing_op(probe, kSuspicionNs);
  const std::uint64_t began = sync::steady_now_ns();
  platform.lock_robust(cell, op);
  const std::uint64_t took = sync::steady_now_ns() - began;
  EXPECT_TRUE(op.seized);
  EXPECT_EQ(op.seized_from, sync::SpinLock::tag_for(7));
  EXPECT_EQ(cell.holder_tag(), op.tag);
  EXPECT_GE(took, kSuspicionNs);
  EXPECT_GE(probe.calls.load(), 1);
  cell.unlock();
}

TEST(NativeRobustLock, LiveSlowHolderIsNeverSeized) {
  constexpr std::uint64_t kSuspicionNs = 2'000'000;
  ClockCountingPlatform platform;
  Probe probe{true};
  sync::SpinLock cell;
  cell.lock_tagged(sync::SpinLock::tag_for(7));
  std::atomic<bool> released{false};
  bool released_before_acquire = false;
  RobustOp op = probing_op(probe, kSuspicionNs);
  std::atomic<bool> entered{false};
  std::thread waiter([&] {
    entered.store(true);
    platform.lock_robust(cell, op);
    released_before_acquire = released.load();
    cell.unlock();
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::nanoseconds(3 * kSuspicionNs));
  released.store(true);
  cell.unlock();
  waiter.join();
  EXPECT_FALSE(op.seized);
  EXPECT_TRUE(released_before_acquire);
  EXPECT_GE(probe.calls.load(), 1);
}

TEST(NativeRobustLock, ZeroSuspicionReadsNoClockAndNeverSeizes) {
  ClockCountingPlatform platform;
  Probe probe{false};  // would condemn the holder if it were asked
  sync::SpinLock cell;
  cell.lock_tagged(sync::SpinLock::tag_for(7));
  RobustOp op = probing_op(probe, 0);
  std::atomic<bool> entered{false};
  std::thread waiter([&] {
    entered.store(true);
    platform.lock_robust(cell, op);
    cell.unlock();
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  cell.unlock();
  waiter.join();
  EXPECT_FALSE(op.seized);
  EXPECT_EQ(platform.clock_reads.load(), 0u);
  EXPECT_EQ(probe.calls.load(), 0);
}

// ---- reap semantics (native, via declare_dead) --------------------------

TEST(Reap, ClosesConnectionsReturnsBlocksWakesReceiver) {
  const Config c = small_config();
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  LnvcId tx = kInvalidLnvc, rx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(2, "wire", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(0, "wire", Protocol::fcfs, &rx), Status::ok);
  const char payload[] = "dying breath";
  ASSERT_EQ(f.send(2, tx, payload, sizeof(payload)), Status::ok);

  // Simulate the death of process 2 (an external detector's verdict).
  f.declare_dead(2);
  EXPECT_FALSE(f.process_alive(2));
  ASSERT_EQ(f.reap(0, 2), Status::ok);

  const FacilityStats stats = f.stats();
  EXPECT_EQ(stats.reaps, 1u);
  EXPECT_GE(stats.reaped_connections, 1u);

  // The queued message survives the reap (it was fully linked)...
  char buf[32] = {};
  std::size_t len = 0;
  ASSERT_EQ(f.receive(0, rx, buf, sizeof(buf), &len), Status::ok);
  EXPECT_STREQ(buf, payload);
  // ...and with the last sender dead (not cleanly closed), a further
  // blocking receive reports the circuit orphaned instead of hanging.
  EXPECT_EQ(f.receive(0, rx, buf, sizeof(buf), &len),
            Status::lnvc_orphaned);

  const BlockAudit audit = f.block_audit();
  EXPECT_TRUE(audit.consistent());
  EXPECT_EQ(audit.in_flight(), 0u);
}

TEST(Reap, LastConnectionDeathDestroysLnvc) {
  const Config c = small_config();
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  LnvcId tx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(3, "solo", &tx), Status::ok);
  const char payload[] = "unread";
  ASSERT_EQ(f.send(3, tx, payload, sizeof(payload)), Status::ok);
  ASSERT_TRUE(f.lnvc_exists("solo"));

  f.declare_dead(3);
  ASSERT_EQ(f.reap(0, 3), Status::ok);
  // Dead process held the only connection: the LNVC dies with it and its
  // queued message's blocks return to the pool.
  EXPECT_FALSE(f.lnvc_exists("solo"));
  const BlockAudit audit = f.block_audit();
  EXPECT_TRUE(audit.consistent());
  EXPECT_EQ(audit.in_flight(), 0u);
  EXPECT_EQ(audit.blocks_queued, 0u);
}

TEST(Reap, RejectsLiveProcessAndSelf) {
  const Config c = small_config();
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  LnvcId tx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(1, "wire", &tx), Status::ok);
  EXPECT_EQ(f.reap(0, 1), Status::invalid_argument);  // alive
  EXPECT_EQ(f.reap(1, 1), Status::invalid_argument);  // self
  EXPECT_EQ(f.reap(0, 99), Status::invalid_argument);
  EXPECT_EQ(f.reap(0, 5), Status::ok);  // never participated: no-op
}

TEST(Reap, OrphanReportNamesDeadProcess) {
  const Config c = small_config();
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  LnvcId tx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(2, "wire", &tx), Status::ok);
  f.declare_dead(2);
  bool found = false;
  for (const OrphanInfo& o : f.orphan_infos()) {
    if (o.pid == 2) {
      found = true;
      EXPECT_FALSE(o.os_alive);
      EXPECT_GE(o.connections, 1u);
    }
  }
  EXPECT_TRUE(found);
}

// ---- close racing a blocked receive (satellite: all three backends) -----

TEST(CloseRace, ThreadsBlockedReceiveSeesClosed) {
  const Config c = small_config();
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  LnvcId tx = kInvalidLnvc, rx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "race", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "race", Protocol::fcfs, &rx), Status::ok);

  std::atomic<bool> entered{false};
  Status got = Status::ok;
  std::thread receiver([&] {
    char buf[16];
    std::size_t len = 0;
    entered.store(true);
    got = f.receive(1, rx, buf, sizeof(buf), &len);
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Close the blocked receiver's own connection out from under it, then
  // the sender's (destroying the LNVC).
  ASSERT_EQ(f.close_receive(1, rx), Status::ok);
  ASSERT_EQ(f.close_send(0, tx), Status::ok);
  receiver.join();
  EXPECT_EQ(got, Status::closed);
}

TEST(CloseRace, ForkBlockedReceiveSeesClosed) {
  const Config c = small_config();
  shm::AnonSharedRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  LnvcId tx = kInvalidLnvc, rx = kInvalidLnvc, ready_rx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "race", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "race", Protocol::fcfs, &rx), Status::ok);
  ASSERT_EQ(f.open_receive(0, "race.ready", Protocol::fcfs, &ready_rx),
            Status::ok);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    LnvcId ready_tx = kInvalidLnvc;
    if (f.open_send(1, "race.ready", &ready_tx) != Status::ok) _exit(29);
    const int token = 1;
    if (f.send(1, ready_tx, &token, sizeof(token)) != Status::ok) _exit(29);
    char buf[16];
    std::size_t len = 0;
    const Status s = f.receive(1, rx, buf, sizeof(buf), &len);
    _exit(s == Status::closed ? 0 : 30 + static_cast<int>(s));
  }
  // Wait for the child's ready token, then give it a generous window to
  // travel the few instructions from that send into the blocked receive.
  int token = 0;
  std::size_t len = 0;
  ASSERT_EQ(f.receive(0, ready_rx, &token, sizeof(token), &len), Status::ok);
  ::usleep(50'000);
  ASSERT_EQ(f.close_receive(1, rx), Status::ok);
  ASSERT_EQ(f.close_send(0, tx), Status::ok);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child exit " << WEXITSTATUS(status);
}

TEST(CloseRace, SimBlockedReceiveSeesClosed) {
  SimFixture fx;
  LnvcId tx = kInvalidLnvc, rx = kInvalidLnvc;
  ASSERT_EQ(fx.facility.open_send(0, "race", &tx), Status::ok);
  ASSERT_EQ(fx.facility.open_receive(1, "race", Protocol::fcfs, &rx),
            Status::ok);
  Status got = Status::ok;
  fx.sim.spawn([&] {
    // Process 0 closes both ends while process 1 is parked in receive
    // (the receiver's fixed receive charge is ~3.1 ms of virtual time, so
    // close well after it has actually blocked).
    fx.sim.advance(20'000'000);
    ASSERT_EQ(fx.facility.close_receive(1, rx), Status::ok);
    ASSERT_EQ(fx.facility.close_send(0, tx), Status::ok);
  });
  fx.sim.spawn([&] {
    char buf[16];
    std::size_t len = 0;
    got = fx.facility.receive(1, rx, buf, sizeof(buf), &len);
  });
  fx.sim.run();
  EXPECT_EQ(got, Status::closed);
}

// ---- blocked receiver self-heals from a dead sender (sim) ---------------

TEST(Recovery, BlockedReceiverOrphanedWhenSenderDies) {
  SimFixture fx;
  sim::FaultPlan plan;
  sim::FaultAction kill;
  kill.kind = sim::FaultAction::Kind::kill_at_send;
  kill.process = 0;
  kill.count = 3;
  plan.actions.push_back(kill);
  fx.sim.set_fault_plan(plan);

  Status got = Status::ok;
  int delivered = 0;
  fx.sim.spawn([&] {
    LnvcId tx = kInvalidLnvc;
    ASSERT_EQ(fx.facility.open_send(0, "feed", &tx), Status::ok);
    const int v = 7;
    for (int i = 0; i < 10; ++i) {
      (void)fx.facility.send(0, tx, &v, sizeof(v));  // dies at the 3rd
    }
  });
  fx.sim.spawn([&] {
    LnvcId rx = kInvalidLnvc;
    ASSERT_EQ(fx.facility.open_receive(1, "feed", Protocol::fcfs, &rx),
              Status::ok);
    for (;;) {
      int v = 0;
      std::size_t len = 0;
      const Status s = fx.facility.receive(1, rx, &v, sizeof(v), &len);
      if (s != Status::ok) {
        got = s;
        break;
      }
      ++delivered;
    }
  });
  fx.sim.run();

  EXPECT_EQ(fx.sim.kills(), 1u);
  // Whatever was fully sent arrives; then the blocked receiver must not
  // hang — the suspicion probe finds the dead sender and reports the
  // circuit orphaned.
  EXPECT_EQ(got, Status::lnvc_orphaned);
  EXPECT_LE(delivered, 3);
  const FacilityStats stats = fx.facility.stats();
  EXPECT_GE(stats.reaps, 1u);
  EXPECT_GE(stats.orphaned_receives, 1u);
  const BlockAudit audit = fx.facility.block_audit();
  EXPECT_TRUE(audit.consistent());
}

}  // namespace
