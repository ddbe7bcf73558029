// Two-tier lock-free FCFS delivery (DESIGN.md §12): senders CAS messages
// onto the per-circuit injection stack, lock holders splice them into the
// FIFO, and idle receivers sleep on futex-class wait nodes instead of the
// descriptor condition.  The suite covers the hand-off invariants the
// design argues for: nothing is lost or duplicated through the stack,
// every park is paired with a wake, a blocked receive_any pays nothing
// for traffic on circuits it does not list, and a receiver that dies
// *while parked* neither wedges the circuit nor loses the messages it
// would have taken — by simulated kill and by real SIGKILL across fork.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <vector>

#include "mpf/apps/coordination.hpp"
#include "mpf/benchlib/simrun.hpp"
#include "mpf/benchlib/workloads.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/core/ports.hpp"
#include "mpf/runtime/timer.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/sim/fault.hpp"

namespace {

using namespace mpf;
using namespace mpf::benchlib;

Config lockfree_config() {
  Config c;
  c.max_lnvcs = 16;
  c.max_processes = 32;
  c.block_payload = 10;
  c.message_blocks = 8192;
  c.suspicion_ns = 1'000'000;  // 1 ms of virtual time
  c.lockfree_fcfs = true;
  return c;
}

/// Virtual-time sleep inside a simulated worker: a timed receive on a
/// private circuit nobody sends to expires after exactly `ns`.
void sim_sleep(Facility& f, ProcessId pid, LnvcId delay, std::uint64_t ns) {
  char b[8];
  std::size_t got = 0;
  (void)f.receive(pid, delay, b, sizeof(b), &got, ns);
}

// ------------------------------------------------------------- fast path

TEST(SimLockfree, FunnelDeliversEverythingOnTheFastPath) {
  constexpr int kRecv = 2;
  constexpr int kSend = 16;
  constexpr int kProcs = kRecv + kSend;
  constexpr int kPerSender = 20;
  constexpr std::size_t kLen = 48;
  std::atomic<int> delivered{0};
  std::uint64_t fast_sends = 0;
  const ChaosMetrics m = run_chaos(
      lockfree_config(), kProcs, sim::FaultPlan{},
      [&](Facility f, int rank) {
        const auto pid = static_cast<ProcessId>(rank);
        if (rank < kRecv) {
          LnvcId rx = kInvalidLnvc;
          ASSERT_EQ(f.open_receive(pid, "funnel", Protocol::fcfs, &rx),
                    Status::ok);
          apps::startup_barrier(f, pid, kProcs, "funnel.join");
          char buf[256];
          for (;;) {
            std::size_t len = 0;
            ASSERT_EQ(f.receive(pid, rx, buf, sizeof(buf), &len), Status::ok);
            if (len == 0) break;  // poison
            EXPECT_EQ(len, kLen);
            delivered.fetch_add(1, std::memory_order_relaxed);
          }
          if (rank == 0) fast_sends = f.stats().lockfree_fast_sends;
          ASSERT_EQ(f.close_receive(pid, rx), Status::ok);
        } else {
          LnvcId tx = kInvalidLnvc;
          ASSERT_EQ(f.open_send(pid, "funnel", &tx), Status::ok);
          apps::startup_barrier(f, pid, kProcs, "funnel.join");
          char buf[kLen] = {'m'};
          for (int i = 0; i < kPerSender; ++i) {
            ASSERT_EQ(f.send(pid, tx, buf, kLen), Status::ok);
          }
          // Senders rendezvous, then the lowest rank poisons: FCFS order
          // puts both zero-length messages after every payload.
          apps::startup_barrier(f, pid, kSend, "funnel.done",
                                /*base_pid=*/kRecv);
          if (rank == kRecv) {
            for (int r = 0; r < kRecv; ++r) {
              ASSERT_EQ(f.send(pid, tx, buf, 0), Status::ok);
            }
          }
          ASSERT_EQ(f.close_send(pid, tx), Status::ok);
        }
      });
  EXPECT_EQ(delivered.load(), kSend * kPerSender);
  // The funnel is the fast path's home turf: after each sender's first
  // (locked, cache-priming) send, everything goes through the CAS stack.
  EXPECT_GT(fast_sends, static_cast<std::uint64_t>(kSend * kPerSender) / 2);
  EXPECT_TRUE(m.blocks_conserved)
      << "free=" << m.audit.blocks_free << " cached=" << m.audit.blocks_cached
      << " queued=" << m.audit.blocks_queued
      << " journaled=" << m.audit.blocks_journaled
      << " total=" << m.audit.blocks_total;
}

// ----------------------------------------------------------- park / wake

TEST(SimLockfree, EveryParkIsPairedWithAWake) {
  // One slow sender, one receiver: the receiver drains faster than the
  // sender produces, so it parks on its wait node before (almost) every
  // message.  With no contention and sleeps far below the suspicion
  // threshold, every park must end in exactly one wake — none lost, none
  // spurious — which is the wakes ≈ successful-claims acceptance check.
  constexpr int kMsgs = 20;
  FacilityStats st{};
  Config c = lockfree_config();
  // The sender's 2 ms gaps must sit far below the suspicion cap, or every
  // park times out at the cap and re-parks — timeouts are self-heal
  // re-checks, not wakes, and would break the pairing this test asserts.
  c.suspicion_ns = 50'000'000;
  run_chaos(
      c, 2, sim::FaultPlan{},
      [&](Facility f, int rank) {
        const auto pid = static_cast<ProcessId>(rank);
        if (rank == 0) {
          LnvcId rx = kInvalidLnvc;
          ASSERT_EQ(f.open_receive(pid, "pw", Protocol::fcfs, &rx),
                    Status::ok);
          apps::startup_barrier(f, pid, 2, "pw.join");
          char buf[64];
          for (;;) {
            std::size_t len = 0;
            ASSERT_EQ(f.receive(pid, rx, buf, sizeof(buf), &len), Status::ok);
            if (len == 0) break;
          }
          st = f.stats();
        } else {
          LnvcId tx = kInvalidLnvc, delay = kInvalidLnvc;
          ASSERT_EQ(f.open_send(pid, "pw", &tx), Status::ok);
          // Broadcast keeps the delay circuit off the rpark path: a timed
          // receive on an FCFS circuit would park and expire at its
          // deadline — a legitimate wake-less park that would skew the
          // pairing counters this test is about.
          ASSERT_EQ(f.open_receive(pid, "pw.delay", Protocol::broadcast,
                                   &delay),
                    Status::ok);
          apps::startup_barrier(f, pid, 2, "pw.join");
          char buf[48] = {'m'};
          for (int i = 0; i < kMsgs; ++i) {
            sim_sleep(f, pid, delay, 2'000'000);  // 2 ms between sends
            ASSERT_EQ(f.send(pid, tx, buf, sizeof(buf)), Status::ok);
          }
          ASSERT_EQ(f.send(pid, tx, buf, 0), Status::ok);
        }
      });
  EXPECT_GE(st.parks, static_cast<std::uint64_t>(kMsgs) / 2);
  EXPECT_EQ(st.wakes, st.parks);
  EXPECT_EQ(st.spurious_wakes, 0u);
}

// ------------------------------------------ receive_any armed watches

TEST(SimLockfree, AnySnapshotHoistStopsRescanning) {
  // 1000 circuits, one blocked receive_any: the call arms one watch per
  // circuit (one locked revalidation each), then parks.  Traffic on a
  // circuit it does not list must cost it nothing — no wake, no
  // revalidation — however often it arrives; the one real message costs
  // one wake and one revalidation before delivery.  So the call's whole
  // bill is kCircuits + 1 revalidations and a single wake.
  constexpr std::size_t kCircuits = 1000;
  constexpr int kNoise = 12;
  Config c;
  c.max_lnvcs = 1100;
  c.max_processes = 4;
  c.block_payload = 10;
  c.message_blocks = 4096;
  c.lockfree_fcfs = true;
  run_sim(c, 2, [&](Facility f, int rank) {
    const auto pid = static_cast<ProcessId>(rank);
    if (rank == 0) {
      std::vector<LnvcId> rx(kCircuits), tx(kCircuits);
      for (std::size_t i = 0; i < kCircuits; ++i) {
        const std::string name = "any." + std::to_string(i);
        ASSERT_EQ(f.open_receive(pid, name, Protocol::fcfs, &rx[i]),
                  Status::ok);
        ASSERT_EQ(f.open_send(pid, name, &tx[i]), Status::ok);
      }
      apps::startup_barrier(f, pid, 2, "any.join");
      const FacilityStats before = f.stats();
      char buf[64];
      std::size_t len = 0, which = 0;
      // One blocking call.  The arming sweep costs ~3 virtual seconds, so
      // the noise sends (spaced 1.5 s over ~18 s) land while this call is
      // parked.
      ASSERT_EQ(f.receive_any(pid, rx, buf, sizeof(buf), &len, &which),
                Status::ok);
      EXPECT_EQ(which, 123u);
      ASSERT_EQ(len, 1u);
      EXPECT_EQ(buf[0], 'R');
      // The load-bearing assertions: one arming sweep plus the delivery,
      // and the noise neither woke nor re-checked anything.
      const FacilityStats after = f.stats();
      EXPECT_EQ(after.any_rescans - before.any_rescans, kCircuits + 1);
      EXPECT_EQ(after.wakes - before.wakes, 1u);
    } else {
      LnvcId noise_tx = kInvalidLnvc, noise_rx = kInvalidLnvc;
      LnvcId real_tx = kInvalidLnvc, delay = kInvalidLnvc;
      ASSERT_EQ(f.open_receive(pid, "noise", Protocol::fcfs, &noise_rx),
                Status::ok);
      ASSERT_EQ(f.open_send(pid, "noise", &noise_tx), Status::ok);
      ASSERT_EQ(f.open_send(pid, "any.123", &real_tx), Status::ok);
      ASSERT_EQ(f.open_receive(pid, "any.delay", Protocol::fcfs, &delay),
                Status::ok);
      apps::startup_barrier(f, pid, 2, "any.join");
      char msg = 'n';
      for (int i = 0; i < kNoise; ++i) {
        sim_sleep(f, pid, delay, 1'500'000'000);
        ASSERT_EQ(f.send(pid, noise_tx, &msg, 1), Status::ok);
      }
      sim_sleep(f, pid, delay, 2'000'000'000);
      msg = 'R';
      ASSERT_EQ(f.send(pid, real_tx, &msg, 1), Status::ok);
    }
  });
}

// ------------------------------------------------- death while parked

TEST(SimLockfree, KilledParkedReceiverDoesNotLoseMessages) {
  // Receiver 1 dies *while parked on its wait node*; receiver 2, parked
  // behind it, must still drain every message.  A wake aimed at the
  // corpse is re-issued by the suspicion self-heal or the reap's baton
  // pass — delayed, never lost.
  constexpr int kMsgs = 30;
  std::atomic<int> survivor_got{0};
  sim::FaultPlan plan;
  plan.actions.push_back({sim::FaultAction::Kind::kill_at_time, /*process=*/1,
                          /*at_ns=*/30'000'000, 0, 0});
  const ChaosMetrics m = run_chaos(
      lockfree_config(), 3, plan,
      [&](Facility f, int rank) {
        const auto pid = static_cast<ProcessId>(rank);
        if (rank == 0) {
          LnvcId tx = kInvalidLnvc, delay = kInvalidLnvc;
          ASSERT_EQ(f.open_send(pid, "dp", &tx), Status::ok);
          ASSERT_EQ(f.open_receive(pid, "dp.delay", Protocol::fcfs, &delay),
                    Status::ok);
          apps::startup_barrier(f, pid, 3, "dp.join");
          // Let both receivers park, and the kill fire mid-park.
          sim_sleep(f, pid, delay, 60'000'000);
          char buf[48] = {'m'};
          for (int i = 0; i < kMsgs; ++i) {
            ASSERT_EQ(f.send(pid, tx, buf, sizeof(buf)), Status::ok);
          }
          ASSERT_EQ(f.send(pid, tx, buf, 0), Status::ok);  // one survivor
        } else {
          LnvcId rx = kInvalidLnvc;
          ASSERT_EQ(f.open_receive(pid, "dp", Protocol::fcfs, &rx),
                    Status::ok);
          apps::startup_barrier(f, pid, 3, "dp.join");
          char buf[256];
          for (;;) {
            std::size_t len = 0;
            const Status s = f.receive(pid, rx, buf, sizeof(buf), &len);
            ASSERT_EQ(s, Status::ok);
            if (len == 0) break;
            survivor_got.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
  EXPECT_EQ(m.kills, 1u);
  EXPECT_EQ(survivor_got.load(), kMsgs);
  EXPECT_TRUE(m.blocks_conserved)
      << "free=" << m.audit.blocks_free << " cached=" << m.audit.blocks_cached
      << " queued=" << m.audit.blocks_queued
      << " journaled=" << m.audit.blocks_journaled
      << " total=" << m.audit.blocks_total;
}

TEST(ForkLockfree, SigkilledParkedReceiverPromotesSurvivor) {
  // The native twin: a receiver parked in a real futex wait is SIGKILLed;
  // after the reap clears its park registration, a send must promote the
  // surviving parked receiver — the corpse never absorbs the wake.
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  c.block_payload = 10;
  c.message_blocks = 1024;
  c.lockfree_fcfs = true;
  shm::AnonSharedRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  LnvcId tx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "lf", &tx), Status::ok);

  const auto spawn_receiver = [&](ProcessId pid, char expect) {
    const pid_t child = fork();
    EXPECT_GE(child, 0);
    if (child != 0) return child;
    LnvcId rx = kInvalidLnvc;
    if (f.open_receive(pid, "lf", Protocol::fcfs, &rx) != Status::ok) {
      _exit(60);
    }
    char buf[64];
    std::size_t len = 0;
    if (f.receive(pid, rx, buf, sizeof(buf), &len) != Status::ok) _exit(61);
    _exit(len == 1 && buf[0] == expect ? 0 : 62);
  };

  const auto parked_receivers = [&] {
    LnvcInfo info{};
    EXPECT_EQ(f.lnvc_info(tx, &info), Status::ok);
    return info.parked_receivers;
  };
  const auto wait_parked = [&](std::uint32_t n) {
    // Assert on the read that ended the loop: a survivor the reap's
    // wake-all just unparked may read 0 on a second look before it
    // re-parks.
    rt::WallTimer timer;
    std::uint32_t seen = parked_receivers();
    while (seen != n && timer.elapsed_s() < 10.0) {
      ::usleep(1000);
      seen = parked_receivers();
    }
    ASSERT_EQ(seen, n);
  };

  const pid_t victim = spawn_receiver(1, 'X');   // killed before any message
  const pid_t survivor = spawn_receiver(2, 'S');
  wait_parked(2);

  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  EXPECT_FALSE(f.process_alive(1));
  ASSERT_EQ(f.reap(0, 1), Status::ok);
  wait_parked(1);  // the corpse's registration is gone

  char msg = 'S';
  ASSERT_EQ(f.send(0, tx, &msg, 1), Status::ok);
  ASSERT_EQ(waitpid(survivor, &status, 0), survivor);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "survivor exit "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status));

  EXPECT_EQ(parked_receivers(), 0u);
  const BlockAudit audit = f.block_audit();
  EXPECT_TRUE(audit.consistent());
  EXPECT_EQ(audit.in_flight(), 0u);
}

// -------------------------------------------------- chaos + determinism

TEST(SimLockfree, ChaosConservesBlocksWithFastPathOn) {
  constexpr int kProcs = 8;
  constexpr int kMsgs = 60;
  constexpr std::size_t kLen = 48;
  Config c = lockfree_config();
  c.max_processes = kProcs;
  c.message_blocks = 2048;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const sim::FaultPlan plan = sim::FaultPlan::random(
        seed, kProcs, /*max_kills=*/3, /*horizon_ns=*/20'000'000);
    const ChaosMetrics m =
        run_chaos(c, kProcs, plan, [&](Facility f, int rank) {
          chaos_worker(f, rank, kProcs, kLen, kMsgs, seed);
        });
    EXPECT_TRUE(m.blocks_conserved)
        << "seed " << seed << ": free=" << m.audit.blocks_free
        << " cached=" << m.audit.blocks_cached
        << " queued=" << m.audit.blocks_queued
        << " journaled=" << m.audit.blocks_journaled
        << " total=" << m.audit.blocks_total;
  }
}

TEST(SimLockfree, ReplayIsBitIdenticalInBothModes) {
  // The CAS hand-off must not leak host nondeterminism into virtual time:
  // the same workload replays to the same trace hash, fast path on or off.
  for (const bool lockfree : {false, true}) {
    Config c = lockfree_config();
    c.lockfree_fcfs = lockfree;
    const auto body = [&](Facility f, int rank) {
      chaos_worker(f, rank, 4, 32, 40, /*seed=*/7);
    };
    sim::Trace first, second;
    const ChaosMetrics a = run_chaos(c, 4, sim::FaultPlan{}, body,
                                     sim::MachineModel::balance21000(),
                                     &first);
    const ChaosMetrics b = run_chaos(c, 4, sim::FaultPlan{}, body,
                                     sim::MachineModel::balance21000(),
                                     &second);
    ASSERT_EQ(a.trace_hash, b.trace_hash) << "lockfree=" << lockfree;
    ASSERT_EQ(first.size(), second.size()) << "lockfree=" << lockfree;
  }
}

}  // namespace
