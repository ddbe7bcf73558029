// Overload robustness (DESIGN.md §11): per-LNVC quotas, admission
// policies, send deadlines, and crash-during-backpressure recovery.
// Native tests bound wall time loosely; simulated tests check deadlines
// against exact virtual time and inject deaths at scripted instants.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "mpf/benchlib/simrun.hpp"
#include "mpf/benchlib/workloads.hpp"
#include "mpf/core/channel.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/core/ports.hpp"
#include "mpf/core/rendezvous.hpp"
#include "mpf/core/transport.hpp"
#include "mpf/runtime/timer.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/sim/fault.hpp"

namespace {

using namespace mpf;

// 64-byte messages are exactly one block, so quota_blocks counts messages.
constexpr std::size_t kMsg = 64;

Config quota_config() {
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  c.block_payload = kMsg;
  c.suspicion_ns = 20'000'000;  // keep native park wake-checks short
  return c;
}

struct QuotaTest : ::testing::Test {
  Config config = quota_config();
  shm::HeapRegion region{config.derived_arena_bytes()};
  Facility f{Facility::create(config, region)};
  LnvcId tx = kInvalidLnvc, rx = kInvalidLnvc;
  char buf[kMsg] = {};
  std::size_t len = 0;

  void open_pair(std::uint32_t quota_blocks, AdmissionPolicy policy) {
    ASSERT_EQ(f.open_receive(0, "q", Protocol::fcfs, &rx), Status::ok);
    ASSERT_EQ(f.open_send(1, "q", &tx), Status::ok);
    ASSERT_EQ(f.set_admission(1, tx, quota_blocks, 0, policy), Status::ok);
  }
  Status drain_one() { return f.receive(0, rx, buf, sizeof(buf), &len); }
};

TEST_F(QuotaTest, FailFastRejectsOverQuota) {
  open_pair(2, AdmissionPolicy::fail_fast);
  ASSERT_EQ(f.send(1, tx, buf, kMsg), Status::ok);
  ASSERT_EQ(f.send(1, tx, buf, kMsg), Status::ok);
  EXPECT_EQ(f.send(1, tx, buf, kMsg), Status::rejected);
  EXPECT_EQ(f.stats().sends_rejected, 1u);
  LnvcInfo info{};
  ASSERT_EQ(f.lnvc_info(tx, &info), Status::ok);
  EXPECT_EQ(info.used_blocks, 2u);
  EXPECT_EQ(info.parked, 0u);
  // The refusal consumed nothing; draining one message re-admits.
  ASSERT_EQ(drain_one(), Status::ok);
  EXPECT_EQ(f.send(1, tx, buf, kMsg), Status::ok);
}

TEST_F(QuotaTest, ShedNewestDropsSilently) {
  open_pair(2, AdmissionPolicy::shed_newest);
  buf[0] = 'a';
  ASSERT_EQ(f.send(1, tx, buf, kMsg), Status::ok);
  buf[0] = 'b';
  ASSERT_EQ(f.send(1, tx, buf, kMsg), Status::ok);
  buf[0] = 'c';
  EXPECT_EQ(f.send(1, tx, buf, kMsg), Status::ok);  // shed, reported ok
  EXPECT_EQ(f.stats().sends_shed, 1u);
  // Only the first two were queued, in order.
  ASSERT_EQ(drain_one(), Status::ok);
  EXPECT_EQ(buf[0], 'a');
  ASSERT_EQ(drain_one(), Status::ok);
  EXPECT_EQ(buf[0], 'b');
  ASSERT_EQ(f.receive(0, rx, buf, sizeof(buf), &len, 0), Status::timed_out);
}

TEST_F(QuotaTest, SendTimedExpiresWhenParked) {
  open_pair(1, AdmissionPolicy::block);
  ASSERT_EQ(f.send(1, tx, buf, kMsg), Status::ok);  // quota now full
  rt::WallTimer timer;
  EXPECT_EQ(f.send(1, tx, buf, kMsg, 30'000'000), Status::timed_out);
  const double waited = timer.elapsed_s();
  EXPECT_GE(waited, 0.025);
  EXPECT_LT(waited, 2.0);
  EXPECT_EQ(f.stats().sends_timed_out, 1u);
  EXPECT_GE(f.stats().quota_parks, 1u);
  // The expired sender left no residue: ledger unchanged, park queue empty.
  LnvcInfo info{};
  ASSERT_EQ(f.lnvc_info(tx, &info), Status::ok);
  EXPECT_EQ(info.used_blocks, 1u);
  EXPECT_EQ(info.parked, 0u);
}

TEST_F(QuotaTest, ZeroTimeoutSendIsAPoll) {
  open_pair(1, AdmissionPolicy::block);
  ASSERT_EQ(f.send(1, tx, buf, kMsg, 0), Status::ok);
  rt::WallTimer timer;
  EXPECT_EQ(f.send(1, tx, buf, kMsg, 0), Status::timed_out);
  EXPECT_LT(timer.elapsed_s(), 1.0);
  // A poll never joins the park FIFO: no ticket taken, no park counted.
  EXPECT_EQ(f.stats().quota_parks, 0u);
  LnvcInfo info{};
  ASSERT_EQ(f.lnvc_info(tx, &info), Status::ok);
  EXPECT_EQ(info.parked, 0u);
  ASSERT_EQ(drain_one(), Status::ok);
  EXPECT_EQ(f.send(1, tx, buf, kMsg, 0), Status::ok);
}

TEST_F(QuotaTest, PolicySwitchWhileParkedEvictsParkedSenders) {
  // set_admission may flip a circuit from block to fail_fast while senders
  // are parked; they must be cleanly evicted (rejected), not left with a
  // live membership flag that wedges the admission FIFO forever.
  open_pair(1, AdmissionPolicy::block);
  ASSERT_EQ(f.send(1, tx, buf, kMsg), Status::ok);  // quota now full

  const auto parked_count = [&] {
    LnvcInfo info{};
    EXPECT_EQ(f.lnvc_info(tx, &info), Status::ok);
    return info.parked;
  };
  LnvcId tx2 = kInvalidLnvc;
  ASSERT_EQ(f.open_send(2, "q", &tx2), Status::ok);
  Status got = Status::ok;
  std::thread waiter([&] {
    char b[kMsg] = {'X'};
    got = f.send(2, tx2, b, kMsg, 20'000'000'000ull);
  });
  rt::WallTimer timer;
  while (parked_count() != 1 && timer.elapsed_s() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(parked_count(), 1u);

  ASSERT_EQ(f.set_admission(1, tx, 1, 0, AdmissionPolicy::fail_fast),
            Status::ok);
  waiter.join();
  EXPECT_EQ(got, Status::rejected);
  EXPECT_EQ(f.stats().sends_rejected, 1u);
  EXPECT_EQ(parked_count(), 0u);

  // The FIFO did not wedge: once quota frees, new arrivals are admitted.
  ASSERT_EQ(drain_one(), Status::ok);
  EXPECT_EQ(f.send(1, tx, buf, kMsg), Status::ok);
}

TEST_F(QuotaTest, BlockPolicyWakesParkedSendersInFifoOrder) {
  open_pair(1, AdmissionPolicy::block);
  ASSERT_EQ(f.send(1, tx, buf, kMsg), Status::ok);  // quota now full

  const auto parked_count = [&] {
    LnvcInfo info{};
    EXPECT_EQ(f.lnvc_info(tx, &info), Status::ok);
    return info.parked;
  };
  const auto wait_parked = [&](std::uint32_t n) {
    rt::WallTimer timer;
    while (parked_count() != n && timer.elapsed_s() < 10.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(parked_count(), n);
  };

  std::atomic<int> order{0};
  int first_done = 0, second_done = 0;
  LnvcId tx2 = kInvalidLnvc;
  ASSERT_EQ(f.open_send(2, "q", &tx2), Status::ok);
  std::thread first([&] {
    char b[kMsg] = {'A'};
    ASSERT_EQ(f.send(2, tx2, b, kMsg, 20'000'000'000ull), Status::ok);
    first_done = ++order;
  });
  wait_parked(1);  // `first` holds the head ticket before `second` parks
  LnvcId tx3 = kInvalidLnvc;
  ASSERT_EQ(f.open_send(3, "q", &tx3), Status::ok);
  std::thread second([&] {
    char b[kMsg] = {'B'};
    ASSERT_EQ(f.send(3, tx3, b, kMsg, 20'000'000'000ull), Status::ok);
    second_done = ++order;
  });
  wait_parked(2);

  // Freeing one message's quota admits exactly the head (FIFO).
  ASSERT_EQ(drain_one(), Status::ok);
  first.join();
  EXPECT_EQ(first_done, 1);
  wait_parked(1);  // `second` admitted nothing: the head's send refilled it
  EXPECT_EQ(second_done, 0);
  ASSERT_EQ(drain_one(), Status::ok);
  EXPECT_EQ(buf[0], 'A');
  second.join();
  EXPECT_EQ(second_done, 2);
  ASSERT_EQ(drain_one(), Status::ok);
  EXPECT_EQ(buf[0], 'B');
  EXPECT_GE(f.stats().quota_parks, 2u);
  EXPECT_EQ(parked_count(), 0u);
}

TEST_F(QuotaTest, DefaultConfigIsUnlimited) {
  ASSERT_EQ(f.open_receive(0, "u", Protocol::fcfs, &rx), Status::ok);
  ASSERT_EQ(f.open_send(1, "u", &tx), Status::ok);
  LnvcInfo info{};
  ASSERT_EQ(f.lnvc_info(tx, &info), Status::ok);
  EXPECT_EQ(info.quota_blocks, 0u);
  EXPECT_EQ(info.quota_slabs, 0u);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(f.send(1, tx, buf, kMsg), Status::ok) << i;
  }
  const FacilityStats s = f.stats();
  EXPECT_EQ(s.sends_rejected, 0u);
  EXPECT_EQ(s.sends_shed, 0u);
  EXPECT_EQ(s.quota_parks, 0u);
}

TEST_F(QuotaTest, SetAdmissionValidatesAndReflects) {
  open_pair(0, AdmissionPolicy::block);
  EXPECT_EQ(f.set_admission(1, 9999, 1, 0, AdmissionPolicy::block),
            Status::invalid_argument);
  EXPECT_EQ(f.set_admission(99, tx, 1, 0, AdmissionPolicy::block),
            Status::invalid_argument);
  // In-range slot that never hosted a circuit.
  const LnvcId unused = static_cast<LnvcId>(config.max_lnvcs - 1);
  ASSERT_NE(unused, tx);
  EXPECT_EQ(f.set_admission(1, unused, 1, 0, AdmissionPolicy::block),
            Status::no_such_lnvc);
  // An in-range pid with no connection on the circuit cannot rewrite it.
  EXPECT_EQ(f.set_admission(2, tx, 1, 0, AdmissionPolicy::block),
            Status::not_connected);
  ASSERT_EQ(f.set_admission(1, tx, 4, 2, AdmissionPolicy::shed_newest),
            Status::ok);
  LnvcInfo info{};
  ASSERT_EQ(f.lnvc_info(tx, &info), Status::ok);
  EXPECT_EQ(info.quota_blocks, 4u);
  EXPECT_EQ(info.quota_slabs, 2u);
  EXPECT_EQ(info.policy, AdmissionPolicy::shed_newest);
}

TEST_F(QuotaTest, LedgerDrainsToZeroAtQuiescence) {
  open_pair(8, AdmissionPolicy::block);
  char big[2 * kMsg] = {};  // two blocks per message
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(f.send(1, tx, big, sizeof(big)), Status::ok);
  }
  LnvcInfo info{};
  ASSERT_EQ(f.lnvc_info(tx, &info), Status::ok);
  EXPECT_EQ(info.used_blocks, 6u);
  EXPECT_EQ(info.hw_blocks, 6u);
  char in[2 * kMsg];
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(f.receive(0, rx, in, sizeof(in), &len), Status::ok);
  }
  ASSERT_EQ(f.lnvc_info(tx, &info), Status::ok);
  EXPECT_EQ(info.used_blocks, 0u);
  EXPECT_EQ(info.hw_blocks, 6u);  // high-water survives the drain
  EXPECT_TRUE(f.block_audit().consistent());
}

// ------------------------------------------------------- timed receive_any

TEST_F(QuotaTest, ReceiveAnyForTimesOutAndPreservesRotation) {
  LnvcId ra = kInvalidLnvc, rb = kInvalidLnvc;
  LnvcId ta = kInvalidLnvc, tb = kInvalidLnvc;
  ASSERT_EQ(f.open_receive(0, "a", Protocol::fcfs, &ra), Status::ok);
  ASSERT_EQ(f.open_receive(0, "b", Protocol::fcfs, &rb), Status::ok);
  ASSERT_EQ(f.open_send(1, "a", &ta), Status::ok);
  ASSERT_EQ(f.open_send(1, "b", &tb), Status::ok);
  const LnvcId ids[2] = {ra, rb};
  std::size_t index = 99;

  ASSERT_EQ(f.send(1, ta, buf, kMsg), Status::ok);
  ASSERT_EQ(f.receive_any(0, ids, buf, sizeof(buf), &len, &index,
                              1'000'000'000ull),
            Status::ok);
  EXPECT_EQ(index, 0u);  // delivery moves the cursor past `a`

  rt::WallTimer timer;
  EXPECT_EQ(f.receive_any(0, ids, buf, sizeof(buf), &len, &index,
                              30'000'000),
            Status::timed_out);
  EXPECT_GE(timer.elapsed_s(), 0.025);
  EXPECT_LT(timer.elapsed_s(), 2.0);

  // Both ready after a timeout: the scan resumes where the last delivery
  // left it (at `b`), not back at the front of the list — the timeout did
  // not re-bias the rotation.
  ASSERT_EQ(f.send(1, ta, buf, kMsg), Status::ok);
  ASSERT_EQ(f.send(1, tb, buf, kMsg), Status::ok);
  ASSERT_EQ(f.receive_any(0, ids, buf, sizeof(buf), &len, &index,
                              1'000'000'000ull),
            Status::ok);
  EXPECT_EQ(index, 1u);
  ASSERT_EQ(f.receive_any(0, ids, buf, sizeof(buf), &len, &index,
                              1'000'000'000ull),
            Status::ok);
  EXPECT_EQ(index, 0u);
}

// ------------------------------------------------------------ port wrappers

TEST_F(QuotaTest, PortsTimedSendAndReceiveAnyFor) {
  Participant receiver(f, 0);
  ReceivePort pa = receiver.open_receive("pa", Protocol::fcfs);
  ReceivePort pb = receiver.open_receive("pb", Protocol::fcfs);
  Participant sender(f, 1);
  SendPort sa = sender.open_send("pa");
  ASSERT_EQ(f.set_admission(1, sa.id(), 1, 0, AdmissionPolicy::block),
            Status::ok);

  std::vector<std::byte> in(kMsg);
  ReceivedAny got{};
  EXPECT_FALSE(receive_any_for(f, 0, std::array{&pa, &pb}, in, 10'000'000,
                               &got));

  const std::string text(kMsg, 'x');
  EXPECT_TRUE(sa.send_for(text, 1'000'000'000ull));
  EXPECT_FALSE(sa.send_for(text, 10'000'000));  // over quota, deadline hits
  EXPECT_TRUE(receive_any_for(f, 0, std::array{&pa, &pb}, in,
                              1'000'000'000ull, &got));
  EXPECT_EQ(got.index, 0u);
  EXPECT_EQ(got.length, kMsg);
  EXPECT_FALSE(got.truncated);
}

// ----------------------------------------------- crash during backpressure

TEST(OverloadFork, SigkilledParkedSenderDoesNotWedgeQueue) {
  // The overload analogue of the recovery suite's SIGKILL test: a sender
  // dies *while parked in the admission queue*.  Its park-FIFO membership
  // and journaled reservation must be cleared by the reap, and the next
  // parked sender (which was behind it) must still be admitted once quota
  // frees — a dead head may delay the queue, never wedge it.
  Config c = quota_config();
  shm::AnonSharedRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  LnvcId rx = kInvalidLnvc, tx = kInvalidLnvc;
  ASSERT_EQ(f.open_receive(0, "bp", Protocol::fcfs, &rx), Status::ok);
  ASSERT_EQ(f.open_send(0, "bp", &tx), Status::ok);
  ASSERT_EQ(f.set_admission(0, tx, 1, 0, AdmissionPolicy::block),
            Status::ok);
  char buf[kMsg] = {'P'};
  ASSERT_EQ(f.send(0, tx, buf, kMsg), Status::ok);  // quota now full

  const auto parked_count = [&] {
    LnvcInfo info{};
    EXPECT_EQ(f.lnvc_info(tx, &info), Status::ok);
    return info.parked;
  };
  const auto wait_parked = [&](std::uint32_t n) {
    rt::WallTimer timer;
    while (parked_count() != n && timer.elapsed_s() < 10.0) {
      ::usleep(1000);
    }
    ASSERT_EQ(parked_count(), n);
  };

  const pid_t victim = fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) {
    LnvcId vtx = kInvalidLnvc;
    if (f.open_send(1, "bp", &vtx) != Status::ok) _exit(40);
    char b[kMsg] = {'V'};
    (void)f.send(1, vtx, b, kMsg);  // parks at the head; SIGKILLed there
    _exit(41);                      // must never be admitted
  }
  wait_parked(1);  // the victim holds the head ticket

  const pid_t successor = fork();
  ASSERT_GE(successor, 0);
  if (successor == 0) {
    LnvcId stx = kInvalidLnvc;
    if (f.open_send(2, "bp", &stx) != Status::ok) _exit(50);
    char b[kMsg] = {'S'};
    _exit(f.send(2, stx, b, kMsg) == Status::ok ? 0 : 51);
  }
  wait_parked(2);

  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  EXPECT_FALSE(f.process_alive(1));
  ASSERT_EQ(f.reap(0, 1), Status::ok);
  wait_parked(1);  // the dead head's membership is gone

  // Quota frees; the successor — parked *behind* the dead head — admits.
  std::size_t len = 0;
  ASSERT_EQ(f.receive(0, rx, buf, sizeof(buf), &len), Status::ok);
  EXPECT_EQ(buf[0], 'P');
  ASSERT_EQ(waitpid(successor, &status, 0), successor);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "successor exit " << WEXITSTATUS(status);
  ASSERT_EQ(f.receive(0, rx, buf, sizeof(buf), &len), Status::ok);
  EXPECT_EQ(buf[0], 'S');

  EXPECT_EQ(parked_count(), 0u);
  LnvcInfo info{};
  ASSERT_EQ(f.lnvc_info(tx, &info), Status::ok);
  EXPECT_EQ(info.used_blocks, 0u);
  const BlockAudit audit = f.block_audit();
  EXPECT_TRUE(audit.consistent());
  EXPECT_EQ(audit.in_flight(), 0u);
}

// ------------------------------------------------------------- simulated

Config sim_quota_config() {
  Config c;
  c.max_lnvcs = 16;
  c.max_processes = 8;
  c.block_payload = kMsg;
  c.message_blocks = 256;
  c.suspicion_ns = 1'000'000;  // 1 ms of virtual time
  c.lnvc_quota_blocks = 1;
  c.admission_policy = AdmissionPolicy::block;
  return c;
}

/// Virtual-time sleep inside a simulated worker: a timed receive on a
/// private circuit nobody sends to expires after exactly `ns`.
void sim_sleep(Facility& f, ProcessId pid, LnvcId delay, std::uint64_t ns) {
  char b[8];
  std::size_t got = 0;
  (void)f.receive(pid, delay, b, sizeof(b), &got, ns);
}

TEST(SimOverload, DeadlineIsVirtualTimeExact) {
  const Config c = sim_quota_config();
  const benchlib::SimMetrics m = benchlib::run_sim(
      c, 1, [&](Facility f, int rank) {
        const auto pid = static_cast<ProcessId>(rank);
        LnvcId rx = kInvalidLnvc, tx = kInvalidLnvc;
        ASSERT_EQ(f.open_receive(pid, "d", Protocol::fcfs, &rx), Status::ok);
        ASSERT_EQ(f.open_send(pid, "d", &tx), Status::ok);
        char b[kMsg] = {};
        ASSERT_EQ(f.send(pid, tx, b, kMsg), Status::ok);  // quota now full
        const std::uint64_t t0 = f.platform().now_ns();
        ASSERT_EQ(f.send(pid, tx, b, kMsg, 5'000'000),
                  Status::timed_out);
        const std::uint64_t waited = f.platform().now_ns() - t0;
        // Virtual time: the park wakes at the deadline, never before, and
        // overshoots by at most the post-wake bookkeeping.
        EXPECT_GE(waited, 5'000'000u);
        EXPECT_LT(waited, 15'000'000u);
      });
  EXPECT_GT(m.seconds, 0.0);
}

TEST(SimOverload, KilledParkedSenderIsReapedAndSuccessorAdmits) {
  const Config c = sim_quota_config();
  sim::FaultPlan plan;
  plan.actions.push_back({sim::FaultAction::Kind::kill_at_time, /*rank*/ 1,
                          /*at_ns*/ 30'000'000, 0, 0});
  Status successor_status = Status::ok;
  int received = 0;
  const benchlib::ChaosMetrics m = benchlib::run_chaos(
      c, 3, plan, [&](Facility f, int rank) {
        const auto pid = static_cast<ProcessId>(rank);
        LnvcId delay = kInvalidLnvc;
        ASSERT_EQ(f.open_receive(pid, "delay." + std::to_string(rank),
                                 Protocol::fcfs, &delay),
                  Status::ok);
        char b[kMsg] = {};
        std::size_t got = 0;
        if (rank == 0) {  // receiver: stay idle until both senders queued up
          LnvcId rx = kInvalidLnvc;
          ASSERT_EQ(f.open_receive(pid, "k", Protocol::fcfs, &rx),
                    Status::ok);
          sim_sleep(f, pid, delay, 100'000'000);
          for (int i = 0; i < 30 && received < 2; ++i) {
            const Status s = f.receive(pid, rx, b, sizeof(b), &got,
                                           20'000'000);
            if (s == Status::ok) ++received;
          }
        } else if (rank == 1) {  // victim: dies parked at the quota
          LnvcId tx = kInvalidLnvc;
          sim_sleep(f, pid, delay, 5'000'000);
          ASSERT_EQ(f.open_send(pid, "k", &tx), Status::ok);
          ASSERT_EQ(f.send(pid, tx, b, kMsg), Status::ok);
          (void)f.send(pid, tx, b, kMsg);  // parks; killed at 30 ms
          ADD_FAILURE() << "victim survived past its scripted death";
        } else {  // successor: parks behind the (dead) victim
          LnvcId tx = kInvalidLnvc;
          sim_sleep(f, pid, delay, 40'000'000);
          ASSERT_EQ(f.open_send(pid, "k", &tx), Status::ok);
          successor_status = f.send(pid, tx, b, kMsg,
                                          2'000'000'000ull);
          (void)f.close_send(pid, tx);
        }
      });
  EXPECT_EQ(m.kills, 1u);
  EXPECT_GE(m.reaps, 1u);
  // The dead head was swept out of the FIFO; the successor was admitted
  // once the receiver drained the victim's first message.
  EXPECT_EQ(successor_status, Status::ok);
  EXPECT_EQ(received, 2);
  EXPECT_TRUE(m.blocks_conserved)
      << "free=" << m.audit.blocks_free << " cached=" << m.audit.blocks_cached
      << " queued=" << m.audit.blocks_queued
      << " journaled=" << m.audit.blocks_journaled
      << " total=" << m.audit.blocks_total;
}

TEST(SimOverload, ReceiverDeathUnparksSenderWithPeerFailed) {
  const Config c = sim_quota_config();
  sim::FaultPlan plan;
  plan.actions.push_back({sim::FaultAction::Kind::kill_at_time, /*rank*/ 0,
                          /*at_ns*/ 50'000'000, 0, 0});
  Status parked_status = Status::ok;
  const benchlib::ChaosMetrics m = benchlib::run_chaos(
      c, 2, plan, [&](Facility f, int rank) {
        const auto pid = static_cast<ProcessId>(rank);
        char b[kMsg] = {};
        if (rank == 0) {  // receiver: dies while the sender is parked
          LnvcId rx = kInvalidLnvc, rdelay = kInvalidLnvc;
          ASSERT_EQ(f.open_receive(pid, "pf", Protocol::fcfs, &rx),
                    Status::ok);
          ASSERT_EQ(f.open_receive(pid, "rdelay", Protocol::fcfs, &rdelay),
                    Status::ok);
          // Idle without consuming from "pf", so the quota stays full.
          sim_sleep(f, pid, rdelay, 500'000'000);
          ADD_FAILURE() << "receiver survived past its scripted death";
        } else {
          LnvcId delay = kInvalidLnvc, tx = kInvalidLnvc;
          ASSERT_EQ(f.open_receive(pid, "delay", Protocol::fcfs, &delay),
                    Status::ok);
          sim_sleep(f, pid, delay, 5'000'000);
          ASSERT_EQ(f.open_send(pid, "pf", &tx), Status::ok);
          ASSERT_EQ(f.send(pid, tx, b, kMsg), Status::ok);  // fills quota
          // Parks on the quota; once the dead receiver is reaped the
          // circuit has no receivers and quota can never free — the park
          // must resolve to peer_failed rather than hang.
          parked_status = f.send(pid, tx, b, kMsg);
          (void)f.close_send(pid, tx);  // last connection: frees the backlog
        }
      });
  EXPECT_EQ(m.kills, 1u);
  EXPECT_EQ(parked_status, Status::peer_failed);
  EXPECT_GE(m.peer_failures, 1u);
  EXPECT_TRUE(m.blocks_conserved)
      << "free=" << m.audit.blocks_free << " cached=" << m.audit.blocks_cached
      << " queued=" << m.audit.blocks_queued
      << " journaled=" << m.audit.blocks_journaled
      << " total=" << m.audit.blocks_total;
}

TEST(SimOverload, QuotaLedgerConservedUnderRandomChaos) {
  // The chaos property suite re-run with every circuit under a tight
  // quota: random kills now land on parked senders and on receivers whose
  // death strands a full quota.  Conservation must still hold and every
  // survivor must still terminate (a wedged park would deadlock the sim).
  Config c;
  c.max_lnvcs = 16;
  c.max_processes = 8;
  c.block_payload = 10;
  c.message_blocks = 2048;
  c.suspicion_ns = 1'000'000;
  c.lnvc_quota_blocks = 20;  // four 48-byte messages
  c.admission_policy = AdmissionPolicy::block;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const sim::FaultPlan plan = sim::FaultPlan::random(
        seed, 8, /*max_kills=*/3, /*horizon_ns=*/20'000'000);
    const benchlib::ChaosMetrics m = benchlib::run_chaos(
        c, 8, plan, [&](Facility f, int rank) {
          benchlib::chaos_worker(f, rank, 8, 48, 60, seed);
        });
    EXPECT_TRUE(m.blocks_conserved)
        << "seed " << seed << ": free=" << m.audit.blocks_free
        << " cached=" << m.audit.blocks_cached
        << " queued=" << m.audit.blocks_queued
        << " journaled=" << m.audit.blocks_journaled
        << " total=" << m.audit.blocks_total;
  }
}

// ------------------------------------------------------- timed transports

TEST(TimedTransport, ChannelSendForTimesOutWhenFull) {
  std::vector<std::byte> mem(Channel::footprint(256));
  Channel ch = Channel::create(mem.data(), 256);
  const std::vector<std::byte> payload(kMsg, std::byte{0x5a});

  std::vector<std::byte> huge(200);
  EXPECT_EQ(ch.send_for(huge, 0), Status::invalid_argument);

  int queued = 0;
  while (ch.send_for(payload, 0) == Status::ok) ++queued;  // fill the ring
  ASSERT_GT(queued, 0);
  rt::WallTimer timer;
  EXPECT_EQ(ch.send_for(payload, 30'000'000), Status::timed_out);
  EXPECT_GE(timer.elapsed_s(), 0.025);
  EXPECT_LT(timer.elapsed_s(), 2.0);

  std::byte in[kMsg];
  bool truncated = false;
  ASSERT_EQ(ch.receive(in, &truncated), kMsg);
  EXPECT_EQ(ch.send_for(payload, 0), Status::ok);
}

TEST(TimedTransport, ChannelAdapterHonorsDeadline) {
  std::vector<std::byte> mem(Channel::footprint(256));
  Channel ch = Channel::create(mem.data(), 256);
  ChannelTransport t(ch, ch);
  const std::vector<std::byte> payload(kMsg, std::byte{0x21});
  while (t.send(payload.data(), payload.size(), 0) == Status::ok) {
  }
  EXPECT_EQ(t.send(payload.data(), payload.size(), 10'000'000),
            Status::timed_out);
  RecvResult r;
  std::byte in[kMsg];
  ASSERT_EQ(t.receive(in, sizeof(in), &r), Status::ok);
  EXPECT_EQ(t.send(payload.data(), payload.size(), 0), Status::ok);
}

TEST(TimedTransport, RendezvousSendForRollsBackOnTimeout) {
  RendezvousCell cell{};
  Rendezvous tx(cell), rx(cell);
  const std::vector<std::byte> payload(kMsg, std::byte{0x7e});

  // No receiver: the offer must be withdrawn at the deadline...
  rt::WallTimer timer;
  EXPECT_EQ(tx.send_for(payload, 30'000'000), Status::timed_out);
  EXPECT_GE(timer.elapsed_s(), 0.025);
  EXPECT_LT(timer.elapsed_s(), 2.0);

  // ...leaving the cell clean for a later pairing.
  std::thread receiver([&] {
    std::byte in[kMsg];
    bool truncated = true;
    EXPECT_EQ(rx.receive(in, &truncated), kMsg);
    EXPECT_FALSE(truncated);
    EXPECT_EQ(std::memcmp(in, payload.data(), kMsg), 0);
  });
  EXPECT_EQ(tx.send_for(payload, 5'000'000'000ull), Status::ok);
  receiver.join();
}

TEST(TimedTransport, RendezvousAdapterHonorsDeadline) {
  RendezvousCell cell{};
  RendezvousTransport t{Rendezvous(cell), Rendezvous(cell)};
  const std::vector<std::byte> payload(kMsg, std::byte{0x33});
  EXPECT_EQ(t.send(payload.data(), payload.size(), 10'000'000),
            Status::timed_out);
  std::thread receiver([&] {
    RecvResult r;
    std::byte in[kMsg];
    EXPECT_EQ(t.receive(in, sizeof(in), &r), Status::ok);
    EXPECT_EQ(r.length, kMsg);
  });
  EXPECT_EQ(t.send(payload.data(), payload.size(), 5'000'000'000ull),
            Status::ok);
  receiver.join();
}

TEST(TimedTransport, BoundedSendVIntoAFullTransportTimesOut) {
  const std::vector<std::byte> payload(kMsg, std::byte{0x66});
  const ConstBuffer iov[] = {{payload.data(), kMsg / 4},
                             {payload.data() + kMsg / 4, kMsg - kMsg / 4}};
  // LNVC: a one-block quota is full after one message (native gather).
  Config c = quota_config();
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  LnvcId tx = kInvalidLnvc, rx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "full", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(0, "full", Protocol::fcfs, &rx), Status::ok);
  ASSERT_EQ(f.set_admission(0, tx, 1, 0, AdmissionPolicy::block),
            Status::ok);
  LnvcTransport lnvc(f, 0, tx, rx);
  ASSERT_EQ(lnvc.send_v(iov, 0), Status::ok);
  // Channel: a full ring (the coalescing default).
  std::vector<std::byte> mem(Channel::footprint(256));
  Channel ch = Channel::create(mem.data(), 256);
  ChannelTransport channel(ch, ch);
  while (channel.send_v(iov, 0) == Status::ok) {
  }
  // Rendezvous: no receiver ever arrives.
  RendezvousCell cell{};
  RendezvousTransport rendezvous{Rendezvous(cell), Rendezvous(cell)};

  for (Transport* t : {static_cast<Transport*>(&lnvc),
                       static_cast<Transport*>(&channel),
                       static_cast<Transport*>(&rendezvous)}) {
    rt::WallTimer timer;
    EXPECT_EQ(t->send_v(iov, 10'000'000), Status::timed_out) << t->name();
    EXPECT_GE(timer.elapsed_s(), 0.008) << t->name();
    EXPECT_LT(timer.elapsed_s(), 2.0) << t->name();
  }
  EXPECT_EQ(f.stats().sends_timed_out, 1u);
  // Room again: the bounded gather goes through.
  RecvResult r;
  std::byte in[kMsg];
  ASSERT_EQ(lnvc.receive(in, sizeof(in), &r), Status::ok);
  EXPECT_EQ(lnvc.send_v(iov, 10'000'000), Status::ok);
}

TEST(TimedTransport, LnvcAdapterRoutesThroughFacilityDeadline) {
  Config c = quota_config();
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  LnvcId tx = kInvalidLnvc, rx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "seam", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(0, "seam", Protocol::fcfs, &rx), Status::ok);
  ASSERT_EQ(f.set_admission(0, tx, 1, 0, AdmissionPolicy::block),
            Status::ok);
  LnvcTransport t(f, 0, tx, rx);
  const std::vector<std::byte> payload(kMsg, std::byte{0x44});
  ASSERT_EQ(t.send(payload.data(), payload.size(), 0), Status::ok);
  EXPECT_EQ(t.send(payload.data(), payload.size(), 10'000'000),
            Status::timed_out);
  EXPECT_EQ(f.stats().sends_timed_out, 1u);
}

}  // namespace
