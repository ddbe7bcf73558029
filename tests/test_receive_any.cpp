// Multi-circuit blocking receive (receive_any / select), and its contract
// with the armed-watch implementation it shares with poll sets: circuits
// shared with poll sets and with other receive_any callers, lists that
// change between calls, close/destroy/orphaning under a blocked call, and
// the death of a process blocked in the call (simulated kill and SIGKILL).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mpf/apps/coordination.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/core/invariants.hpp"
#include "mpf/core/ports.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/sim/fault.hpp"
#include "mpf/sim/sim_platform.hpp"
#include "mpf/sim/simulator.hpp"

namespace {

using namespace mpf;

/// Wait (bounded, 10 s) until `n` watches are armed on circuit `id` —
/// i.e. the blocked callers have finished arming and parked.
void wait_armed(const Facility& f, LnvcId id, std::uint32_t n) {
  for (int i = 0; i < 10'000; ++i) {
    if (InvariantOracle::lnvc(f, id).armed.load() == n) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "lnvc " << id << " never reached " << n << " armed watches";
}

/// One consumer (pid 7) multiplexing 4 producer circuits; every message
/// arrives, in FIFO order per source.
void fan_in_from_many_producers(Facility& f) {
  constexpr int kProducers = 4;
  constexpr int kEach = 25;
  std::vector<LnvcId> rx(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(f.open_receive(7, "src" + std::to_string(p), Protocol::fcfs,
                             &rx[p]),
              Status::ok);
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      LnvcId tx;
      ASSERT_EQ(f.open_send(p, "src" + std::to_string(p), &tx), Status::ok);
      for (int i = 0; i < kEach; ++i) {
        const int v = p * 1000 + i;
        ASSERT_EQ(f.send(p, tx, &v, sizeof(v)), Status::ok);
      }
      ASSERT_EQ(f.close_send(p, tx), Status::ok);
    });
  }
  std::vector<int> per_source_next(kProducers, 0);
  for (int n = 0; n < kProducers * kEach; ++n) {
    int got = 0;
    std::size_t len = 0, index = 0;
    ASSERT_EQ(f.receive_any(7, rx, &got, sizeof(got), &len, &index),
              Status::ok);
    const int src = got / 1000;
    EXPECT_EQ(static_cast<int>(index), src);
    EXPECT_EQ(got % 1000, per_source_next[src]) << "FIFO per source";
    ++per_source_next[src];
  }
  for (auto& t : producers) t.join();
}

struct ReceiveAnyTest : ::testing::Test {
  Config config = [] {
    Config c;
    c.max_lnvcs = 8;
    c.max_processes = 8;
    return c;
  }();
  shm::HeapRegion region{config.derived_arena_bytes()};
  Facility f{Facility::create(config, region)};
};

TEST_F(ReceiveAnyTest, PicksWhicheverCircuitHasData) {
  LnvcId a_tx, b_tx, a_rx, b_rx;
  ASSERT_EQ(f.open_send(0, "a", &a_tx), Status::ok);
  ASSERT_EQ(f.open_send(0, "b", &b_tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &a_rx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "b", Protocol::fcfs, &b_rx), Status::ok);

  int v = 7;
  ASSERT_EQ(f.send(0, b_tx, &v, sizeof(v)), Status::ok);
  const LnvcId ids[] = {a_rx, b_rx};
  int got = 0;
  std::size_t len = 0, index = 99;
  ASSERT_EQ(f.receive_any(1, ids, &got, sizeof(got), &len, &index),
            Status::ok);
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(got, 7);
  v = 8;
  ASSERT_EQ(f.send(0, a_tx, &v, sizeof(v)), Status::ok);
  ASSERT_EQ(f.receive_any(1, ids, &got, sizeof(got), &len, &index),
            Status::ok);
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(got, 8);
}

TEST_F(ReceiveAnyTest, BlocksUntilAnyCircuitDelivers) {
  LnvcId a_rx, b_rx;
  ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &a_rx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "b", Protocol::fcfs, &b_rx), Status::ok);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    LnvcId tx;
    ASSERT_EQ(f.open_send(0, "b", &tx), Status::ok);
    int v = 42;
    ASSERT_EQ(f.send(0, tx, &v, sizeof(v)), Status::ok);
    ASSERT_EQ(f.close_send(0, tx), Status::ok);
  });
  const LnvcId ids[] = {a_rx, b_rx};
  int got = 0;
  std::size_t len = 0, index = 0;
  ASSERT_EQ(f.receive_any(1, ids, &got, sizeof(got), &len, &index),
            Status::ok);
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(got, 42);
  sender.join();
}

TEST_F(ReceiveAnyTest, SingleIdDegeneratesToPlainReceive) {
  LnvcId tx, rx;
  ASSERT_EQ(f.open_send(0, "a", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &rx), Status::ok);
  int v = 5;
  ASSERT_EQ(f.send(0, tx, &v, sizeof(v)), Status::ok);
  const LnvcId ids[] = {rx};
  int got = 0;
  std::size_t len = 0, index = 9;
  ASSERT_EQ(f.receive_any(1, ids, &got, sizeof(got), &len, &index),
            Status::ok);
  EXPECT_EQ(index, 0u);
}

TEST_F(ReceiveAnyTest, ErrorsPropagate) {
  int got = 0;
  std::size_t len = 0, index = 0;
  EXPECT_EQ(f.receive_any(1, {}, &got, sizeof(got), &len, &index),
            Status::invalid_argument);
  LnvcId tx;
  ASSERT_EQ(f.open_send(0, "a", &tx), Status::ok);
  const LnvcId ids[] = {tx};  // pid 1 holds no receive connection
  EXPECT_EQ(f.receive_any(1, ids, &got, sizeof(got), &len, &index),
            Status::not_connected);
}

TEST_F(ReceiveAnyTest, PortsWrapperWorks) {
  Participant consumer(f, 1);
  ReceivePort a = consumer.open_receive("a", Protocol::fcfs);
  ReceivePort b = consumer.open_receive("b", Protocol::broadcast);
  Participant producer(f, 0);
  SendPort tx = producer.open_send("b");
  tx.send("payload");
  ReceivePort* ports[] = {&a, &b};
  std::vector<std::byte> buf(32);
  const ReceivedAny r = receive_any(f, 1, ports, buf);
  EXPECT_EQ(r.index, 1u);
  EXPECT_EQ(r.length, 7u);
  EXPECT_FALSE(r.truncated);
}

TEST_F(ReceiveAnyTest, FanInFromManyProducers) {
  fan_in_from_many_producers(f);
}

TEST(ReceiveAnyLockfree, FanInFromManyProducers) {
  // Same fan-in with lock-free FCFS sends: a watch armed after a CAS push
  // must see it (Dekker recheck), and a push after the arming must fire.
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  c.lockfree_fcfs = true;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  fan_in_from_many_producers(f);
  EXPECT_GT(f.stats().lockfree_fast_sends, 0u);
}

TEST(ReceiveAnySim, WorksUnderTheSimulator) {
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  sim::Simulator simulator;
  sim::SimPlatform platform(simulator);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region, platform);
  std::vector<int> got;
  simulator.spawn([&] {
    LnvcId rx_a, rx_b;
    ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &rx_a), Status::ok);
    ASSERT_EQ(f.open_receive(1, "b", Protocol::fcfs, &rx_b), Status::ok);
    const LnvcId ids[] = {rx_a, rx_b};
    for (int i = 0; i < 6; ++i) {
      int v = 0;
      std::size_t len = 0, index = 0;
      ASSERT_EQ(f.receive_any(1, ids, &v, sizeof(v), &len, &index),
                Status::ok);
      got.push_back(v);
    }
  });
  simulator.spawn([&] {
    LnvcId tx_a, tx_b;
    ASSERT_EQ(f.open_send(0, "a", &tx_a), Status::ok);
    ASSERT_EQ(f.open_send(0, "b", &tx_b), Status::ok);
    for (int i = 0; i < 3; ++i) {
      simulator.advance(5e6);
      int v = i;
      ASSERT_EQ(f.send(0, tx_a, &v, sizeof(v)), Status::ok);
      v = 100 + i;
      ASSERT_EQ(f.send(0, tx_b, &v, sizeof(v)), Status::ok);
    }
  });
  simulator.run();
  ASSERT_EQ(got.size(), 6u);
  std::multiset<int> all(got.begin(), got.end());
  for (const int v : {0, 1, 2, 100, 101, 102}) EXPECT_EQ(all.count(v), 1u);
}

TEST_F(ReceiveAnyTest, RotationCursorPersistsAcrossCallsForFairness) {
  // Two equally busy circuits: the scan cursor is kept per process across
  // receive_any calls, so deliveries must alternate instead of re-biasing
  // toward the first listed LNVC on every call.
  LnvcId a_tx, b_tx, a_rx, b_rx;
  ASSERT_EQ(f.open_send(0, "a", &a_tx), Status::ok);
  ASSERT_EQ(f.open_send(0, "b", &b_tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &a_rx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "b", Protocol::fcfs, &b_rx), Status::ok);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    ASSERT_EQ(f.send(0, a_tx, &v, sizeof(v)), Status::ok);
    v = 100 + i;
    ASSERT_EQ(f.send(0, b_tx, &v, sizeof(v)), Status::ok);
  }
  const LnvcId ids[] = {a_rx, b_rx};
  std::vector<std::size_t> order;
  for (int i = 0; i < 6; ++i) {
    int v = 0;
    std::size_t len = 0, index = 99;
    ASSERT_EQ(f.receive_any(1, ids, &v, sizeof(v), &len, &index), Status::ok);
    order.push_back(index);
  }
  const std::vector<std::size_t> want = {0, 1, 0, 1, 0, 1};
  EXPECT_EQ(order, want);
  // Each circuit's own FIFO order was preserved while alternating.
}

// ------------------------------------------- shared circuits and poll sets

TEST_F(ReceiveAnyTest, ListedCircuitInAPeersPollSetDelivers) {
  // Pid 1 enrolls circuit "a" in its poll set; pid 2 lists the same
  // circuit in receive_any.  Each waiter arms its own connection, so both
  // see the traffic.
  LnvcId tx, rx_peer, rx_me, z;
  ASSERT_EQ(f.open_send(0, "a", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &rx_peer), Status::ok);
  ASSERT_EQ(f.open_receive(2, "a", Protocol::fcfs, &rx_me), Status::ok);
  ASSERT_EQ(f.open_receive(2, "z", Protocol::fcfs, &z), Status::ok);
  PollSetId ps = kInvalidPollSet, mine = kInvalidPollSet;
  ASSERT_EQ(f.pollset_create(1, &ps), Status::ok);
  ASSERT_EQ(f.pollset_add(1, ps, rx_peer), Status::ok);
  // One poll set per circuit still holds across processes.
  ASSERT_EQ(f.pollset_create(2, &mine), Status::ok);
  EXPECT_EQ(f.pollset_add(2, mine, rx_me), Status::rejected);

  const LnvcId ids[] = {rx_me, z};
  int v = 11, got = 0;
  std::size_t len = 0, index = 9;
  ASSERT_EQ(f.send(0, tx, &v, sizeof(v)), Status::ok);
  LnvcId ready = kInvalidLnvc;
  ASSERT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::ok);
  EXPECT_EQ(ready, rx_peer);
  ASSERT_EQ(f.receive_any(2, ids, &got, sizeof(got), &len, &index, 0),
            Status::ok);
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(got, 11);
  EXPECT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::timed_out);

  // Blocked: both watches are armed, one send fires both.
  std::thread waiter([&] {
    int w = 0;
    std::size_t wl = 0, wi = 9;
    ASSERT_EQ(f.receive_any(2, ids, &w, sizeof(w), &wl, &wi), Status::ok);
    EXPECT_EQ(wi, 0u);
    EXPECT_EQ(w, 12);
  });
  wait_armed(f, tx, 2);
  v = 12;
  ASSERT_EQ(f.send(0, tx, &v, sizeof(v)), Status::ok);
  waiter.join();
  EXPECT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::timed_out);
  EXPECT_TRUE(InvariantOracle::check(f, /*quiescent=*/true).ok())
      << InvariantOracle::check(f, true).summary();
}

TEST_F(ReceiveAnyTest, ListedCircuitInTheCallersOwnPollSetDelivers) {
  // One connection, two watches: the caller's poll set and its own
  // receive_any set.  Either wait may take the traffic; neither misses it.
  LnvcId tx, a, z;
  ASSERT_EQ(f.open_send(0, "a", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &a), Status::ok);
  ASSERT_EQ(f.open_receive(1, "z", Protocol::fcfs, &z), Status::ok);
  PollSetId ps = kInvalidPollSet;
  ASSERT_EQ(f.pollset_create(1, &ps), Status::ok);
  ASSERT_EQ(f.pollset_add(1, ps, a), Status::ok);
  const LnvcId ids[] = {z, a};
  for (int v : {1, 2}) ASSERT_EQ(f.send(0, tx, &v, sizeof(v)), Status::ok);
  int got = 0;
  std::size_t len = 0, index = 9;
  ASSERT_EQ(f.receive_any(1, ids, &got, sizeof(got), &len, &index),
            Status::ok);
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(got, 1);
  LnvcId ready = kInvalidLnvc;
  ASSERT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::ok);
  EXPECT_EQ(ready, a);
  ASSERT_EQ(f.receive(1, a, &got, sizeof(got), &len, 0), Status::ok);
  EXPECT_EQ(got, 2);
  EXPECT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::timed_out);

  std::thread waiter([&] {
    int w = 0;
    std::size_t wl = 0, wi = 9;
    ASSERT_EQ(f.receive_any(1, ids, &w, sizeof(w), &wl, &wi), Status::ok);
    EXPECT_EQ(wi, 1u);
    EXPECT_EQ(w, 3);
  });
  wait_armed(f, a, 2);  // the poll watch and the receive_any watch
  const int v = 3;
  ASSERT_EQ(f.send(0, tx, &v, sizeof(v)), Status::ok);
  waiter.join();
  EXPECT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::timed_out);
  EXPECT_TRUE(InvariantOracle::check(f, /*quiescent=*/true).ok())
      << InvariantOracle::check(f, true).summary();
}

TEST_F(ReceiveAnyTest, TwoCallersOnOneFcfsCircuitTakeEachMessageOnce) {
  // Pids 1 and 2 both block in receive_any on shared FCFS circuit "a"
  // (plus a private one each).  Every send fires both watches; the loser
  // of each claim re-arms.  Each message is delivered exactly once, and
  // neither caller sleeps through its stop marker.
  constexpr int kMsgs = 300;
  LnvcId tx;
  ASSERT_EQ(f.open_send(0, "a", &tx), Status::ok);
  std::vector<int> seen[3];
  std::vector<std::thread> receivers;
  for (ProcessId pid : {1u, 2u}) {
    LnvcId a, own;
    ASSERT_EQ(f.open_receive(pid, "a", Protocol::fcfs, &a), Status::ok);
    ASSERT_EQ(f.open_receive(pid, "own" + std::to_string(pid), Protocol::fcfs,
                             &own),
              Status::ok);
    receivers.emplace_back([&, pid, a, own] {
      const LnvcId ids[] = {own, a};
      for (;;) {
        int v = 0;
        std::size_t len = 0, index = 9;
        const Status st = f.receive_any(pid, ids, &v, sizeof(v), &len,
                                            &index, 10'000'000'000ull);
        ASSERT_EQ(st, Status::ok) << "pid " << pid << " lost a wake";
        ASSERT_EQ(index, 1u);
        if (len == 0) break;  // stop marker
        seen[pid].push_back(v);
      }
    });
  }
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_EQ(f.send(0, tx, &i, sizeof(i)), Status::ok);
  }
  ASSERT_EQ(f.send(0, tx, &kMsgs, 0), Status::ok);
  ASSERT_EQ(f.send(0, tx, &kMsgs, 0), Status::ok);
  for (auto& t : receivers) t.join();
  std::vector<int> all = seen[1];
  all.insert(all.end(), seen[2].begin(), seen[2].end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) EXPECT_EQ(all[i], i);
}

TEST_F(ReceiveAnyTest, IdsMayChangeBetweenCalls) {
  // A circuit dropped from the list is never returned, however ready; a
  // newly listed circuit's backlog is delivered by the first call that
  // lists it — including when the caller rewrites its array in place.
  LnvcId tx[4], rx[4];
  for (int i = 0; i < 4; ++i) {
    const std::string name(1, static_cast<char>('a' + i));
    ASSERT_EQ(f.open_send(0, name, &tx[i]), Status::ok);
    ASSERT_EQ(f.open_receive(1, name, Protocol::fcfs, &rx[i]), Status::ok);
  }
  const auto send = [&](int i, int v) {
    ASSERT_EQ(f.send(0, tx[i], &v, sizeof(v)), Status::ok);
  };
  int got = 0;
  std::size_t len = 0, index = 9;
  const auto poll = [&](std::span<const LnvcId> ids) {
    return f.receive_any(1, ids, &got, sizeof(got), &len, &index, 0);
  };
  const LnvcId abc[] = {rx[0], rx[1], rx[2]};
  EXPECT_EQ(poll(abc), Status::timed_out);  // arms a, b, c
  send(2, 30);                              // fires c
  const LnvcId ab[] = {rx[0], rx[1]};
  EXPECT_EQ(poll(ab), Status::timed_out);   // c is ready but not listed
  send(3, 40);                              // d: backlog, never listed
  const LnvcId ad[] = {rx[0], rx[3]};
  ASSERT_EQ(poll(ad), Status::ok);
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(got, 40);
  const LnvcId ca[] = {rx[2], rx[0]};
  ASSERT_EQ(poll(ca), Status::ok);
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(got, 30);

  std::vector<LnvcId> ids = {rx[0], rx[1]};
  EXPECT_EQ(poll(ids), Status::timed_out);
  send(3, 41);
  ids[1] = rx[3];
  ASSERT_EQ(poll(ids), Status::ok);
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(got, 41);
  EXPECT_EQ(poll(ids), Status::timed_out);
  EXPECT_TRUE(InvariantOracle::check(f, /*quiescent=*/true).ok())
      << InvariantOracle::check(f, true).summary();
}

TEST_F(ReceiveAnyTest, CloseOrDestroyUnderABlockedCall) {
  // Another thread of the blocked process closes a listed connection: the
  // call wakes and reports it as a receive would — not_connected while the
  // circuit lives on, no_such_lnvc once the close destroyed it.
  LnvcId tx_a, tx_c, a, b, c;
  ASSERT_EQ(f.open_send(0, "a", &tx_a), Status::ok);
  ASSERT_EQ(f.open_send(0, "c", &tx_c), Status::ok);
  ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &a), Status::ok);
  ASSERT_EQ(f.open_receive(1, "b", Protocol::fcfs, &b), Status::ok);
  ASSERT_EQ(f.open_receive(1, "c", Protocol::fcfs, &c), Status::ok);
  const auto blocked = [&](std::span<const LnvcId> ids, Status want) {
    return std::thread([&f = f, ids, want] {
      int v = 0;
      std::size_t len = 0, index = 0;
      EXPECT_EQ(f.receive_any(1, ids, &v, sizeof(v), &len, &index), want);
    });
  };
  const LnvcId ab[] = {a, b};
  std::thread t1 = blocked(ab, Status::not_connected);
  wait_armed(f, a, 1);
  wait_armed(f, b, 1);
  ASSERT_EQ(f.close_receive(1, a), Status::ok);  // sender keeps "a" alive
  t1.join();

  const LnvcId bc[] = {b, c};
  std::thread t2 = blocked(bc, Status::no_such_lnvc);
  wait_armed(f, b, 1);
  wait_armed(f, c, 1);
  ASSERT_EQ(f.close_receive(1, b), Status::ok);  // last connection: destroy
  t2.join();
  EXPECT_FALSE(f.lnvc_exists("b"));
  EXPECT_TRUE(InvariantOracle::check(f, /*quiescent=*/true).ok())
      << InvariantOracle::check(f, true).summary();
}

TEST_F(ReceiveAnyTest, ZeroTimeoutDeliversAnAlreadyReadyCircuit) {
  LnvcId tx, a, b;
  ASSERT_EQ(f.open_send(0, "b", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &a), Status::ok);
  ASSERT_EQ(f.open_receive(1, "b", Protocol::fcfs, &b), Status::ok);
  const LnvcId ids[] = {a, b};
  for (int v : {5, 6}) {
    ASSERT_EQ(f.send(0, tx, &v, sizeof(v)), Status::ok);
    int got = 0;
    std::size_t len = 0, index = 9;
    // First call (arming pass) and a repeat call over the armed list.
    ASSERT_EQ(f.receive_any(1, ids, &got, sizeof(got), &len, &index, 0),
              Status::ok);
    EXPECT_EQ(index, 1u);
    EXPECT_EQ(got, v);
  }
}

TEST_F(ReceiveAnyTest, ReapOfTheLastSendersOrphansABlockedCall) {
  // Every listed circuit loses its only sender to a failure: the reap
  // fires the watches it orphans, and the blocked call returns
  // lnvc_orphaned instead of waiting for a sender that cannot come back.
  LnvcId tx_a, tx_b, a, b;
  ASSERT_EQ(f.open_send(0, "a", &tx_a), Status::ok);
  ASSERT_EQ(f.open_send(0, "b", &tx_b), Status::ok);
  ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &a), Status::ok);
  ASSERT_EQ(f.open_receive(1, "b", Protocol::fcfs, &b), Status::ok);
  const LnvcId ids[] = {a, b};
  std::thread waiter([&] {
    int v = 0;
    std::size_t len = 0, index = 0;
    EXPECT_EQ(f.receive_any(1, ids, &v, sizeof(v), &len, &index),
              Status::lnvc_orphaned);
  });
  wait_armed(f, a, 1);
  wait_armed(f, b, 1);
  f.declare_dead(0);
  ASSERT_EQ(f.reap(2, 0), Status::ok);
  waiter.join();
  EXPECT_EQ(f.stats().orphaned_receives, 1u);
  // The orphaning fired once, but the state persists: a repeat call over
  // the same list, a permuted one, and one with a circuit listed twice all
  // report it again rather than parking for a fire that cannot come.
  int v = 0;
  std::size_t len = 0, index = 0;
  EXPECT_EQ(f.receive_any(1, ids, &v, sizeof(v), &len, &index),
            Status::lnvc_orphaned);
  const LnvcId permuted[] = {b, a};
  EXPECT_EQ(f.receive_any(1, permuted, &v, sizeof(v), &len, &index),
            Status::lnvc_orphaned);
  const LnvcId repeated[] = {a, b, a};
  EXPECT_EQ(f.receive_any(1, repeated, &v, sizeof(v), &len, &index,
                              1'000'000'000),
            Status::lnvc_orphaned);
  EXPECT_EQ(f.stats().orphaned_receives, 4u);
  // A new sender ends the orphaning of its circuit: the call waits again,
  // and delivers what that sender sends.
  LnvcId tx_b2;
  ASSERT_EQ(f.open_send(3, "b", &tx_b2), Status::ok);
  EXPECT_EQ(f.receive_any(1, ids, &v, sizeof(v), &len, &index, 0),
            Status::timed_out);
  const int msg = 7;
  ASSERT_EQ(f.send(3, tx_b2, &msg, sizeof(msg)), Status::ok);
  ASSERT_EQ(f.receive_any(1, ids, &v, sizeof(v), &len, &index), Status::ok);
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(v, 7);
}

// ----------------------------------------- death of a blocked receive_any

TEST(ReceiveAnySim, KilledWhileBlockedLeavesNoWatchBehind) {
  // Rank 1 dies parked in receive_any over {a, b}.  Its armed watch on "a"
  // must neither swallow the traffic the surviving receive_any caller
  // (rank 2) is owed nor survive the reap: after the run the quiescent
  // oracle finds every armed count matching its live connections and the
  // corpse's ready set empty.
  for (const bool lockfree : {false, true}) {
    Config c;
    c.max_lnvcs = 16;
    c.max_processes = 8;
    c.suspicion_ns = 1'000'000;  // 1 ms of virtual time
    c.lockfree_fcfs = lockfree;
    constexpr int kMsgs = 20;
    sim::Simulator simulator;
    sim::FaultPlan plan;
    plan.actions.push_back({sim::FaultAction::Kind::kill_at_time,
                            /*process=*/1, /*at_ns=*/300'000'000, 0, 0});
    simulator.set_fault_plan(plan);
    sim::SimPlatform platform(simulator);
    shm::HeapRegion region(c.derived_arena_bytes());
    Facility f = Facility::create(c, region, platform);
    int survivor_got = 0;
    simulator.spawn_group(3, [&](int rank) {
      const auto pid = static_cast<ProcessId>(rank);
      char buf[32] = {'m'};
      std::size_t len = 0, index = 0;
      if (rank == 0) {
        LnvcId tx = kInvalidLnvc, delay = kInvalidLnvc;
        ASSERT_EQ(f.open_send(pid, "a", &tx), Status::ok);
        ASSERT_EQ(f.open_receive(pid, "delay", Protocol::fcfs, &delay),
                  Status::ok);
        apps::startup_barrier(f, pid, 3, "join");
        // Let both callers park and the kill land mid-park.
        (void)f.receive(pid, delay, buf, sizeof buf, &len, 600'000'000);
        for (int i = 0; i < kMsgs; ++i) {
          ASSERT_EQ(f.send(pid, tx, buf, 8), Status::ok);
        }
        ASSERT_EQ(f.send(pid, tx, buf, 0), Status::ok);
        ASSERT_EQ(f.close_send(pid, tx), Status::ok);
        return;
      }
      LnvcId a = kInvalidLnvc, own = kInvalidLnvc;
      ASSERT_EQ(f.open_receive(pid, "a", Protocol::fcfs, &a), Status::ok);
      ASSERT_EQ(f.open_receive(pid, "own" + std::to_string(rank),
                               Protocol::fcfs, &own),
                Status::ok);
      apps::startup_barrier(f, pid, 3, "join");
      const LnvcId ids[] = {a, own};
      for (;;) {
        ASSERT_EQ(f.receive_any(pid, ids, buf, sizeof buf, &len, &index),
                  Status::ok);
        if (len == 0) break;
        if (rank == 2) ++survivor_got;
      }
      ASSERT_EQ(f.close_receive(pid, own), Status::ok);
      ASSERT_EQ(f.close_receive(pid, a), Status::ok);
    });
    simulator.run();
    EXPECT_EQ(simulator.kills(), 1u);
    ASSERT_FALSE(simulator.process_alive(1));
    f.declare_dead(1);
    ASSERT_EQ(f.reap(0, 1), Status::ok);
    EXPECT_EQ(survivor_got, kMsgs) << "lockfree=" << lockfree;
    const InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/true);
    EXPECT_TRUE(rep.ok()) << "lockfree=" << lockfree << "\n" << rep.summary();
  }
}

TEST(ReceiveAnyFork, SigkilledWhileBlockedIsReapedAndPidReused) {
  // A forked child parks in a real futex wait inside receive_any and is
  // SIGKILLed.  The reap drops its watches and clears its ready set, so a
  // later incarnation of the same pid starts clean and is woken normally.
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  shm::AnonSharedRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  LnvcId tx_a = kInvalidLnvc, tx_b = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "a", &tx_a), Status::ok);
  ASSERT_EQ(f.open_send(0, "b", &tx_b), Status::ok);

  const auto spawn = [&](int expect) {
    const pid_t child = fork();
    EXPECT_GE(child, 0);
    if (child != 0) return child;
    LnvcId a = kInvalidLnvc, b = kInvalidLnvc;
    if (f.open_receive(1, "a", Protocol::fcfs, &a) != Status::ok ||
        f.open_receive(1, "b", Protocol::fcfs, &b) != Status::ok) {
      _exit(60);
    }
    const LnvcId ids[] = {a, b};
    int v = 0;
    std::size_t len = 0, index = 0;
    if (f.receive_any(1, ids, &v, sizeof(v), &len, &index) != Status::ok) {
      _exit(61);
    }
    _exit(index == 1 && v == expect ? 0 : 62);
  };

  const pid_t victim = spawn(-1);
  wait_armed(f, tx_a, 1);
  wait_armed(f, tx_b, 1);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  EXPECT_FALSE(f.process_alive(1));
  ASSERT_EQ(f.reap(0, 1), Status::ok);
  EXPECT_EQ(InvariantOracle::lnvc(f, tx_a).armed.load(), 0u);
  EXPECT_EQ(InvariantOracle::lnvc(f, tx_b).armed.load(), 0u);
  {
    const InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/true);
    EXPECT_TRUE(rep.ok()) << rep.summary();
  }

  const pid_t next = spawn(77);  // same pid 1, new process
  wait_armed(f, tx_b, 1);
  const int v = 77;
  ASSERT_EQ(f.send(0, tx_b, &v, sizeof(v)), Status::ok);
  ASSERT_EQ(waitpid(next, &status, 0), next);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child exit "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status));
  EXPECT_TRUE(f.block_audit().consistent());
}

}  // namespace
