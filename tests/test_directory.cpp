// Sharded name directory, descriptor freelist, poll sets and pulses
// (DESIGN.md §14).  The suite forces the paths a healthy configuration
// rarely takes: every name in one bucket chain, descriptor slots cycling
// through the freelist, a bucket-lock holder killed mid-open, a poll-set
// owner reaped, and pulse slots driven to coalescing and overflow.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "mpf/apps/coordination.hpp"
#include "mpf/benchlib/simrun.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/core/invariants.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/sim/fault.hpp"

namespace {

using namespace mpf;
using namespace mpf::benchlib;

Config dir_config(std::uint32_t buckets, std::uint32_t lnvcs = 16) {
  Config c;
  c.max_lnvcs = lnvcs;
  c.max_processes = 16;
  c.block_payload = 64;
  c.message_blocks = 512;
  c.suspicion_ns = 1'000'000;  // 1 ms virtual
  c.dir_buckets = buckets;
  return c;
}

/// Virtual-time sleep inside a simulated worker: a timed receive on a
/// private circuit nobody sends to expires after exactly `ns`.
void sim_sleep(Facility& f, ProcessId pid, LnvcId delay, std::uint64_t ns) {
  char b[8];
  std::size_t got = 0;
  (void)f.receive(pid, delay, b, sizeof(b), &got, ns);
}

// ----------------------------------------------------- forced collisions

TEST(Directory, SingleBucketChainResolvesEveryName) {
  // dir_buckets = 1 degenerates the directory to one chain: every open
  // and lookup collides, so chain insert / walk / unlink carry the whole
  // test.
  const Config c = dir_config(/*buckets=*/1, /*lnvcs=*/8);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  std::vector<LnvcId> ids;
  for (int n = 0; n < 6; ++n) {
    LnvcId id = kInvalidLnvc;
    ASSERT_EQ(f.open_send(0, "name" + std::to_string(n), &id), Status::ok);
    ids.push_back(id);
  }
  for (int n = 0; n < 6; ++n) {
    EXPECT_TRUE(f.lnvc_exists("name" + std::to_string(n)));
  }
  EXPECT_FALSE(f.lnvc_exists("nameX"));

  const DirectoryInfo dir = f.directory_info();
  EXPECT_EQ(dir.buckets, 1u);
  EXPECT_EQ(dir.live_names, 6u);
  EXPECT_EQ(dir.max_chain, 6u);
  EXPECT_EQ(dir.free_slots, c.max_lnvcs - 6);
  // Probing a 6-deep chain walks past other names constantly.
  EXPECT_GT(f.stats().dir_collisions, 0u);

  // A second process's open-by-name lands on the same circuit: a message
  // crosses it.
  LnvcId rx = kInvalidLnvc;
  ASSERT_EQ(f.open_receive(1, "name3", Protocol::fcfs, &rx), Status::ok);
  EXPECT_EQ(rx, ids[3]);
  ASSERT_EQ(f.send(0, ids[3], "ping", 4), Status::ok);
  char buf[16];
  std::size_t got = 0;
  ASSERT_EQ(f.receive(1, rx, buf, sizeof buf, &got), Status::ok);
  EXPECT_EQ(got, 4u);

  ASSERT_EQ(f.close_receive(1, rx), Status::ok);
  for (int n = 0; n < 6; ++n) {
    ASSERT_EQ(f.close_send(0, ids[static_cast<std::size_t>(n)]), Status::ok);
  }
  const DirectoryInfo after = f.directory_info();
  EXPECT_EQ(after.live_names, 0u);
  EXPECT_EQ(after.free_slots, c.max_lnvcs);
  EXPECT_TRUE(InvariantOracle::check(f, /*quiescent=*/true).ok());
}

TEST(Directory, LengthFirstCompareDistinguishesPrefixNames) {
  // The descriptor caches the name length and compares it before the
  // bytes; shared-prefix names of different lengths and same-length
  // near-miss names must still resolve to distinct circuits.
  const Config c = dir_config(/*buckets=*/1, /*lnvcs=*/8);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  const char* names[] = {"p", "pp", "ppp", "abc", "abd"};
  std::map<std::string, LnvcId> id_of;
  for (const char* name : names) {
    LnvcId id = kInvalidLnvc;
    ASSERT_EQ(f.open_send(0, name, &id), Status::ok) << name;
    for (const auto& [other, oid] : id_of) {
      EXPECT_NE(id, oid) << name << " aliased " << other;
    }
    id_of[name] = id;
  }
  // No cross-talk: a message on "pp" is seen only by "pp"'s receiver.
  LnvcId rx_pp = kInvalidLnvc;
  LnvcId rx_ppp = kInvalidLnvc;
  ASSERT_EQ(f.open_receive(1, "pp", Protocol::fcfs, &rx_pp), Status::ok);
  ASSERT_EQ(f.open_receive(1, "ppp", Protocol::fcfs, &rx_ppp), Status::ok);
  ASSERT_EQ(f.send(0, id_of["pp"], "x", 1), Status::ok);
  char buf[8];
  std::size_t got = 0;
  ASSERT_EQ(f.receive(1, rx_ppp, buf, sizeof buf, &got, 0),
            Status::timed_out);
  ASSERT_EQ(f.receive(1, rx_pp, buf, sizeof buf, &got, 0), Status::ok);
}

// ------------------------------------------------------ freelist cycling

TEST(Directory, FreelistRecyclesSlotsAndConservesThem) {
  const Config c = dir_config(/*buckets=*/2, /*lnvcs=*/8);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  // Several generations of distinct names through the same 8 slots: every
  // create pops the freelist, every destroy pushes it back.
  for (int gen = 0; gen < 4; ++gen) {
    std::vector<LnvcId> ids;
    for (int n = 0; n < 8; ++n) {
      LnvcId id = kInvalidLnvc;
      const std::string name =
          "g" + std::to_string(gen) + "n" + std::to_string(n);
      ASSERT_EQ(f.open_send(0, name, &id), Status::ok) << name;
      ids.push_back(id);
    }
    // Table exhausted: the next create has no slot.
    LnvcId overflow = kInvalidLnvc;
    EXPECT_EQ(f.open_send(0, "overflow", &overflow), Status::table_full);
    const DirectoryInfo full = f.directory_info();
    EXPECT_EQ(full.live_names, 8u);
    EXPECT_EQ(full.free_slots, 0u);
    for (const LnvcId id : ids) {
      ASSERT_EQ(f.close_send(0, id), Status::ok);
    }
    const DirectoryInfo empty = f.directory_info();
    EXPECT_EQ(empty.live_names, 0u);
    EXPECT_EQ(empty.free_slots, 8u);
  }
  EXPECT_TRUE(InvariantOracle::check(f, /*quiescent=*/true).ok());
}

// ------------------------------------- churn vs concurrent lookups (sim)

TEST(SimDirectory, NameChurnVsConcurrentLookups) {
  // Half the ranks cycle names through open/close (constant chain insert
  // and unlink in 2 buckets); the other half race lookups and joins
  // against them.  Any outcome from the tolerated set is legal; the run
  // must end conserved.
  Config c = dir_config(/*buckets=*/2, /*lnvcs=*/8);
  c.max_processes = 8;
  constexpr int kProcs = 8;
  constexpr int kIters = 40;
  const ChaosMetrics m = run_chaos(
      c, kProcs, sim::FaultPlan{},
      [&](Facility f, int rank) {
        const auto pid = static_cast<ProcessId>(rank);
        for (int i = 0; i < kIters; ++i) {
          const std::string name = "n" + std::to_string((i + rank) % 5);
          if (rank % 2 == 0) {
            LnvcId id = kInvalidLnvc;
            const Status st = f.open_send(pid, name, &id);
            ASSERT_TRUE(st == Status::ok || st == Status::table_full ||
                        st == Status::already_connected)
                << to_string(st);
            if (st == Status::ok) {
              ASSERT_EQ(f.close_send(pid, id), Status::ok);
            }
          } else {
            (void)f.lnvc_exists(name);
            LnvcId id = kInvalidLnvc;
            const Status st =
                f.open_receive(pid, name, Protocol::fcfs, &id);
            ASSERT_TRUE(st == Status::ok || st == Status::table_full ||
                        st == Status::already_connected ||
                        st == Status::protocol_conflict)
                << to_string(st);
            if (st == Status::ok) {
              ASSERT_EQ(f.close_receive(pid, id), Status::ok);
            }
          }
          f.platform().yield();
        }
      });
  EXPECT_TRUE(m.blocks_conserved);
  EXPECT_EQ(m.kills, 0u);
}

TEST(SimDirectory, KilledBucketLockHolderIsSeizedAndRepaired) {
  // Rank 0 churns one name through open/close; kill_at_lock_acq drops it
  // just AFTER its k-th lock acquisition — inside that critical section,
  // lock held.  Sweeping k walks the corpse through every directory lock
  // the loop takes (bucket, descriptor, freelist).  Rank 1 then reopens
  // the same name and a fresh one: the robust locks must seize from the
  // corpse and repair whatever half-finished mutation it left — every k
  // must end usable and conserved, and the sweep as a whole must take the
  // seizure path at least once.
  std::uint64_t total_seizures = 0;
  for (std::uint64_t k = 1; k <= 12; ++k) {
    Config c = dir_config(/*buckets=*/1, /*lnvcs=*/8);
    c.max_processes = 4;
    sim::FaultPlan plan;
    sim::FaultAction kill;
    kill.kind = sim::FaultAction::Kind::kill_at_lock_acq;
    kill.process = 0;
    kill.count = k;
    plan.actions.push_back(kill);
    bool reopened = false;
    const ChaosMetrics m = run_chaos(
        c, 2, plan,
        [&](Facility f, int rank) {
          const auto pid = static_cast<ProcessId>(rank);
          if (rank == 0) {
            for (int i = 0; i < 6; ++i) {  // the kill interrupts this loop
              LnvcId id = kInvalidLnvc;
              if (f.open_send(pid, "hot", &id) != Status::ok) return;
              if (f.close_send(pid, id) != Status::ok) return;
            }
          } else {
            LnvcId nap = kInvalidLnvc;
            ASSERT_EQ(f.open_receive(pid, "nap", Protocol::fcfs, &nap),
                      Status::ok);
            sim_sleep(f, pid, nap, 60'000'000);  // well past the kill
            LnvcId id = kInvalidLnvc;
            ASSERT_EQ(f.open_send(pid, "hot", &id),
                      Status::ok);  // seizes whatever the corpse held
            ASSERT_EQ(f.close_send(pid, id), Status::ok);
            ASSERT_EQ(f.open_send(pid, "fresh", &id),
                      Status::ok);  // exercises free_pop after the death
            ASSERT_EQ(f.close_send(pid, id), Status::ok);
            ASSERT_EQ(f.close_receive(pid, nap), Status::ok);
            reopened = true;
          }
        });
    EXPECT_EQ(m.kills, 1u) << "k=" << k;
    EXPECT_TRUE(reopened) << "k=" << k;
    EXPECT_TRUE(m.blocks_conserved) << "k=" << k;
    total_seizures += m.seizures;
  }
  EXPECT_GT(total_seizures, 0u)
      << "no k killed the holder where a survivor had to seize";
}

// ------------------------------------------------------------ poll sets

TEST(PollSet, LifecycleReadinessAndLevelTriggering) {
  Config c = dir_config(/*buckets=*/4);
  c.max_pollsets = 2;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  LnvcId tx_a = kInvalidLnvc, tx_b = kInvalidLnvc;
  LnvcId rx_a = kInvalidLnvc, rx_b = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "a", &tx_a), Status::ok);
  ASSERT_EQ(f.open_send(0, "b", &tx_b), Status::ok);

  PollSetId ps = kInvalidPollSet;
  ASSERT_EQ(f.pollset_create(1, &ps), Status::ok);
  // Membership needs a receive connection.
  EXPECT_EQ(f.pollset_add(1, ps, tx_a), Status::not_connected);
  ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &rx_a), Status::ok);
  ASSERT_EQ(f.open_receive(1, "b", Protocol::fcfs, &rx_b), Status::ok);
  ASSERT_EQ(f.pollset_add(1, ps, rx_a), Status::ok);
  ASSERT_EQ(f.pollset_add(1, ps, rx_b), Status::ok);
  // One poll set per circuit, facility-wide: even another process with
  // its own receive connection cannot enroll an already-claimed circuit.
  PollSetId other = kInvalidPollSet;
  ASSERT_EQ(f.pollset_create(2, &other), Status::ok);
  LnvcId rx_a2 = kInvalidLnvc;
  ASSERT_EQ(f.open_receive(2, "a", Protocol::fcfs, &rx_a2), Status::ok);
  EXPECT_EQ(rx_a2, rx_a);
  EXPECT_EQ(f.pollset_add(2, other, rx_a2), Status::rejected);
  ASSERT_EQ(f.close_receive(2, rx_a2), Status::ok);
  ASSERT_EQ(f.pollset_destroy(2, other), Status::ok);

  // Drain the membership priming, then assert a quiet set times out.
  LnvcId ready = kInvalidLnvc;
  while (f.pollset_wait(1, ps, &ready, 0) == Status::ok) {
  }
  EXPECT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::timed_out);

  // A send marks its circuit ready; an undrained circuit stays ready
  // (level-triggered), a drained one goes quiet.
  ASSERT_EQ(f.send(0, tx_b, "m", 1), Status::ok);
  ASSERT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::ok);
  EXPECT_EQ(ready, rx_b);
  ASSERT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::ok);
  EXPECT_EQ(ready, rx_b);
  char buf[8];
  std::size_t got = 0;
  ASSERT_EQ(f.receive(1, rx_b, buf, sizeof buf, &got), Status::ok);
  EXPECT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::timed_out);
  EXPECT_GT(f.stats().pollset_wakes, 0u);

  // A pending pulse is readiness too.
  ASSERT_EQ(f.send_pulse(0, tx_a, 9), Status::ok);
  ASSERT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::ok);
  EXPECT_EQ(ready, rx_a);
  std::uint32_t code = 0, count = 0;
  ASSERT_EQ(f.receive_pulse(1, rx_a, &code, &count), Status::ok);
  EXPECT_EQ(code, 9u);
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::timed_out);

  // Removed members stop reporting; destroy invalidates the id.
  ASSERT_EQ(f.pollset_remove(1, ps, rx_b), Status::ok);
  ASSERT_EQ(f.send(0, tx_b, "m", 1), Status::ok);
  EXPECT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::timed_out);
  ASSERT_EQ(f.pollset_destroy(1, ps), Status::ok);
  EXPECT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::no_such_lnvc);
  EXPECT_TRUE(InvariantOracle::check(f, /*quiescent=*/false).ok());
}

TEST(PollSet, DeadOwnerIsReapedAndMembersDetach) {
  Config c = dir_config(/*buckets=*/4);
  c.max_pollsets = 2;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  LnvcId tx = kInvalidLnvc, rx0 = kInvalidLnvc, rx1 = kInvalidLnvc;
  ASSERT_EQ(f.open_send(2, "wire", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(0, "wire", Protocol::broadcast, &rx0),
            Status::ok);
  ASSERT_EQ(f.open_receive(1, "wire", Protocol::broadcast, &rx1),
            Status::ok);

  PollSetId ps = kInvalidPollSet;
  ASSERT_EQ(f.pollset_create(0, &ps), Status::ok);
  ASSERT_EQ(f.pollset_add(0, ps, rx0), Status::ok);

  // While pid 0's set claims the circuit, nobody else can enroll it.
  PollSetId mine = kInvalidPollSet;
  ASSERT_EQ(f.pollset_create(1, &mine), Status::ok);
  EXPECT_EQ(f.pollset_add(1, mine, rx1), Status::rejected);

  // The reap of the dead owner destroys its poll set and detaches the
  // member, so the survivor's add now succeeds and a wait on the dead
  // owner's id reports it gone.
  f.declare_dead(0);
  ASSERT_EQ(f.reap(1, 0), Status::ok);
  LnvcId ready = kInvalidLnvc;
  EXPECT_EQ(f.pollset_wait(1, ps, &ready, 0), Status::no_such_lnvc);
  EXPECT_EQ(f.pollset_add(1, mine, rx1), Status::ok);
  ASSERT_EQ(f.send(2, tx, "m", 1), Status::ok);
  ASSERT_EQ(f.pollset_wait(1, mine, &ready, 0), Status::ok);
  EXPECT_EQ(ready, rx1);
  EXPECT_TRUE(InvariantOracle::check(f, /*quiescent=*/false).ok());
}

TEST(PollSet, MembershipIsTheOwnersReceiveConnection) {
  // Readiness is judged for the owner's connection, and membership ends
  // with it: once the owner closes its receive connection the set stops
  // reporting the circuit and another set may enroll it.
  Config c = dir_config(/*buckets=*/4);
  c.max_pollsets = 2;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  LnvcId tx = kInvalidLnvc, rx0 = kInvalidLnvc, rx1 = kInvalidLnvc;
  ASSERT_EQ(f.open_send(2, "wire", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(0, "wire", Protocol::broadcast, &rx0),
            Status::ok);
  ASSERT_EQ(f.open_receive(1, "wire", Protocol::broadcast, &rx1),
            Status::ok);
  PollSetId ps = kInvalidPollSet, other = kInvalidPollSet;
  ASSERT_EQ(f.pollset_create(0, &ps), Status::ok);
  ASSERT_EQ(f.pollset_create(1, &other), Status::ok);
  ASSERT_EQ(f.pollset_add(0, ps, rx0), Status::ok);
  LnvcId ready = kInvalidLnvc;
  while (f.pollset_wait(0, ps, &ready, 0) == Status::ok) {
  }

  // A broadcast only pid 1 has left to read does not make pid 0's set
  // ready.
  ASSERT_EQ(f.send(2, tx, "m", 1), Status::ok);
  ASSERT_EQ(f.pollset_wait(0, ps, &ready, 0), Status::ok);
  EXPECT_EQ(ready, rx0);
  char buf[8];
  std::size_t got = 0;
  ASSERT_EQ(f.receive(0, rx0, buf, sizeof buf, &got), Status::ok);
  EXPECT_EQ(f.pollset_wait(0, ps, &ready, 0), Status::timed_out);

  // The owner closes its connection: the circuit leaves the set.
  ASSERT_EQ(f.close_receive(0, rx0), Status::ok);
  ASSERT_EQ(f.send(2, tx, "n", 1), Status::ok);
  EXPECT_EQ(f.pollset_wait(0, ps, &ready, 0), Status::timed_out);
  EXPECT_EQ(f.pollset_remove(0, ps, rx0), Status::not_connected);
  EXPECT_EQ(f.pollset_add(1, other, rx1), Status::ok);
  ASSERT_EQ(f.pollset_wait(1, other, &ready, 0), Status::ok);
  EXPECT_EQ(ready, rx1);
  EXPECT_TRUE(InvariantOracle::check(f, /*quiescent=*/false).ok());
}

TEST(SimPollSet, ServerWakesOnceForEachOfManyClients) {
  // The pub/sub shape the poll set exists for: one server parked on a set
  // of client circuits, each client sending exactly one message and one
  // pulse.  Every client must get through on wakes alone — no rotation
  // scan, no polling loop.
  Config c = dir_config(/*buckets=*/8, /*lnvcs=*/16);
  c.max_processes = 16;
  constexpr int kClients = 8;
  constexpr int kProcs = kClients + 1;
  int messages = 0;
  int pulses = 0;
  const ChaosMetrics m = run_chaos(
      c, kProcs, sim::FaultPlan{},
      [&](Facility f, int rank) {
        const auto pid = static_cast<ProcessId>(rank);
        if (rank == 0) {
          std::map<LnvcId, int> which;
          std::vector<LnvcId> rx(kClients, kInvalidLnvc);
          PollSetId ps = kInvalidPollSet;
          ASSERT_EQ(f.pollset_create(pid, &ps), Status::ok);
          for (int i = 0; i < kClients; ++i) {
            const std::string name = "cl" + std::to_string(i);
            ASSERT_EQ(f.open_receive(pid, name, Protocol::fcfs,
                                     &rx[static_cast<std::size_t>(i)]),
                      Status::ok);
            ASSERT_EQ(
                f.pollset_add(pid, ps, rx[static_cast<std::size_t>(i)]),
                Status::ok);
            which[rx[static_cast<std::size_t>(i)]] = i;
          }
          apps::startup_barrier(f, pid, kProcs, "join");
          while (messages < kClients || pulses < kClients) {
            LnvcId ready = kInvalidLnvc;
            ASSERT_EQ(f.pollset_wait(pid, ps, &ready, 1'000'000'000),
                      Status::ok);
            ASSERT_TRUE(which.count(ready));
            char buf[32];
            std::size_t got = 0;
            const Status st = f.receive(pid, ready, buf, sizeof buf, &got, 0);
            if (st != Status::timed_out) {
              ASSERT_EQ(st, Status::ok);
              ++messages;
            }
            std::uint32_t code = 0, count = 0;
            ASSERT_EQ(f.receive_pulse(pid, ready, &code, &count),
                      Status::ok);
            if (count != 0) {
              EXPECT_EQ(code, static_cast<std::uint32_t>(which[ready]));
              ++pulses;
            }
          }
          for (int i = 0; i < kClients; ++i) {
            ASSERT_EQ(f.close_receive(pid, rx[static_cast<std::size_t>(i)]),
                      Status::ok);
          }
          ASSERT_EQ(f.pollset_destroy(pid, ps), Status::ok);
        } else {
          LnvcId tx = kInvalidLnvc;
          const std::string name = "cl" + std::to_string(rank - 1);
          ASSERT_EQ(f.open_send(pid, name, &tx), Status::ok);
          apps::startup_barrier(f, pid, kProcs, "join");
          ASSERT_EQ(f.send(pid, tx, "hello", 5), Status::ok);
          ASSERT_EQ(
              f.send_pulse(pid, tx, static_cast<std::uint32_t>(rank - 1)),
              Status::ok);
          ASSERT_EQ(f.close_send(pid, tx), Status::ok);
        }
      });
  EXPECT_EQ(messages, kClients);
  EXPECT_EQ(pulses, kClients);
  EXPECT_TRUE(m.blocks_conserved);
}

// --------------------------------------------------------------- pulses

TEST(Pulse, CoalescingDrainOrderAndOverflow) {
  const Config c = dir_config(/*buckets=*/4);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  LnvcId tx = kInvalidLnvc, rx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "pulse", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "pulse", Protocol::fcfs, &rx), Status::ok);

  // Repeats of a pending code coalesce into one slot with a count.
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(f.send_pulse(0, tx, 7), Status::ok);
  }
  std::uint32_t code = 0, count = 0;
  ASSERT_EQ(f.receive_pulse(1, rx, &code, &count), Status::ok);
  EXPECT_EQ(code, 7u);
  EXPECT_EQ(count, 5u);
  ASSERT_EQ(f.receive_pulse(1, rx, &code, &count), Status::ok);
  EXPECT_EQ(count, 0u);  // drained

  // Distinct codes fill the fixed slots; one more is table_full, and a
  // repeat of a pending code still coalesces at capacity.
  for (std::uint32_t n = 0; n < detail::kPulseSlots; ++n) {
    ASSERT_EQ(f.send_pulse(0, tx, 100 + n), Status::ok);
  }
  EXPECT_EQ(f.send_pulse(0, tx, 999), Status::table_full);
  ASSERT_EQ(f.send_pulse(0, tx, 100), Status::ok);
  const FacilityStats stats = f.stats();
  EXPECT_EQ(stats.pulses_sent, 5u + detail::kPulseSlots + 1);
  EXPECT_EQ(stats.pulses_coalesced, 5u);  // 4 repeats of 7, 1 repeat of 100
  // Drain in slot order: lowest slot first.
  for (std::uint32_t n = 0; n < detail::kPulseSlots; ++n) {
    ASSERT_EQ(f.receive_pulse(1, rx, &code, &count), Status::ok);
    EXPECT_EQ(code, 100 + n);
    EXPECT_EQ(count, n == 0 ? 2u : 1u);
  }
  ASSERT_EQ(f.receive_pulse(1, rx, &code, &count), Status::ok);
  EXPECT_EQ(count, 0u);

  // A pulse needs the right connection on each side.
  EXPECT_EQ(f.send_pulse(1, rx, 1), Status::not_connected);
  EXPECT_EQ(f.receive_pulse(0, tx, &code, &count), Status::not_connected);
  EXPECT_TRUE(InvariantOracle::check(f, /*quiescent=*/false).ok());
}

}  // namespace
