// Invariant-oracle tests (DESIGN.md §13): a clean facility passes both
// strictness levels, and a targeted corruption of each structure class is
// reported under the right Invariant enumerator.  The corruptions go
// through InvariantOracle's white-box accessors against a scratch heap
// arena — never through the public API, which by construction cannot
// produce them.
#include <gtest/gtest.h>

#include <string>

#include "mpf/benchlib/fuzz.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/core/invariants.hpp"
#include "mpf/shm/region.hpp"

namespace {

using namespace mpf;

struct InvariantsTest : ::testing::Test {
  Config config = [] {
    Config c;
    c.max_lnvcs = 8;
    c.max_processes = 8;
    c.block_payload = 10;  // small blocks: every send chains
    c.message_blocks = 2048;
    return c;
  }();
  shm::HeapRegion region{config.derived_arena_bytes()};
  Facility f{Facility::create(config, region)};

  LnvcId open_pair(const std::string& name) {
    LnvcId tx = kInvalidLnvc;
    LnvcId rx = kInvalidLnvc;
    EXPECT_EQ(f.open_send(0, name, &tx), Status::ok);
    EXPECT_EQ(f.open_receive(1, name, Protocol::fcfs, &rx), Status::ok);
    EXPECT_EQ(tx, rx);
    return tx;
  }
  void send_bytes(LnvcId id, std::size_t len) {
    std::string payload(len, 'x');
    ASSERT_EQ(f.send(0, id, payload.data(), payload.size()), Status::ok);
  }

  /// True when some violation of class `cls` mentions `needle`.
  static bool reported(const InvariantReport& rep, Invariant cls,
                       const std::string& needle) {
    for (const InvariantViolation& v : rep.violations) {
      if (v.cls == cls && v.detail.find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  }
};

TEST_F(InvariantsTest, CleanFacilityPassesBothLevels) {
  const LnvcId id = open_pair("conv");
  send_bytes(id, 25);
  send_bytes(id, 4);
  char buf[32];
  std::size_t got = 0;
  ASSERT_EQ(f.receive(1, id, buf, sizeof buf, &got), Status::ok);

  InvariantReport live = InvariantOracle::check(f, /*quiescent=*/false);
  EXPECT_TRUE(live.ok()) << live.summary();
  InvariantReport rest = InvariantOracle::check(f, /*quiescent=*/true);
  EXPECT_TRUE(rest.ok()) << rest.summary();
  EXPECT_GE(rest.circuits_checked, 1u);
  EXPECT_GE(rest.messages_checked, 1u);  // one message still queued
}

TEST_F(InvariantsTest, QueueCountCorruptionIsFifoViolation) {
  const LnvcId id = open_pair("conv");
  send_bytes(id, 12);
  detail::LnvcDesc& d = InvariantOracle::lnvc(f, id);
  ++d.n_queued;
  InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/false);
  EXPECT_TRUE(reported(rep, Invariant::fifo, "n_queued")) << rep.summary();
  --d.n_queued;
}

TEST_F(InvariantsTest, SequenceCorruptionIsFifoViolation) {
  const LnvcId id = open_pair("conv");
  send_bytes(id, 12);
  send_bytes(id, 12);
  detail::LnvcDesc& d = InvariantOracle::lnvc(f, id);
  detail::MsgHeader* first = InvariantOracle::msg_at(f, d.msg_head.off);
  ASSERT_NE(first, nullptr);
  detail::MsgHeader* second = InvariantOracle::msg_at(f, first->next_msg);
  ASSERT_NE(second, nullptr);
  const std::uint64_t saved = second->seq;
  second->seq = first->seq;  // duplicate: order no longer strict
  InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/false);
  EXPECT_TRUE(reported(rep, Invariant::fifo, "strictly increasing"))
      << rep.summary();
  second->seq = saved;
}

TEST_F(InvariantsTest, LedgerCorruptionIsLedgerViolation) {
  const LnvcId id = open_pair("conv");
  send_bytes(id, 12);
  detail::LnvcDesc& d = InvariantOracle::lnvc(f, id);
  const std::uint32_t saved = d.used_blocks;
  d.used_blocks = saved + 7;  // charges nobody can account for
  InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/false);
  EXPECT_TRUE(reported(rep, Invariant::ledger, "used_blocks"))
      << rep.summary();
  d.used_blocks = saved;
}

TEST_F(InvariantsTest, PhantomParkedSenderIsParkingViolation) {
  const LnvcId id = open_pair("conv");
  detail::LnvcDesc& d = InvariantOracle::lnvc(f, id);
  detail::ProcSlot& ps = InvariantOracle::proc(f, 3);
  ps.park_lnvc = static_cast<std::uint32_t>(id);
  ps.park_gen = d.generation;
  ps.park_ticket = 5;  // >= park_next_ticket: never issued
  ps.park_active.store(1, std::memory_order_release);
  InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/false);
  EXPECT_TRUE(reported(rep, Invariant::parking, "park ticket"))
      << rep.summary();
  EXPECT_TRUE(reported(rep, Invariant::parking, "park_waiters"))
      << rep.summary();
  ps.park_active.store(0, std::memory_order_release);
}

TEST_F(InvariantsTest, PinCorruptionIsViewsViolation) {
  const LnvcId id = open_pair("conv");
  send_bytes(id, 12);
  MsgView view;
  ASSERT_EQ(f.receive_view(1, id, &view, 0), Status::ok);
  detail::MsgHeader* m = InvariantOracle::msg_at(f, view.msg);
  ASSERT_NE(m, nullptr);
  ++m->pins;  // one armed view, two pins
  InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/true);
  EXPECT_TRUE(reported(rep, Invariant::views, "armed views"))
      << rep.summary();
  --m->pins;
  EXPECT_EQ(f.release_view(1, &view), Status::ok);
}

TEST_F(InvariantsTest, DeadUnreapedProcessIsQuiescenceViolation) {
  open_pair("conv");
  f.declare_dead(1);
  InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/true);
  EXPECT_TRUE(reported(rep, Invariant::quiescence, "dead process not reaped"))
      << rep.summary();
  // The live-arena level does not demand reaped processes.
  InvariantReport live = InvariantOracle::check(f, /*quiescent=*/false);
  EXPECT_TRUE(live.ok()) << live.summary();
  ASSERT_EQ(f.reap(0, 1), Status::ok);
  InvariantReport after = InvariantOracle::check(f, /*quiescent=*/true);
  EXPECT_TRUE(after.ok()) << after.summary();
}

TEST_F(InvariantsTest, BlockCountCorruptionBreaksConservation) {
  const LnvcId id = open_pair("conv");
  send_bytes(id, 35);  // 4 blocks at block_payload = 10
  detail::LnvcDesc& d = InvariantOracle::lnvc(f, id);
  detail::MsgHeader* m = InvariantOracle::msg_at(f, d.msg_head.off);
  ASSERT_NE(m, nullptr);
  ASSERT_GT(m->nblocks, 1u);
  const std::uint32_t saved = m->nblocks;
  --m->nblocks;  // a block vanishes from the queued-side ledger
  InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/false);
  EXPECT_TRUE(reported(rep, Invariant::conservation, "block ledger"))
      << rep.summary();
  m->nblocks = saved;
}

TEST_F(InvariantsTest, ShardMapCorruptionBreaksConservation) {
  const LnvcId id = open_pair("conv");
  send_bytes(id, 35);  // 4 blocks from process 0's home shard
  shm::Arena& arena = InvariantOracle::arena(f);
  shm::RunAllocator& runs = InvariantOracle::shard(f, 0).blocks;
  // The last block of the range is free; point its link elsewhere.
  const std::size_t last = runs.capacity() - 1;
  ASSERT_TRUE(runs.is_free(arena, last));
  auto* link = static_cast<shm::Offset*>(arena.raw(runs.node(last)));
  *link = runs.node(0);
  InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/false);
  EXPECT_TRUE(reported(rep, Invariant::conservation,
                       "link does not name their successor"))
      << rep.summary();
  *link = runs.node(last + 1);
  ASSERT_TRUE(InvariantOracle::check(f, /*quiescent=*/false).ok());
  // A queued message's first block handed back to the map behind the
  // FIFO's back: free and reachable at once.
  detail::MsgHeader* m =
      InvariantOracle::msg_at(f, InvariantOracle::lnvc(f, id).msg_head.off);
  ASSERT_NE(m, nullptr);
  ASSERT_TRUE(runs.contains(m->first_block));
  shm::Offset next = shm::kNullOffset;
  ASSERT_EQ(runs.push_chain(arena, m->first_block, 1, next), 1u);
  rep = InvariantOracle::check(f, /*quiescent=*/false);
  EXPECT_TRUE(reported(rep, Invariant::conservation,
                       "is free but reachable from its FIFO"))
      << rep.summary();
}

TEST_F(InvariantsTest, WatchCorruptionIsWatchesViolation) {
  // A receive_any poll arms one watch per listed circuit; the oracle then
  // holds the armed count to the connections and, at rest, every watched
  // circuit to "armed or marked ready".
  const LnvcId a = open_pair("a");
  const LnvcId b = open_pair("b");
  const LnvcId ids[] = {a, b};
  char buf[8];
  std::size_t len = 0, index = 0;
  ASSERT_EQ(f.receive_any(1, ids, buf, sizeof buf, &len, &index, 0),
            Status::timed_out);
  InvariantReport clean = InvariantOracle::check(f, /*quiescent=*/true);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  detail::LnvcDesc& d = InvariantOracle::lnvc(f, a);
  ASSERT_EQ(d.armed.load(), 1u);
  d.armed.fetch_add(1);  // a phantom watch
  InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/false);
  EXPECT_TRUE(reported(rep, Invariant::watches, "armed count"))
      << rep.summary();
  d.armed.fetch_sub(1);

  // Disarm pid 1's connection without marking it: a lost wake.  (The
  // receive connection was opened last, so it heads the list.)
  auto* conn =
      reinterpret_cast<detail::Connection*>(InvariantOracle::msg_at(
          f, d.connections.off));
  ASSERT_FALSE(conn->is_sender());
  conn->armed = 0;
  d.armed.fetch_sub(1);
  EXPECT_TRUE(InvariantOracle::check(f, /*quiescent=*/false).ok());
  rep = InvariantOracle::check(f, /*quiescent=*/true);
  EXPECT_TRUE(reported(rep, Invariant::watches, "lost wake"))
      << rep.summary();
  conn->armed = detail::Connection::kWatchAny;
  d.armed.fetch_add(1);

  // A dead, unreaped watcher still owns its watches; the reap drops them.
  f.declare_dead(1);
  rep = InvariantOracle::check(f, /*quiescent=*/true);
  EXPECT_TRUE(reported(rep, Invariant::watches, "not live")) << rep.summary();
  ASSERT_EQ(f.reap(0, 1), Status::ok);
  InvariantReport after = InvariantOracle::check(f, /*quiescent=*/true);
  EXPECT_TRUE(after.ok()) << after.summary();
}

// End-to-end: a fuzz case (random schedule, kills enabled, oracle at
// every round barrier) runs oracle-clean.  This is the same harness the
// fuzz ctest label drives at scale; one pinned case keeps the coupling
// tested from the default suite too.
TEST(InvariantsFuzz, ChaosScheduleRunsOracleClean) {
  benchlib::FuzzParams p;
  p.seed = 5;
  p.procs = 6;
  p.rounds = 2;
  p.ops = 16;
  p.max_kills = 1;
  p.max_pauses = 0;
  const benchlib::FuzzResult r = benchlib::run_fuzz_case(p);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_GE(r.oracle_checks, 2u);
  EXPECT_GT(r.receives, 0u);
}

}  // namespace
