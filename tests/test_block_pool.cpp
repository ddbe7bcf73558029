// The sharded block-pool allocator: shard carving, magazine caching,
// cross-shard stealing, magazine raids under exhaustion, and the run
// allocator's chain layout (contiguity, owning-shard return, crash
// safety).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "mpf/core/facility.hpp"
#include "mpf/core/invariants.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/sim/sim_platform.hpp"

namespace {

using namespace mpf;

/// Links of a `count`-block chain that do not name the next block in
/// memory: the seams between the chain's address-ordered runs.
std::size_t chain_seams(const Facility& f, shm::Offset b, std::size_t count) {
  const shm::Arena& arena = InvariantOracle::arena(f);
  const std::size_t stride = InvariantOracle::shard(f, 0).blocks.node_bytes();
  std::size_t seams = 0;
  for (std::size_t i = 1; i < count; ++i) {
    const shm::Offset next = *static_cast<const shm::Offset*>(arena.raw(b));
    if (next != b + stride) ++seams;
    b = next;
  }
  return seams;
}

TEST(BlockPool, ResolvedDerivesShardCountAndCacheBound) {
  Config c;
  c.max_processes = 32;
  const Config r = c.resolved();
  EXPECT_EQ(r.pool_shards, 8u);  // next pow2 of 32/4
  EXPECT_GT(r.cache_blocks, 0u);
  // Tiny pools disable caching so exhaustion semantics stay exact.
  Config tiny;
  tiny.max_processes = 4;
  tiny.message_blocks = 8;
  tiny.message_headers = 8;
  const Config rt = tiny.resolved();
  EXPECT_EQ(rt.pool_shards, 1u);
  EXPECT_EQ(rt.cache_blocks, 0u);
  // Explicit shard counts round up to a power of two.
  Config odd;
  odd.pool_shards = 3;
  EXPECT_EQ(odd.resolved().pool_shards, 4u);
}

TEST(BlockPool, CarvingSplitsPoolsAcrossShards) {
  Config c;
  c.max_lnvcs = 4;
  c.max_processes = 4;
  c.pool_shards = 4;
  c.message_blocks = 10;  // uneven: shards get 3,3,2,2
  c.message_headers = 6;  // 2,2,1,1
  c.per_process_cache = false;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  EXPECT_EQ(f.pool_shards(), 4u);
  const auto infos = f.pool_shard_infos();
  ASSERT_EQ(infos.size(), 4u);
  std::size_t blocks = 0, msgs = 0;
  for (const auto& s : infos) {
    blocks += s.free_blocks;
    msgs += s.free_msgs;
    EXPECT_EQ(s.free_blocks, s.block_capacity);
  }
  EXPECT_EQ(blocks, 10u);
  EXPECT_EQ(msgs, 6u);
  EXPECT_EQ(infos[0].block_capacity, 3u);
  EXPECT_EQ(infos[3].block_capacity, 2u);
  EXPECT_EQ(f.stats().blocks_free, 10u);
  EXPECT_EQ(f.stats().blocks_total, 10u);
}

TEST(BlockPool, MagazineServesSteadyTrafficWithoutShardLocks) {
  Config c;
  c.max_lnvcs = 4;
  c.max_processes = 4;
  c.message_blocks = 512;
  c.message_headers = 128;
  c.cache_blocks = 16;  // explicit so the magazine is definitely on
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  LnvcId tx, rx;
  ASSERT_EQ(f.open_send(0, "q", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "q", Protocol::fcfs, &rx), Status::ok);
  char buf[32] = {};
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(f.send(0, tx, buf, sizeof(buf)), Status::ok);
    std::size_t len = 0;
    ASSERT_EQ(f.receive(1, rx, buf, sizeof(buf), &len), Status::ok);
  }
  const FacilityStats s = f.stats();
  // The sender's magazine (refilled in batches) must be serving the bulk
  // of the traffic: far fewer shard visits than allocations.
  EXPECT_GE(s.cache_hits, 300u);
  EXPECT_LE(s.cache_misses, 200u);
  EXPECT_GT(s.shard_lock_acquisitions, 0u);
  EXPECT_LT(s.shard_lock_acquisitions, 1000u);
  // Magazine contents still count as free blocks; nothing leaked.
  EXPECT_EQ(s.blocks_free, 512u);
  EXPECT_GT(s.blocks_cached, 0u);
  const auto caches = f.proc_cache_infos();
  ASSERT_FALSE(caches.empty());
}

TEST(BlockPool, DryShardStealsFromSiblings) {
  Config c;
  c.max_lnvcs = 4;
  c.max_processes = 4;
  c.pool_shards = 4;  // 4 blocks per shard
  c.message_blocks = 16;
  c.message_headers = 8;
  c.per_process_cache = false;
  c.block_policy = BlockPolicy::fail;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  LnvcId tx, rx;
  ASSERT_EQ(f.open_send(0, "q", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "q", Protocol::fcfs, &rx), Status::ok);
  // 12 blocks is three shards' worth: process 0's home shard alone cannot
  // satisfy it, so the allocator must sweep siblings.
  std::vector<char> big(120);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(i * 7 + 1);
  }
  ASSERT_EQ(f.send(0, tx, big.data(), big.size()), Status::ok);
  EXPECT_GT(f.stats().shard_steals, 0u);
  std::vector<char> got(big.size());
  std::size_t len = 0;
  ASSERT_EQ(f.receive(1, rx, got.data(), got.size(), &len), Status::ok);
  EXPECT_EQ(len, big.size());
  EXPECT_EQ(std::memcmp(big.data(), got.data(), big.size()), 0);
  // Every stolen block came back; none lost, none double-freed.
  EXPECT_EQ(f.stats().blocks_free, 16u);
}

TEST(BlockPool, ExhaustedSenderRaidsPeerMagazines) {
  Config c;
  c.max_lnvcs = 4;
  c.max_processes = 4;
  c.pool_shards = 1;
  c.message_blocks = 12;
  c.message_headers = 8;
  c.cache_blocks = 8;  // small pool, caching forced on
  c.block_policy = BlockPolicy::fail;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  LnvcId tx, rx;
  ASSERT_EQ(f.open_send(0, "q", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "q", Protocol::fcfs, &rx), Status::ok);
  // Park blocks in process 1's magazine by having it free messages.
  char buf[40] = {};
  std::size_t len = 0;
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(f.send(0, tx, buf, sizeof(buf)), Status::ok);
    ASSERT_EQ(f.receive(1, rx, buf, sizeof(buf), &len), Status::ok);
  }
  const auto caches = f.proc_cache_infos();
  bool parked = false;
  for (const auto& pc : caches) parked = parked || pc.blocks > 0;
  ASSERT_TRUE(parked);
  // A 100-byte message needs 10 of the 12 blocks: the shard alone cannot
  // supply them, so without raiding this send would fail.
  LnvcId tx2;
  ASSERT_EQ(f.open_send(2, "q", &tx2), Status::ok);
  std::vector<char> big(100, 'x');
  ASSERT_EQ(f.send(2, tx2, big.data(), big.size()), Status::ok);
  EXPECT_GE(f.stats().cache_raids, 1u);
  std::vector<char> got(big.size());
  ASSERT_EQ(f.receive(1, rx, got.data(), got.size(), &len), Status::ok);
  EXPECT_EQ(len, big.size());
  EXPECT_EQ(got, big);
  EXPECT_EQ(f.stats().blocks_free, 12u);
}

TEST(BlockPool, ConcurrentTrafficAcrossShardsStaysBalanced) {
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 4;
  c.pool_shards = 4;
  c.message_blocks = 64;
  c.message_headers = 32;
  c.per_process_cache = false;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  constexpr int kPairs = 2;
  constexpr int kMsgs = 500;
  std::vector<std::thread> threads;
  for (int p = 0; p < kPairs; ++p) {
    const std::string name = "ch" + std::to_string(p);
    LnvcId tx, rx;
    ASSERT_EQ(f.open_send(p, name, &tx), Status::ok);
    ASSERT_EQ(f.open_receive(p + kPairs, name, Protocol::fcfs, &rx),
              Status::ok);
    threads.emplace_back([&f, tx, p] {
      std::vector<char> msg(40, static_cast<char>('A' + p));
      for (int i = 0; i < kMsgs; ++i) {
        ASSERT_EQ(f.send(p, tx, msg.data(), msg.size()), Status::ok);
      }
    });
    threads.emplace_back([&f, rx, p] {
      std::vector<char> msg(40);
      for (int i = 0; i < kMsgs; ++i) {
        std::size_t len = 0;
        ASSERT_EQ(f.receive(p + kPairs, rx, msg.data(), msg.size(), &len),
                  Status::ok);
        ASSERT_EQ(len, msg.size());
        for (char ch : msg) ASSERT_EQ(ch, static_cast<char>('A' + p));
      }
    });
  }
  for (auto& t : threads) t.join();
  const FacilityStats s = f.stats();
  EXPECT_EQ(s.blocks_free, 64u);
  EXPECT_EQ(s.sends, static_cast<std::uint64_t>(kPairs) * kMsgs);
}

TEST(BlockPool, FunnelSteadyStateKeepsChainsNearlyContiguous) {
  // The native funnel's shape on one thread: two sender pids and one
  // receiver pid, magazines on, 1 KiB (103-block) messages interleaved at
  // random with up to 40 in flight.  A free list of recycled chains left
  // such chains 50-60 seams apart; runs keep them within a few.
  Config c;
  c.max_processes = 3;  // 4,915 blocks, one shard, 128-block magazines
  c.block_policy = BlockPolicy::fail;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  ASSERT_GT(c.resolved().cache_blocks, 103u);
  LnvcId rx = kInvalidLnvc;
  LnvcId tx[3] = {};
  ASSERT_EQ(f.open_receive(0, "funnel", Protocol::fcfs, &rx), Status::ok);
  ASSERT_EQ(f.open_send(1, "funnel", &tx[1]), Status::ok);
  ASSERT_EQ(f.open_send(2, "funnel", &tx[2]), Status::ok);
  constexpr int kMsgs = 10'000;
  constexpr int kMaxQueued = 40;
  std::vector<char> msg(1024, 'm');
  std::mt19937 rng(11);
  int sent = 0, received = 0, queued = 0;
  std::size_t seams = 0;
  while (received < kMsgs) {
    const bool can_send = sent < kMsgs && queued < kMaxQueued;
    if (can_send && (queued == 0 || rng() % 2 == 0)) {
      const ProcessId pid = 1 + rng() % 2;
      ASSERT_EQ(f.send(pid, tx[pid], msg.data(), msg.size()), Status::ok);
      const detail::MsgHeader* m = InvariantOracle::msg_at(
          f, InvariantOracle::lnvc(f, rx).msg_tail.off);
      ASSERT_NE(m, nullptr);
      ASSERT_EQ(m->nblocks, 103u);
      seams += chain_seams(f, m->first_block, m->nblocks);
      ++sent;
      ++queued;
    } else {
      std::size_t len = 0;
      ASSERT_EQ(f.receive(0, rx, msg.data(), msg.size(), &len), Status::ok);
      ASSERT_EQ(len, msg.size());
      ++received;
      --queued;
    }
  }
  const double mean = static_cast<double>(seams) / kMsgs;
  std::printf("mean seams per 103-block chain: %.2f\n", mean);
  EXPECT_LE(mean, 3.0);
  EXPECT_EQ(f.stats().blocks_free, f.stats().blocks_total);
}

TEST(BlockPool, FreedChainsReturnToTheShardsThatCarvedThem) {
  Config c;
  c.max_lnvcs = 4;
  c.max_processes = 4;
  c.pool_shards = 4;  // 16 blocks per shard
  c.message_blocks = 64;
  c.message_headers = 16;
  c.per_process_cache = false;
  c.block_policy = BlockPolicy::fail;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  LnvcId tx = kInvalidLnvc, tx2 = kInvalidLnvc, rx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "q", &tx), Status::ok);
  ASSERT_EQ(f.open_send(2, "q", &tx2), Status::ok);
  ASSERT_EQ(f.open_receive(1, "q", Protocol::fcfs, &rx), Status::ok);
  std::vector<char> big(400, 'b');  // 40 blocks: home shard 0 plus steals
  std::vector<char> mid(150, 'm');  // 15 blocks from process 2's side
  ASSERT_EQ(f.send(0, tx, big.data(), big.size()), Status::ok);
  ASSERT_EQ(f.send(2, tx2, mid.data(), mid.size()), Status::ok);
  EXPECT_GT(f.stats().shard_steals, 0u);
  // Process 1 (home shard 1) frees every chain: each block must go back
  // to the shard whose range holds it, not to the freer's.
  std::vector<char> got(400);
  std::size_t len = 0;
  ASSERT_EQ(f.receive(1, rx, got.data(), got.size(), &len), Status::ok);
  EXPECT_EQ(len, big.size());
  ASSERT_EQ(f.receive(1, rx, got.data(), got.size(), &len), Status::ok);
  EXPECT_EQ(len, mid.size());
  for (const PoolShardInfo& s : f.pool_shard_infos()) {
    EXPECT_EQ(s.free_blocks, s.block_capacity) << "shard " << s.index;
    EXPECT_EQ(s.free_runs, 1u) << "shard " << s.index;
    EXPECT_EQ(s.largest_free_run, s.block_capacity) << "shard " << s.index;
  }
  const InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/true);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(BlockPool, DeathBetweenGatherAndEnqueueReturnsAMultiRunChain) {
  // Kill the sender of a 40-block chain (a hole in its home shard plus
  // steals from two siblings) inside each of its lock acquisitions in
  // turn.  Wherever it dies, reap must return every block to the shard
  // that carved it; at least one death must land while the journal holds
  // the whole multi-run chain between gather and enqueue.
  Config c;
  c.max_lnvcs = 4;
  c.max_processes = 4;
  c.pool_shards = 4;
  c.message_blocks = 64;
  c.message_headers = 16;
  c.per_process_cache = false;
  c.suspicion_ns = 1'000'000;
  bool held_whole_chain = false;
  for (std::uint64_t k = 1; k <= 40; ++k) {
    sim::Simulator simulator;
    sim::FaultPlan plan;
    sim::FaultAction kill;
    kill.kind = sim::FaultAction::Kind::kill_at_lock_acq;
    kill.process = 0;
    kill.count = k;
    plan.actions.push_back(kill);
    simulator.set_fault_plan(plan);
    sim::SimPlatform platform(simulator);
    shm::HeapRegion region(c.derived_arena_bytes());
    Facility f = Facility::create(c, region, platform);
    LnvcId rx = kInvalidLnvc;
    simulator.spawn([&] {
      LnvcId tx = kInvalidLnvc;
      if (f.open_send(0, "q", &tx) != Status::ok) return;
      const std::vector<char> small(20, 's');
      (void)f.send(0, tx, small.data(), small.size());
      (void)f.send(0, tx, small.data(), small.size());
      simulator.advance(2'000'000);  // the receiver frees the first
      const std::vector<char> big(400, 'b');
      (void)f.send(0, tx, big.data(), big.size());
    });
    simulator.spawn([&] {
      if (f.open_receive(1, "q", Protocol::fcfs, &rx) != Status::ok) return;
      char buf[20];
      std::size_t len = 0;
      (void)f.receive(1, rx, buf, sizeof buf, &len, 1'000'000);
    });
    simulator.run();
    if (simulator.process_alive(0)) continue;
    const detail::ProcSlot& ps = InvariantOracle::proc(f, 0);
    const auto op = static_cast<detail::JournalOp>(ps.op.load());
    if ((op == detail::JournalOp::gather ||
         (op == detail::JournalOp::enqueue && ps.stage == 0)) &&
        ps.chain_count == 40 && chain_seams(f, ps.chain_head, 40) >= 2) {
      held_whole_chain = true;
    }
    f.declare_dead(0);
    ASSERT_EQ(f.reap(1, 0), Status::ok);
    const BlockAudit audit = f.block_audit();
    EXPECT_TRUE(audit.consistent()) << "kill at lock " << k;
    const InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/true);
    EXPECT_TRUE(rep.ok()) << "kill at lock " << k << "\n" << rep.summary();
  }
  EXPECT_TRUE(held_whole_chain);
}

}  // namespace
