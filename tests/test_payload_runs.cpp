// Out-of-line block payloads: a block's bytes live in its shard's payload
// array, and every copy walks the chain run by run.  Each test checks the
// bytes after a round trip through a chain shape that stresses the run
// walk: seams from a fragmented pool, a chain stolen across two shards,
// gather pieces that straddle block and run boundaries, a truncated copy
// that ends mid-run, zero-copy views, the lock-free send path and a
// two-node pool.  The oracle's geometry check closes the file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "mpf/core/facility.hpp"
#include "mpf/core/invariants.hpp"
#include "mpf/shm/region.hpp"

namespace {

using namespace mpf;

constexpr std::uint32_t kPayload = 10;  // the paper's block size

/// `len` bytes that differ from message to message and from one block to
/// the next.
std::vector<char> pattern(std::size_t len, unsigned seed) {
  std::vector<char> v(len);
  for (std::size_t i = 0; i < len; ++i) {
    v[i] = static_cast<char>((i * 131 + seed * 29 + i / kPayload) & 0xff);
  }
  return v;
}

Config small_pool(std::size_t blocks, std::uint32_t shards) {
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 4;
  c.block_payload = kPayload;
  c.message_blocks = blocks;
  c.pool_shards = shards;
  c.per_process_cache = false;  // every block comes from (and returns to)
                                // a shard, so the pool shape is exact
  return c;
}

/// Links of a chain that leave address order, and the shards its blocks
/// come from.
struct ChainShape {
  std::size_t seams = 0;
  std::vector<std::uint32_t> shards;
};

ChainShape shape_of(const Facility& f, shm::Offset b, std::size_t count) {
  const shm::Arena& arena = InvariantOracle::arena(f);
  ChainShape s;
  for (std::size_t i = 0; i < count; ++i) {
    for (std::uint32_t k = 0; k < f.pool_shards(); ++k) {
      const shm::RunAllocator& runs = InvariantOracle::shard(f, k).blocks;
      if (!runs.contains(b)) continue;
      if (s.shards.empty() || s.shards.back() != k) s.shards.push_back(k);
    }
    const shm::Offset next = *static_cast<const shm::Offset*>(arena.raw(b));
    if (i + 1 < count && next != b + sizeof(detail::Block)) ++s.seams;
    b = next;
  }
  return s;
}

/// Each block of the queued chain message `m` holds its slice of `msg`
/// in the payload array of the shard that owns the block.
void expect_bytes_in_place(const Facility& f, const detail::MsgHeader& m,
                           const std::vector<char>& msg) {
  const shm::Arena& arena = InvariantOracle::arena(f);
  shm::Offset b = m.first_block;
  for (std::size_t i = 0; i < m.nblocks; ++i) {
    bool owned = false;
    for (std::uint32_t k = 0; k < f.pool_shards(); ++k) {
      const shm::RunAllocator& runs = InvariantOracle::shard(f, k).blocks;
      if (!runs.contains(b)) continue;
      owned = true;
      const std::size_t n =
          std::min<std::size_t>(kPayload, msg.size() - i * kPayload);
      EXPECT_EQ(std::memcmp(arena.raw(runs.payload_of(b)),
                            msg.data() + i * kPayload, n),
                0)
          << "block " << i << " of shard " << k;
    }
    EXPECT_TRUE(owned) << "block " << i << " lies in no shard";
    b = *static_cast<const shm::Offset*>(arena.raw(b));
  }
}

/// The head message queued on circuit `id`.
const detail::MsgHeader& head_of(const Facility& f, LnvcId id) {
  return *InvariantOracle::msg_at(f, InvariantOracle::lnvc(f, id).msg_head.off);
}

void expect_oracle_clean(const Facility& f) {
  const InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/true);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

struct PayloadRuns : ::testing::Test {
  Config config = small_pool(64, 1);
  shm::HeapRegion region{config.derived_arena_bytes()};
  Facility f{Facility::create(config, region)};
  LnvcId tx = kInvalidLnvc, rx = kInvalidLnvc;

  void SetUp() override {
    ASSERT_EQ(f.open_send(0, "runs", &tx), Status::ok);
    ASSERT_EQ(f.open_receive(1, "runs", Protocol::fcfs, &rx), Status::ok);
  }

  /// Leave the pool as four free runs of eight blocks with a taken
  /// stretch between each: eight 8-block messages alternate between `rx`
  /// and a side circuit, then `rx` is drained.  The side messages stay
  /// queued; later sends on `rx` must gather across seams.
  void fragment() {
    LnvcId side_tx = kInvalidLnvc, side_rx = kInvalidLnvc;
    ASSERT_EQ(f.open_send(0, "side", &side_tx), Status::ok);
    ASSERT_EQ(f.open_receive(1, "side", Protocol::fcfs, &side_rx),
              Status::ok);
    const std::vector<char> fill = pattern(8 * kPayload, 99);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(f.send(0, i % 2 == 0 ? tx : side_tx, fill.data(),
                       fill.size()),
                Status::ok);
    }
    std::vector<char> sink(fill.size());
    std::size_t len = 0;
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(f.receive(1, rx, sink.data(), sink.size(), &len),
                Status::ok);
    }
    const shm::RunAllocator::RunStats runs =
        InvariantOracle::shard(f, 0).blocks.runs(InvariantOracle::arena(f));
    ASSERT_EQ(runs.runs, 4u);
    ASSERT_EQ(runs.largest, 8u);
  }
};

TEST_F(PayloadRuns, SeamedChainRoundTripsThroughSend) {
  fragment();
  const std::vector<char> msg = pattern(287, 1);  // 29 blocks, 4 runs
  ASSERT_EQ(f.send(0, tx, msg.data(), msg.size()), Status::ok);
  const detail::MsgHeader& m = head_of(f, rx);
  ASSERT_EQ(m.nblocks, 29u);
  EXPECT_EQ(shape_of(f, m.first_block, m.nblocks).seams, 3u);
  expect_bytes_in_place(f, m, msg);
  std::vector<char> out(msg.size() + 8, '#');
  std::size_t len = 0;
  ASSERT_EQ(f.receive(1, rx, out.data(), out.size(), &len), Status::ok);
  ASSERT_EQ(len, msg.size());
  EXPECT_EQ(std::memcmp(out.data(), msg.data(), msg.size()), 0);
  EXPECT_EQ(out[msg.size()], '#') << "copy ran past the message";
  expect_oracle_clean(f);
}

TEST_F(PayloadRuns, GatherPiecesCrossBlockAndRunBoundaries) {
  fragment();
  // Piece sizes straddle 10-byte blocks and 80-byte runs, with empty
  // pieces at the front, in the middle and at the end.
  const std::vector<char> msg = pattern(301, 2);
  const std::size_t cuts[] = {0, 0, 3, 20, 21, 79, 79, 81, 160, 245, 301, 301};
  std::vector<ConstBuffer> iov;
  for (std::size_t i = 0; i + 1 < std::size(cuts); ++i) {
    iov.push_back({msg.data() + cuts[i], cuts[i + 1] - cuts[i]});
  }
  ASSERT_EQ(f.send_v(0, tx, iov), Status::ok);
  const detail::MsgHeader& m = head_of(f, rx);
  EXPECT_EQ(shape_of(f, m.first_block, m.nblocks).seams, 3u);
  expect_bytes_in_place(f, m, msg);
  std::vector<char> out(msg.size());
  std::size_t len = 0;
  ASSERT_EQ(f.receive(1, rx, out.data(), out.size(), &len), Status::ok);
  ASSERT_EQ(len, msg.size());
  EXPECT_EQ(out, msg);
  expect_oracle_clean(f);
}

TEST_F(PayloadRuns, TruncatedReceiveEndsMidRun) {
  fragment();
  const std::vector<char> msg = pattern(250, 3);  // 25 blocks over 4 runs
  // Caps ending inside the first block, mid-way through a run, and (on
  // the first send) exactly at a seam and one byte past it.
  for (const std::size_t cap : {std::size_t{7}, std::size_t{123},
                                std::size_t{160}, std::size_t{161}}) {
    ASSERT_EQ(f.send(0, tx, msg.data(), msg.size()), Status::ok);
    std::vector<char> out(cap + 16, '#');
    std::size_t len = 0;
    ASSERT_EQ(f.receive(1, rx, out.data(), cap, &len), Status::truncated)
        << "cap " << cap;
    ASSERT_EQ(len, cap);
    EXPECT_EQ(std::memcmp(out.data(), msg.data(), cap), 0) << "cap " << cap;
    EXPECT_EQ(out[cap], '#') << "cap " << cap << ": wrote past the cap";
  }
  expect_oracle_clean(f);
}

TEST_F(PayloadRuns, ViewHasOneSpanPerBlockWithTheMessageBytes) {
  fragment();
  const std::vector<char> msg = pattern(205, 4);  // 21 blocks over 3 runs
  ASSERT_EQ(f.send(0, tx, msg.data(), msg.size()), Status::ok);
  MsgView view;
  ASSERT_EQ(f.receive_view(1, rx, &view), Status::ok);
  ASSERT_EQ(view.spans.size(), 21u);
  std::string joined;
  const std::vector<ConstBuffer> bufs = f.materialize(view);
  ASSERT_EQ(bufs.size(), view.spans.size());
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    EXPECT_EQ(bufs[i].len, i + 1 < bufs.size() ? kPayload : 5u);
    joined.append(static_cast<const char*>(bufs[i].data), bufs[i].len);
  }
  EXPECT_EQ(joined, std::string(msg.begin(), msg.end()));
  ASSERT_EQ(f.release_view(1, &view), Status::ok);
  expect_oracle_clean(f);
}

TEST(PayloadRunsShards, ChainStolenAcrossTwoShardsRoundTrips) {
  const Config c = small_pool(64, 2);  // 32 blocks per shard
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  LnvcId tx = kInvalidLnvc, rx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "steal", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "steal", Protocol::fcfs, &rx), Status::ok);
  // 50 blocks: all 32 of pid 0's home shard, then 18 stolen from shard 1.
  const std::vector<char> msg = pattern(497, 5);
  ASSERT_EQ(f.send(0, tx, msg.data(), msg.size()), Status::ok);
  const detail::MsgHeader& m = head_of(f, rx);
  const ChainShape shape = shape_of(f, m.first_block, m.nblocks);
  EXPECT_EQ(shape.shards, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(shape.seams, 1u);
  expect_bytes_in_place(f, m, msg);
  // Copy-out, then (on a second copy) a view, both across the seam.
  std::vector<char> out(msg.size());
  std::size_t len = 0;
  ASSERT_EQ(f.receive(1, rx, out.data(), out.size(), &len), Status::ok);
  EXPECT_EQ(out, msg);
  ASSERT_EQ(f.send(0, tx, msg.data(), msg.size()), Status::ok);
  MsgView view;
  ASSERT_EQ(f.receive_view(1, rx, &view), Status::ok);
  EXPECT_EQ(view.spans.size(), 50u);
  std::string joined;
  for (const ConstBuffer& b : f.materialize(view)) {
    joined.append(static_cast<const char*>(b.data), b.len);
  }
  EXPECT_EQ(joined, std::string(msg.begin(), msg.end()));
  ASSERT_EQ(f.release_view(1, &view), Status::ok);
  expect_oracle_clean(f);
}

TEST(PayloadRunsPaths, LockfreeSendsRoundTrip) {
  Config c = small_pool(256, 1);
  c.lockfree_fcfs = true;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  LnvcId tx = kInvalidLnvc, rx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "lf", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "lf", Protocol::fcfs, &rx), Status::ok);
  for (unsigned i = 0; i < 12; ++i) {
    const std::vector<char> msg = pattern(1 + 23 * i, 10 + i);
    const std::size_t half = msg.size() / 2;
    const ConstBuffer iov[] = {{msg.data(), half},
                               {msg.data() + half, msg.size() - half}};
    ASSERT_EQ(f.send_v(0, tx, iov), Status::ok);
    std::vector<char> out(msg.size());
    std::size_t len = 0;
    ASSERT_EQ(f.receive(1, rx, out.data(), out.size(), &len), Status::ok);
    EXPECT_EQ(out, msg) << "message " << i;
  }
  EXPECT_GT(f.stats().lockfree_fast_sends, 0u) << "no send took the CAS path";
  expect_oracle_clean(f);
}

TEST(PayloadRunsPaths, TwoNodePoolRoundTrips) {
  Config c = small_pool(256, 2);
  c.numa_nodes = 2;  // shard i serves node i; pid 1 lives on node 1
  c.numa_prefer_receiver = true;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  LnvcId tx = kInvalidLnvc, rx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "numa", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "numa", Protocol::fcfs, &rx), Status::ok);
  const std::vector<char> msg = pattern(333, 6);
  ASSERT_EQ(f.send(0, tx, msg.data(), msg.size()), Status::ok);
  const detail::MsgHeader& m = head_of(f, rx);
  EXPECT_EQ(shape_of(f, m.first_block, m.nblocks).shards,
            (std::vector<std::uint32_t>{1}))
      << "the body goes to the receiver's node";
  expect_bytes_in_place(f, m, msg);
  std::vector<char> out(msg.size());
  std::size_t len = 0;
  ASSERT_EQ(f.receive(1, rx, out.data(), out.size(), &len), Status::ok);
  EXPECT_EQ(out, msg);
  for (const PoolShardInfo& s : f.pool_shard_infos()) {
    EXPECT_EQ(s.link_stride, sizeof(detail::Block));
    EXPECT_EQ(s.payload_bytes, kPayload);
    EXPECT_EQ(s.payload_hi - s.payload_lo, s.block_capacity * kPayload);
  }
  expect_oracle_clean(f);
}

TEST(PayloadRunsOracle, FlagsAPayloadArrayOverlappingAnotherCarve) {
  const Config c = small_pool(64, 2);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  expect_oracle_clean(f);
  // Point shard 1's allocator at shard 0's carves, as a corrupt header
  // would, then put it back.
  shm::RunAllocator& victim = InvariantOracle::shard(f, 1).blocks;
  std::byte saved[sizeof(shm::RunAllocator)];
  std::memcpy(saved, static_cast<const void*>(&victim), sizeof(saved));
  std::memcpy(static_cast<void*>(&victim),
              static_cast<const void*>(&InvariantOracle::shard(f, 0).blocks),
              sizeof(saved));
  const InvariantReport rep = InvariantOracle::check(f, /*quiescent=*/true);
  std::memcpy(static_cast<void*>(&victim), saved, sizeof(saved));
  EXPECT_NE(rep.summary().find(
                "payload array [" +
                std::to_string(InvariantOracle::shard(f, 0)
                                   .blocks.payload_base())),
            std::string::npos)
      << rep.summary();
  EXPECT_NE(rep.summary().find("overlaps shard 0's payload array"),
            std::string::npos)
      << rep.summary();
  expect_oracle_clean(f);
}

}  // namespace
