// White-box checks of the shared-memory layout (Fig 2 of the paper):
// the structures must stay safe to place in process-shared, zero-filled
// memory, and their documented invariants must hold mid-flight.
#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>

#include "mpf/core/facility.hpp"
#include "mpf/core/invariants.hpp"
#include "mpf/core/layout.hpp"
#include "mpf/shm/region.hpp"

namespace {

using namespace mpf;
using namespace mpf::detail;

// Compile-time contracts for shared-memory residency.
static_assert(std::is_trivially_destructible_v<Block>);
static_assert(std::is_trivially_destructible_v<MsgHeader>);
static_assert(std::is_trivially_destructible_v<Connection>);
static_assert(std::is_trivially_destructible_v<LnvcDesc>);
static_assert(std::is_trivially_destructible_v<FacilityHeader>);
// The free list reuses the first 8 bytes of a node as its link word.
static_assert(offsetof(Block, next) == 0);
// A block's link node is its link word alone; its bytes live out of line.
static_assert(sizeof(Block) == sizeof(shm::Offset));
static_assert(offsetof(MsgHeader, next_msg) == 0);
static_assert(offsetof(Connection, next) == 0);

TEST(Layout, ConnectionKindPredicates) {
  Connection c{};
  c.kind = Connection::kSender;
  EXPECT_TRUE(c.is_sender());
  EXPECT_FALSE(c.is_fcfs());
  EXPECT_FALSE(c.is_bcast());
  c.kind = static_cast<std::uint32_t>(Protocol::fcfs);
  EXPECT_TRUE(c.is_fcfs());
  c.kind = static_cast<std::uint32_t>(Protocol::broadcast);
  EXPECT_TRUE(c.is_bcast());
}

struct WhiteBox : ::testing::Test {
  Config config = [] {
    Config c;
    c.max_lnvcs = 4;
    c.max_processes = 4;
    c.block_payload = 10;
    return c;
  }();
  shm::HeapRegion region{config.derived_arena_bytes()};
  Facility f{Facility::create(config, region)};

  // Reach the descriptor the same way attach() does: root offset is the
  // first 64-aligned slot after the arena header.
  detail::FacilityHeader* header() {
    const shm::Offset root = (sizeof(shm::ArenaHeader) + 63) & ~63ull;
    return reinterpret_cast<detail::FacilityHeader*>(
        static_cast<std::byte*>(region.base()) + root);
  }
  detail::LnvcDesc* slot0() {
    return reinterpret_cast<detail::LnvcDesc*>(
        static_cast<std::byte*>(region.base()) + header()->lnvc_table);
  }
};

TEST_F(WhiteBox, HeaderReflectsConfig) {
  EXPECT_EQ(header()->magic, detail::kFacilityMagic);
  EXPECT_EQ(header()->max_lnvcs, 4u);
  EXPECT_EQ(header()->max_processes, 4u);
  EXPECT_EQ(header()->block_payload, 10u);
  EXPECT_EQ(header()->reclaim_broadcast_only, 1u);  // paper default
}

TEST_F(WhiteBox, Fig2StructureDuringMixedTraffic) {
  // Build the exact Figure 2 situation: senders sharing a tail, FCFS
  // receivers sharing a head, broadcast receivers with private heads.
  LnvcId tx, fc, bc1, bc2;
  ASSERT_EQ(f.open_send(0, "fig2", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "fig2", Protocol::fcfs, &fc), Status::ok);
  ASSERT_EQ(f.open_receive(2, "fig2", Protocol::broadcast, &bc1), Status::ok);
  ASSERT_EQ(f.open_receive(3, "fig2", Protocol::broadcast, &bc2), Status::ok);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(f.send(0, tx, &i, sizeof(i)), Status::ok);
  }
  detail::LnvcDesc& d = *slot0();
  EXPECT_EQ(d.n_senders, 1u);
  EXPECT_EQ(d.n_fcfs, 1u);
  EXPECT_EQ(d.n_bcast, 2u);
  EXPECT_EQ(d.n_queued, 3u);
  ASSERT_TRUE(d.msg_head);
  ASSERT_TRUE(d.msg_tail);
  EXPECT_EQ(d.fcfs_head.off, d.msg_head.off) << "nothing consumed yet";
  EXPECT_EQ(d.seq_counter, 3u);

  // FCFS consumption advances the shared head but keeps the message until
  // the broadcast claims clear.
  int v = 0;
  std::size_t len = 0;
  ASSERT_EQ(f.receive(1, fc, &v, sizeof(v), &len), Status::ok);
  EXPECT_EQ(v, 0);
  EXPECT_NE(d.fcfs_head.off, d.msg_head.off);
  EXPECT_EQ(d.n_queued, 2u);

  // One broadcast receiver catches up; head still pinned by the other.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(f.receive(2, bc1, &v, sizeof(v), &len), Status::ok);
  }
  EXPECT_TRUE(d.msg_head) << "receiver 3 still claims the stream";

  // The second one reads everything: the FCFS-consumed prefix reclaims.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(f.receive(3, bc2, &v, sizeof(v), &len), Status::ok);
  }
  ASSERT_TRUE(d.msg_head);
  EXPECT_EQ(d.msg_head.off, d.fcfs_head.off)
      << "only the FCFS-unconsumed suffix may remain";
}

TEST_F(WhiteBox, BlockBytesLiveInThePayloadArray) {
  LnvcId tx, rx;
  ASSERT_EQ(f.open_send(0, "bytes", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "bytes", Protocol::fcfs, &rx), Status::ok);
  char msg[25];
  for (int i = 0; i < 25; ++i) msg[i] = static_cast<char>('a' + i);
  ASSERT_EQ(f.send(0, tx, msg, sizeof(msg)), Status::ok);
  const shm::RunAllocator& runs = InvariantOracle::shard(f, 0).blocks;
  EXPECT_EQ(runs.node_bytes(), sizeof(Block));
  EXPECT_EQ(runs.payload_bytes(), 10u);
  const auto* m = reinterpret_cast<const MsgHeader*>(
      static_cast<std::byte*>(region.base()) + slot0()->msg_head.off);
  ASSERT_EQ(m->nblocks, 3u);
  // Block i of the chain holds bytes [10 i, 10 i + 10) of the message at
  // payload_base + index * block_payload, outside the link range.
  shm::Offset b = m->first_block;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(runs.contains(b));
    const shm::Offset p = runs.payload_of(b);
    EXPECT_EQ(p, runs.payload_base() + runs.index_of(b) * 10);
    EXPECT_FALSE(runs.contains(p));
    const std::size_t n = i < 2 ? 10 : 5;
    EXPECT_EQ(std::memcmp(static_cast<std::byte*>(region.base()) + p,
                          msg + 10 * i, n),
              0)
        << "block " << i;
    b = reinterpret_cast<const Block*>(
            static_cast<std::byte*>(region.base()) + b)
            ->next;
  }
  EXPECT_EQ(b, shm::kNullOffset);
}

TEST_F(WhiteBox, SequenceNumbersAreContiguousPerLnvc) {
  LnvcId tx, rx;
  ASSERT_EQ(f.open_send(0, "seq", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "seq", Protocol::fcfs, &rx), Status::ok);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(f.send(0, tx, &i, sizeof(i)), Status::ok);
  }
  detail::LnvcDesc& d = *slot0();
  std::uint64_t expected = 0;
  for (shm::Offset off = d.msg_head.off; off != shm::kNullOffset;) {
    const auto* m = reinterpret_cast<const detail::MsgHeader*>(
        static_cast<std::byte*>(region.base()) + off);
    EXPECT_EQ(m->seq, expected++);
    off = m->next_msg;
  }
  EXPECT_EQ(expected, 5u);
}

}  // namespace
