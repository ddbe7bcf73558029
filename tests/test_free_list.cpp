// Unit tests of the shared-memory free lists (the paper's init-time block
// carving mechanism): the node stack of the single-node pools, and the
// coalescing run allocator whose chains carry message blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "mpf/shm/arena.hpp"
#include "mpf/shm/free_list.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/shm/run_allocator.hpp"

namespace {

using namespace mpf::shm;

struct FreeListFixture : ::testing::Test {
  HeapRegion region{1 << 20};
  Arena arena{Arena::create(region)};
  FreeList list;
  /// The block pool's free list: chains are taken from and returned to it.
  RunAllocator blocks;

  Offset link(Offset node) const {
    return *static_cast<Offset*>(arena.raw(node));
  }
  /// Links of a `count`-node chain that do not name the next node in
  /// memory (the seams between its runs).
  std::size_t seams(Offset head, std::size_t count) const {
    std::size_t n = 0;
    for (std::size_t i = 1; i < count; ++i) {
      const Offset next = link(head);
      if (next != head + blocks.node_bytes()) ++n;
      head = next;
    }
    return n;
  }
  std::size_t push(Offset head, std::size_t count) {
    Offset next = kNullOffset;
    return blocks.push_chain(arena, head, count, next);
  }
};

TEST_F(FreeListFixture, CarveMakesAllNodesAvailable) {
  list.carve(arena, 32, 100);
  EXPECT_EQ(list.available(), 100u);
  EXPECT_EQ(list.capacity(), 100u);
  EXPECT_EQ(list.node_bytes(), 32u);
}

TEST_F(FreeListFixture, PopReturnsDistinctNodes) {
  list.carve(arena, 32, 50);
  std::set<Offset> seen;
  for (int i = 0; i < 50; ++i) {
    const Offset node = list.pop(arena);
    ASSERT_NE(node, kNullOffset);
    EXPECT_TRUE(seen.insert(node).second) << "duplicate node";
  }
  EXPECT_EQ(list.pop(arena), kNullOffset);  // empty
  EXPECT_EQ(list.available(), 0u);
}

TEST_F(FreeListFixture, PushRecycles) {
  list.carve(arena, 32, 4);
  const Offset a = list.pop(arena);
  (void)list.pop(arena);
  list.push(arena, a);
  EXPECT_EQ(list.available(), 3u);
  EXPECT_EQ(list.pop(arena), a);  // LIFO
}

TEST_F(FreeListFixture, PopChainDeliversExactlyRequested) {
  blocks.carve(arena, 32, 32);
  std::size_t got = 0;
  const Offset head = blocks.pop_chain(arena, 10, got);
  EXPECT_EQ(got, 10u);
  EXPECT_EQ(blocks.available(), 22u);
  // Chain is linked through first words and terminated.
  std::size_t count = 0;
  Offset cur = head;
  while (cur != kNullOffset) {
    ++count;
    cur = link(cur);
  }
  EXPECT_EQ(count, 10u);
  EXPECT_EQ(push(head, 10), 10u);
  EXPECT_EQ(blocks.available(), 32u);
}

TEST_F(FreeListFixture, PopChainPartialWhenShort) {
  blocks.carve(arena, 32, 5);
  std::size_t got = 0;
  const Offset head = blocks.pop_chain(arena, 10, got);
  EXPECT_EQ(got, 5u);
  EXPECT_NE(head, kNullOffset);
  EXPECT_EQ(blocks.available(), 0u);
  std::size_t got2 = 0;
  EXPECT_EQ(blocks.pop_chain(arena, 3, got2), kNullOffset);
  EXPECT_EQ(got2, 0u);
}

TEST_F(FreeListFixture, PopChainZeroIsNoop) {
  blocks.carve(arena, 32, 5);
  std::size_t got = 77;
  EXPECT_EQ(blocks.pop_chain(arena, 0, got), kNullOffset);
  EXPECT_EQ(got, 0u);
  EXPECT_EQ(blocks.available(), 5u);
}

TEST_F(FreeListFixture, NodeTooSmallThrows) {
  EXPECT_THROW(list.carve(arena, 4, 10), std::invalid_argument);
  // Below the 32-byte node floor.
  EXPECT_THROW(list.carve(arena, 24, 10), std::invalid_argument);
  // A block node needs at least its link word.
  EXPECT_THROW(blocks.carve(arena, 4, 10), std::invalid_argument);
}

TEST_F(FreeListFixture, PopChainReportsTail) {
  blocks.carve(arena, 32, 16);
  std::size_t got = 0;
  Offset tail = kNullOffset;
  const Offset head = blocks.pop_chain(arena, 6, got, &tail);
  ASSERT_EQ(got, 6u);
  ASSERT_NE(head, kNullOffset);
  // The reported tail is the 6th node and is null-terminated: callers
  // never have to re-walk the chain to find its end.
  Offset cur = head;
  for (int i = 1; i < 6; ++i) cur = link(cur);
  EXPECT_EQ(cur, tail);
  EXPECT_EQ(link(tail), kNullOffset);
  EXPECT_EQ(push(head, 6), 6u);
  EXPECT_EQ(blocks.available(), 16u);
}

TEST_F(FreeListFixture, ConcurrentPopPushKeepsInventory) {
  constexpr std::size_t kNodes = 256;
  list.carve(arena, 32, kNodes);
  blocks.carve(arena, 32, kNodes);
  constexpr int kThreads = 6;
  constexpr int kRounds = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        const Offset node = list.pop(arena);
        if (node != kNullOffset) list.push(arena, node);
        std::size_t got = 0;
        const Offset head = blocks.pop_chain(arena, 5, got);
        if (got > 0) {
          Offset next = kNullOffset;
          EXPECT_EQ(blocks.push_chain(arena, head, got, next), got);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(list.available(), kNodes);  // nothing lost, nothing duplicated
  std::set<Offset> seen;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const Offset node = list.pop(arena);
    ASSERT_NE(node, kNullOffset);
    EXPECT_TRUE(seen.insert(node).second);
  }
  EXPECT_EQ(blocks.available(), kNodes);
  EXPECT_EQ(blocks.runs(arena).runs, 1u);
}

TEST_F(FreeListFixture, RunsCoalesceAfterRandomSizesFreedInRandomOrder) {
  constexpr std::size_t kNodes = 1000;
  blocks.carve(arena, 32, kNodes);
  std::mt19937 rng(7);
  struct Chain {
    Offset head;
    std::size_t count;
  };
  for (int round = 0; round < 5; ++round) {
    // Drain the whole pool in random sizes...
    std::vector<Chain> out;
    while (blocks.available() > 0) {
      std::size_t got = 0;
      const Offset head = blocks.pop_chain(
          arena, std::uniform_int_distribution<std::size_t>(1, 120)(rng), got);
      out.push_back({head, got});
    }
    // ...then free it back in random order.
    std::shuffle(out.begin(), out.end(), rng);
    for (const Chain& c : out) EXPECT_EQ(push(c.head, c.count), c.count);
    ASSERT_EQ(blocks.available(), kNodes);
    const RunAllocator::RunStats runs = blocks.runs(arena);
    EXPECT_EQ(runs.runs, 1u) << "round " << round;
    EXPECT_EQ(runs.largest, kNodes);
    // Every free node's link names its address successor again.
    for (std::size_t i = 0; i < kNodes; ++i) {
      ASSERT_EQ(link(blocks.node(i)), blocks.node(i + 1)) << i;
    }
  }
  // So the whole pool comes back as one run: no seam at all (the cursor
  // sits at 0 after a full drain, so the run is not split by wrapping).
  std::size_t got = 0;
  const Offset head = blocks.pop_chain(arena, kNodes, got);
  ASSERT_EQ(got, kNodes);
  EXPECT_EQ(seams(head, got), 0u);
}

TEST_F(FreeListFixture, PopWritesLinksOnlyAtSeams) {
  blocks.carve(arena, 32, 64);
  std::size_t got = 0;
  const Offset a = blocks.pop_chain(arena, 10, got);  // nodes 0..9
  const Offset b = blocks.pop_chain(arena, 10, got);  // nodes 10..19
  EXPECT_EQ(b, blocks.node(10));
  EXPECT_EQ(push(a, 10), 10u);  // a hole at 0..9, cursor at 20
  EXPECT_EQ(blocks.runs(arena).runs, 2u);
  // 50 nodes: 20..63 (44) then a wrap to the hole's 0..5 — one seam.
  Offset tail = kNullOffset;
  const Offset c = blocks.pop_chain(arena, 50, got, &tail);
  ASSERT_EQ(got, 50u);
  EXPECT_EQ(c, blocks.node(20));
  EXPECT_EQ(seams(c, got), 1u);
  EXPECT_EQ(tail, blocks.node(5));
  EXPECT_EQ(link(blocks.node(63)), blocks.node(0));  // the seam
  EXPECT_EQ(link(tail), kNullOffset);
  // Returning both restores every free link, seams and tails included.
  EXPECT_EQ(push(c, 50), 50u);
  EXPECT_EQ(push(b, 10), 10u);
  EXPECT_EQ(blocks.runs(arena).runs, 1u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(link(blocks.node(i)), blocks.node(i + 1)) << i;
  }
}

TEST_F(FreeListFixture, PopPrefersAWholeRunToGathering) {
  blocks.carve(arena, 32, 64);
  std::size_t got = 0;
  const Offset a = blocks.pop_chain(arena, 10, got);  // nodes 0..9
  (void)blocks.pop_chain(arena, 10, got);             // nodes 10..19
  const Offset c = blocks.pop_chain(arena, 10, got);  // nodes 20..29
  EXPECT_EQ(push(a, 10), 10u);
  EXPECT_EQ(push(c, 10), 10u);
  // Free: 0..9 and 20..63, cursor at 30.  Next-fit gathering would take
  // 30..63 and wrap to 0..5; the run 20..63 straddling the cursor holds
  // all 40 at once.
  Offset tail = kNullOffset;
  const Offset d = blocks.pop_chain(arena, 40, got, &tail);
  ASSERT_EQ(got, 40u);
  EXPECT_EQ(d, blocks.node(20));
  EXPECT_EQ(tail, blocks.node(59));
  EXPECT_EQ(seams(d, got), 0u);
}

TEST_F(FreeListFixture, PushTakesBackOnlyItsOwnRange) {
  // A chain that crosses into a second allocator's range goes back one
  // stretch at a time, each to the allocator that carved it.
  blocks.carve(arena, 32, 16);
  RunAllocator other;
  other.carve(arena, 32, 16);
  std::size_t got = 0;
  Offset a_tail = kNullOffset;
  Offset b_tail = kNullOffset;
  const Offset a = blocks.pop_chain(arena, 4, got, &a_tail);
  const Offset b = other.pop_chain(arena, 3, got, &b_tail);
  *static_cast<Offset*>(arena.raw(a_tail)) = b;  // a(4) -> b(3)
  EXPECT_FALSE(blocks.contains(b));
  Offset next = kNullOffset;
  EXPECT_EQ(blocks.push_chain(arena, a, 7, next), 4u);
  EXPECT_EQ(next, b);
  EXPECT_EQ(other.push_chain(arena, next, 3, next), 3u);
  EXPECT_EQ(blocks.available(), 16u);
  EXPECT_EQ(other.available(), 16u);
}

}  // namespace
