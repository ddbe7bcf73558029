// Churn and soak: concurrent open/close/send/receive storms over a small
// set of names, verifying the facility survives arbitrary interleavings
// with nothing leaked, duplicated, or corrupted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "mpf/core/facility.hpp"
#include "mpf/runtime/group.hpp"
#include "mpf/runtime/rng.hpp"
#include "mpf/shm/region.hpp"

namespace {

using namespace mpf;

TEST(Stress, OpenCloseChurnAcrossThreads) {
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 16;
  c.message_blocks = 4096;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  constexpr int kThreads = 8;
  constexpr int kRounds = 400;
  std::atomic<int> table_full_count{0};
  rt::run_group(rt::Backend::thread, kThreads, [&](int rank) {
    rt::SplitMix64 rng(rank * 31 + 7);
    for (int i = 0; i < kRounds; ++i) {
      const std::string name = "churn" + std::to_string(rng.below(5));
      const auto pid = static_cast<ProcessId>(rank);
      LnvcId id = kInvalidLnvc;
      const bool as_sender = rng.below(2) == 0;
      Status s;
      if (as_sender) {
        s = f.open_send(pid, name, &id);
      } else {
        s = f.open_receive(
            pid, name,
            rng.below(2) == 0 ? Protocol::fcfs : Protocol::broadcast, &id);
      }
      if (s == Status::table_full) {
        table_full_count.fetch_add(1);
        continue;
      }
      if (s == Status::protocol_conflict || s == Status::already_connected) {
        continue;  // legitimate race outcomes
      }
      ASSERT_EQ(s, Status::ok) << to_string(s);
      if (as_sender) {
        char payload[24];
        for (int k = 0; k < 3; ++k) {
          const Status send_status =
              f.send(pid, id, payload, sizeof(payload));
          ASSERT_TRUE(send_status == Status::ok ||
                      send_status == Status::closed)
              << to_string(send_status);
        }
        ASSERT_EQ(f.close_send(pid, id), Status::ok);
      } else {
        char buf[32];
        std::size_t len = 0;
        for (int k = 0; k < 3; ++k) {
          const Status r = f.receive(pid, id, buf, sizeof(buf), &len, 0);
          ASSERT_TRUE(r == Status::ok || r == Status::truncated ||
                      r == Status::timed_out)
              << to_string(r);
        }
        ASSERT_EQ(f.close_receive(pid, id), Status::ok);
      }
    }
  });
  // Quiescent: every conversation ended, every block home again.
  EXPECT_EQ(f.lnvc_count(), 0u);
  EXPECT_EQ(f.stats().blocks_free, c.resolved().message_blocks);
}

// The soak's pipeline: producer -> 2 relays -> consumer over stage1..3,
// one deliberately small pool of 128 blocks and 32 headers, and 40-byte
// messages of 4 blocks each.
constexpr std::size_t kPipelineMsg = 40;
constexpr std::uint32_t kPipelineQuota = 60;

Config pipeline_config(std::uint32_t quota_blocks) {
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  c.block_payload = 10;
  c.message_blocks = 128;
  c.message_headers = 32;
  c.lnvc_quota_blocks = quota_blocks;
  return c;
}

TEST(Stress, SustainedPipelineSoak) {
  // A long-running pipeline: tens of thousands of messages through the
  // small pool so recycling and both wait paths (quota park and pool
  // exhaustion) are exercised constantly.
  //
  // The paper's flow control is the pool alone (DESIGN.md §11), and with
  // no per-circuit limit this pipeline can wedge: the upstream backlog
  // takes the whole pool while a relay blocks forwarding into the next
  // stage (PipelineWedgeNeedsQuota replays it).  So the test states its own
  // flow control, a quota of 60 blocks per circuit.  In a wedge the
  // circuit just downstream of the most-downstream blocked sender is
  // empty (its receiver is blocked in receive), so only the other two
  // circuits hold pool blocks: at most 2 x 60 = 120 blocks and 30
  // headers, which leaves room for one more message.  No wedge is
  // reachable.  Because 3 x 60 > 128 the pool still runs dry, so the
  // exhaustion wait keeps running alongside the quota parks.
  const Config c = pipeline_config(kPipelineQuota);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  constexpr int kMsgs = 20'000;
  // Every wait has a deadline far beyond any healthy stall, so a wedge
  // fails in seconds and names who was stuck where, instead of hanging
  // until the ctest timeout.
  constexpr std::uint64_t kDeadlineNs = 30'000'000'000;
  const auto at = [](int rank, const char* op, int i, Status s) {
    return "rank " + std::to_string(rank) + " " + op + " of message " +
           std::to_string(i) + ": " + to_string(s);
  };

  rt::run_group(rt::Backend::thread, 4, [&](int rank) {
    const auto pid = static_cast<ProcessId>(rank);
    char buf[64];
    std::size_t len = 0;
    switch (rank) {
      case 0: {  // producer
        LnvcId tx;
        ASSERT_EQ(f.open_send(pid, "stage1", &tx), Status::ok);
        for (int i = 0; i < kMsgs; ++i) {
          std::memcpy(buf, &i, sizeof(i));
          const Status s =
              f.send(pid, tx, buf, kPipelineMsg, kDeadlineNs);
          ASSERT_EQ(s, Status::ok) << at(rank, "send", i, s);
        }
        ASSERT_EQ(f.close_send(pid, tx), Status::ok);
        break;
      }
      case 1:
      case 2: {  // relays
        const std::string in = "stage" + std::to_string(rank);
        const std::string out = "stage" + std::to_string(rank + 1);
        LnvcId rx, tx;
        ASSERT_EQ(f.open_receive(pid, in, Protocol::fcfs, &rx), Status::ok);
        ASSERT_EQ(f.open_send(pid, out, &tx), Status::ok);
        for (int i = 0; i < kMsgs; ++i) {
          Status s =
              f.receive(pid, rx, buf, sizeof(buf), &len, kDeadlineNs);
          ASSERT_EQ(s, Status::ok) << at(rank, "receive", i, s);
          s = f.send(pid, tx, buf, len, kDeadlineNs);
          ASSERT_EQ(s, Status::ok) << at(rank, "send", i, s);
        }
        ASSERT_EQ(f.close_receive(pid, rx), Status::ok);
        ASSERT_EQ(f.close_send(pid, tx), Status::ok);
        break;
      }
      case 3: {  // consumer
        LnvcId rx;
        ASSERT_EQ(f.open_receive(pid, "stage3", Protocol::fcfs, &rx),
                  Status::ok);
        for (int i = 0; i < kMsgs; ++i) {
          const Status s =
              f.receive(pid, rx, buf, sizeof(buf), &len, kDeadlineNs);
          ASSERT_EQ(s, Status::ok) << at(rank, "receive", i, s);
          int v = -1;
          std::memcpy(&v, buf, sizeof(v));
          ASSERT_EQ(v, i) << "pipeline reordered or corrupted";
        }
        ASSERT_EQ(f.close_receive(pid, rx), Status::ok);
        break;
      }
    }
  });
  EXPECT_EQ(f.stats().blocks_free, c.message_blocks);
  EXPECT_EQ(f.stats().sends, 3u * kMsgs);
}

// Single-thread replay of the soak's wedge, one pid per pipeline rank.
// Fill stage1 until a send would wait, let relay 1 receive one message,
// let the producer take the blocks that freed, then poll relay 1's send
// into stage2.  Reports how many messages the fill admitted, the relay's
// send status and the blocks left free.
struct WedgeReplay {
  int filled = 0;
  Status relay_send = Status::ok;
  std::size_t blocks_free = 0;
};

void replay_wedge(std::uint32_t quota_blocks, WedgeReplay* out) {
  const Config c = pipeline_config(quota_blocks);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  LnvcId stage1_tx, stage1_rx, stage2_tx, stage2_rx;
  ASSERT_EQ(f.open_send(0, "stage1", &stage1_tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "stage1", Protocol::fcfs, &stage1_rx),
            Status::ok);
  ASSERT_EQ(f.open_send(1, "stage2", &stage2_tx), Status::ok);
  ASSERT_EQ(f.open_receive(2, "stage2", Protocol::fcfs, &stage2_rx),
            Status::ok);

  char buf[64] = {};
  Status s;
  while ((s = f.send(0, stage1_tx, buf, kPipelineMsg, 0)) == Status::ok) {
    ++out->filled;
  }
  ASSERT_EQ(s, Status::timed_out) << to_string(s);

  std::size_t len = 0;
  ASSERT_EQ(f.receive(1, stage1_rx, buf, sizeof(buf), &len, 0), Status::ok);
  ASSERT_EQ(f.send(0, stage1_tx, buf, kPipelineMsg, 0), Status::ok);
  out->relay_send = f.send(1, stage2_tx, buf, len, 0);
  out->blocks_free = f.stats().blocks_free;
}

TEST(Stress, PipelineWedgeNeedsQuota) {
  // No quota: stage1 takes the whole pool (32 messages x 4 blocks, every
  // header), and relay 1 can never forward what it received; the
  // producer blocked behind it waits on relay 1 in turn.
  WedgeReplay bare;
  ASSERT_NO_FATAL_FAILURE(replay_wedge(0, &bare));
  EXPECT_EQ(bare.filled, 32);
  EXPECT_EQ(bare.relay_send, Status::timed_out) << to_string(bare.relay_send);
  EXPECT_EQ(bare.blocks_free, 0u);

  // The soak's quota: stage1 stops at 60 blocks, and the relay's send
  // finds room in the pool.
  WedgeReplay quota;
  ASSERT_NO_FATAL_FAILURE(replay_wedge(kPipelineQuota, &quota));
  EXPECT_EQ(quota.filled, 15);
  EXPECT_EQ(quota.relay_send, Status::ok) << to_string(quota.relay_send);
}

TEST(Stress, BroadcastFanOutSoak) {
  // One hot broadcaster, several readers, small pool: eager reclamation
  // under pressure, for a long time.
  Config c;
  c.max_lnvcs = 4;
  c.max_processes = 8;
  c.block_payload = 16;
  c.message_blocks = 256;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  constexpr int kReaders = 4;
  constexpr int kMsgs = 5'000;

  rt::run_group(rt::Backend::thread, kReaders + 1, [&](int rank) {
    const auto pid = static_cast<ProcessId>(rank);
    if (rank == 0) {
      LnvcId tx;
      ASSERT_EQ(f.open_send(pid, "hot", &tx), Status::ok);
      // Wait until all readers are joined (they bump a plain counter via
      // their open; poll the introspection API).
      LnvcInfo info;
      do {
        ASSERT_EQ(f.lnvc_info(tx, &info), Status::ok);
        std::this_thread::yield();
      } while (info.broadcast_receivers < kReaders);
      for (int i = 0; i < kMsgs; ++i) {
        ASSERT_EQ(f.send(pid, tx, &i, sizeof(i)), Status::ok);
      }
      ASSERT_EQ(f.close_send(pid, tx), Status::ok);
    } else {
      LnvcId rx;
      ASSERT_EQ(f.open_receive(pid, "hot", Protocol::broadcast, &rx),
                Status::ok);
      std::size_t len = 0;
      for (int i = 0; i < kMsgs; ++i) {
        int v = -1;
        ASSERT_EQ(f.receive(pid, rx, &v, sizeof(v), &len), Status::ok);
        ASSERT_EQ(v, i) << "reader " << rank;
      }
      ASSERT_EQ(f.close_receive(pid, rx), Status::ok);
    }
  });
  EXPECT_EQ(f.stats().blocks_free, c.message_blocks);
  EXPECT_EQ(f.stats().receives, static_cast<std::uint64_t>(kReaders) * kMsgs);
}

}  // namespace
