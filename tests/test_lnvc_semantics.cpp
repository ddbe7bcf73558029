// LNVC semantics: the conversation model of paper §1-§3, tested white-box
// against the status API.  Covers protocols, join/leave visibility,
// ordering, close/lifetime rules, and every documented error.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mpf/core/facility.hpp"
#include "mpf/core/ports.hpp"
#include "mpf/shm/region.hpp"

namespace {

using namespace mpf;

struct LnvcTest : ::testing::Test {
  Config config = [] {
    Config c;
    c.max_lnvcs = 8;
    c.max_processes = 8;
    c.block_payload = 10;  // paper block size: exercises chaining
    c.message_blocks = 2048;
    return c;
  }();
  shm::HeapRegion region{config.derived_arena_bytes()};
  Facility f{Facility::create(config, region)};

  LnvcId open_send(ProcessId pid, const std::string& name) {
    LnvcId id = kInvalidLnvc;
    EXPECT_EQ(f.open_send(pid, name, &id), Status::ok);
    return id;
  }
  LnvcId open_recv(ProcessId pid, const std::string& name, Protocol proto) {
    LnvcId id = kInvalidLnvc;
    EXPECT_EQ(f.open_receive(pid, name, proto, &id), Status::ok);
    return id;
  }
  void send_int(ProcessId pid, LnvcId id, int v) {
    ASSERT_EQ(f.send(pid, id, &v, sizeof(v)), Status::ok);
  }
  int recv_int(ProcessId pid, LnvcId id) {
    int v = -1;
    std::size_t len = 0;
    EXPECT_EQ(f.receive(pid, id, &v, sizeof(v), &len), Status::ok);
    EXPECT_EQ(len, sizeof(v));
    return v;
  }
};

// ---------------------------------------------------------------- naming

TEST_F(LnvcTest, OpenCreatesAndSharesByName) {
  const LnvcId a = open_send(0, "conv");
  const LnvcId b = open_recv(1, "conv", Protocol::fcfs);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(f.lnvc_exists("conv"));
  EXPECT_EQ(f.lnvc_count(), 1u);
  const LnvcId c = open_send(2, "other");
  EXPECT_NE(c, a);
  EXPECT_EQ(f.lnvc_count(), 2u);
}

TEST_F(LnvcTest, NamesAreExact) {
  (void)open_send(0, "abc");
  EXPECT_TRUE(f.lnvc_exists("abc"));
  EXPECT_FALSE(f.lnvc_exists("ab"));
  EXPECT_FALSE(f.lnvc_exists("abcd"));
  EXPECT_FALSE(f.lnvc_exists(""));
}

TEST_F(LnvcTest, TableFullWhenAllSlotsUsed) {
  for (std::uint32_t i = 0; i < config.max_lnvcs; ++i) {
    (void)open_send(0, "lnvc" + std::to_string(i));
  }
  LnvcId id = kInvalidLnvc;
  EXPECT_EQ(f.open_send(0, "one-too-many", &id), Status::table_full);
  EXPECT_EQ(id, kInvalidLnvc);
}

TEST_F(LnvcTest, SlotReusableAfterClose) {
  for (std::uint32_t i = 0; i < config.max_lnvcs; ++i) {
    (void)open_send(0, "lnvc" + std::to_string(i));
  }
  LnvcId first = kInvalidLnvc;
  ASSERT_EQ(f.open_send(1, "lnvc0", &first), Status::ok);  // joins existing
  EXPECT_EQ(f.close_send(0, first), Status::ok);
  EXPECT_EQ(f.close_send(1, first), Status::ok);  // last one: destroyed
  LnvcId fresh = kInvalidLnvc;
  EXPECT_EQ(f.open_send(0, "fresh", &fresh), Status::ok);
}

// ------------------------------------------------------------- protocols

TEST_F(LnvcTest, FcfsDeliversEachMessageOnce) {
  const LnvcId tx = open_send(0, "q");
  const LnvcId r1 = open_recv(1, "q", Protocol::fcfs);
  const LnvcId r2 = open_recv(2, "q", Protocol::fcfs);
  for (int i = 0; i < 10; ++i) send_int(0, tx, i);
  std::multiset<int> got;
  for (int i = 0; i < 5; ++i) {
    got.insert(recv_int(1, r1));
    got.insert(recv_int(2, r2));
  }
  EXPECT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got.count(i), 1u) << i;
  EXPECT_EQ(f.queued(tx), 0u);
}

TEST_F(LnvcTest, BroadcastDeliversToEveryReceiver) {
  const LnvcId tx = open_send(0, "b");
  const LnvcId r1 = open_recv(1, "b", Protocol::broadcast);
  const LnvcId r2 = open_recv(2, "b", Protocol::broadcast);
  const LnvcId r3 = open_recv(3, "b", Protocol::broadcast);
  for (int i = 0; i < 5; ++i) send_int(0, tx, i);
  const std::pair<ProcessId, LnvcId> receivers[] = {{1, r1}, {2, r2},
                                                    {3, r3}};
  for (const auto& [pid, id] : receivers) {
    for (int i = 0; i < 5; ++i) EXPECT_EQ(recv_int(pid, id), i);
  }
}

TEST_F(LnvcTest, MixedProtocolsSplitCorrectly) {
  // Paper §1: "a message will be sent to all BROADCAST receiving processes
  // and to only one of the FCFS processes."
  const LnvcId tx = open_send(0, "mixed");
  const LnvcId fcfs_a = open_recv(1, "mixed", Protocol::fcfs);
  const LnvcId fcfs_b = open_recv(2, "mixed", Protocol::fcfs);
  const LnvcId bc = open_recv(3, "mixed", Protocol::broadcast);
  for (int i = 0; i < 6; ++i) send_int(0, tx, i);
  // The broadcast receiver sees the full time-ordered stream.
  for (int i = 0; i < 6; ++i) EXPECT_EQ(recv_int(3, bc), i);
  // The FCFS receivers split the same six messages exactly once each.
  std::multiset<int> got;
  for (int i = 0; i < 3; ++i) {
    got.insert(recv_int(1, fcfs_a));
    got.insert(recv_int(2, fcfs_b));
  }
  for (int i = 0; i < 6; ++i) EXPECT_EQ(got.count(i), 1u) << i;
}

TEST_F(LnvcTest, FcfsAndBroadcastOnOneProcessConflicts) {
  (void)open_recv(1, "conv", Protocol::fcfs);
  LnvcId id = kInvalidLnvc;
  EXPECT_EQ(f.open_receive(1, "conv", Protocol::broadcast, &id),
            Status::protocol_conflict);
  // The reverse direction too.
  (void)open_recv(2, "conv2", Protocol::broadcast);
  EXPECT_EQ(f.open_receive(2, "conv2", Protocol::fcfs, &id),
            Status::protocol_conflict);
}

TEST_F(LnvcTest, DuplicateConnectionsRejected) {
  (void)open_send(0, "conv");
  LnvcId id = kInvalidLnvc;
  EXPECT_EQ(f.open_send(0, "conv", &id), Status::already_connected);
  (void)open_recv(1, "conv", Protocol::fcfs);
  EXPECT_EQ(f.open_receive(1, "conv", Protocol::fcfs, &id),
            Status::already_connected);
}

TEST_F(LnvcTest, SameProcessMaySendAndReceive) {
  // Paper: "Each process ... is either a message sender or receiver, or
  // both" — the loop-back benchmark depends on it.
  const LnvcId tx = open_send(0, "loop");
  const LnvcId rx = open_recv(0, "loop", Protocol::fcfs);
  send_int(0, tx, 99);
  EXPECT_EQ(recv_int(0, rx), 99);
}

// ---------------------------------------------------- join/leave visibility

TEST_F(LnvcTest, BroadcastJoinerSeesOnlyLaterMessages) {
  const LnvcId tx = open_send(0, "news");
  const LnvcId early = open_recv(1, "news", Protocol::broadcast);
  send_int(0, tx, 1);
  send_int(0, tx, 2);
  const LnvcId late = open_recv(2, "news", Protocol::broadcast);
  send_int(0, tx, 3);
  EXPECT_EQ(recv_int(1, early), 1);
  EXPECT_EQ(recv_int(1, early), 2);
  EXPECT_EQ(recv_int(1, early), 3);
  EXPECT_EQ(recv_int(2, late), 3);  // missed 1 and 2 by joining late
  bool more = false;
  EXPECT_EQ(f.check(2, late, &more), Status::ok);
  EXPECT_FALSE(more);
}

TEST_F(LnvcTest, FcfsBacklogSurvivesUntilReceiverJoins) {
  // Messages sent into a conversation with no receivers are retained
  // while the sender keeps the LNVC alive (paper §3.2 lifetime rule).
  const LnvcId tx = open_send(0, "mailbox");
  for (int i = 0; i < 4; ++i) send_int(0, tx, i);
  EXPECT_EQ(f.queued(tx), 4u);
  const LnvcId rx = open_recv(1, "mailbox", Protocol::fcfs);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(recv_int(1, rx), i);
}

TEST_F(LnvcTest, CloseLastConnectionDiscardsBacklog) {
  LnvcId tx = open_send(0, "mailbox");
  for (int i = 0; i < 4; ++i) send_int(0, tx, i);
  const FacilityStats before = f.stats();
  EXPECT_LT(before.blocks_free, config.message_blocks);
  EXPECT_EQ(f.close_send(0, tx), Status::ok);
  EXPECT_FALSE(f.lnvc_exists("mailbox"));
  // Every block came back to the pool.
  EXPECT_EQ(f.stats().blocks_free, config.message_blocks);
  // A new conversation under the same name starts empty.
  (void)open_send(0, "mailbox");
  const LnvcId rx = open_recv(1, "mailbox", Protocol::fcfs);
  bool has = true;
  EXPECT_EQ(f.check(1, rx, &has), Status::ok);
  EXPECT_FALSE(has);
}

TEST_F(LnvcTest, SenderLeavesStreamContinues) {
  LnvcId tx = open_send(0, "conv");
  const LnvcId rx = open_recv(1, "conv", Protocol::fcfs);
  send_int(0, tx, 7);
  EXPECT_EQ(f.close_send(0, tx), Status::ok);
  EXPECT_TRUE(f.lnvc_exists("conv"));  // receiver keeps it alive
  EXPECT_EQ(recv_int(1, rx), 7);       // message survived the leave
  LnvcId tx2 = open_send(2, "conv");   // a new sender joins
  send_int(2, tx2, 8);
  EXPECT_EQ(recv_int(1, rx), 8);
}

TEST_F(LnvcTest, ClosingBroadcastReceiverReleasesItsClaims) {
  // Paper §3.2's "particularly vexing problem": receiver leaves with
  // unread messages; they must be reclaimed once other claims clear.
  const LnvcId tx = open_send(0, "b");
  const LnvcId r1 = open_recv(1, "b", Protocol::broadcast);
  const LnvcId r2 = open_recv(2, "b", Protocol::broadcast);
  for (int i = 0; i < 8; ++i) send_int(0, tx, i);
  // r1 reads everything; r2 reads nothing and leaves.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(recv_int(1, r1), i);
  const std::size_t before = f.stats().blocks_free;
  EXPECT_EQ(f.close_receive(2, r2), Status::ok);
  EXPECT_GT(f.stats().blocks_free, before);  // messages reclaimed
  EXPECT_EQ(f.stats().blocks_free, config.message_blocks);
}

// ----------------------------------------------------------------- order

TEST_F(LnvcTest, TimeOrderPreservedForEveryObserver) {
  // Two senders interleave; both a broadcast observer and the FCFS
  // sub-stream must see a single consistent enqueue order (paper §3.1).
  const LnvcId tx0 = open_send(0, "t");
  LnvcId tx1 = kInvalidLnvc;
  ASSERT_EQ(f.open_send(1, "t", &tx1), Status::ok);
  const LnvcId bc = open_recv(2, "t", Protocol::broadcast);
  const LnvcId fc = open_recv(3, "t", Protocol::fcfs);
  for (int i = 0; i < 10; ++i) send_int(i % 2, i % 2 == 0 ? tx0 : tx1, i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(recv_int(2, bc), i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(recv_int(3, fc), i);
}

// ------------------------------------------------------- message payloads

TEST_F(LnvcTest, MessagesLargerThanOneBlockChainCorrectly) {
  const LnvcId tx = open_send(0, "big");
  const LnvcId rx = open_recv(1, "big", Protocol::fcfs);
  // 10-byte blocks: exercise 1, boundary, boundary+1, many blocks.
  for (const std::size_t len : {1u, 9u, 10u, 11u, 20u, 21u, 1000u, 4096u}) {
    std::vector<std::byte> out(len);
    for (std::size_t i = 0; i < len; ++i) {
      out[i] = static_cast<std::byte>((i * 7 + len) & 0xff);
    }
    ASSERT_EQ(f.send(0, tx, out.data(), out.size()), Status::ok) << len;
    std::vector<std::byte> in(len);
    std::size_t got = 0;
    ASSERT_EQ(f.receive(1, rx, in.data(), in.size(), &got), Status::ok);
    ASSERT_EQ(got, len);
    EXPECT_EQ(in, out) << "corrupted at len " << len;
  }
}

TEST_F(LnvcTest, ZeroLengthMessagesAreDelivered) {
  const LnvcId tx = open_send(0, "z");
  const LnvcId rx = open_recv(1, "z", Protocol::fcfs);
  ASSERT_EQ(f.send(0, tx, nullptr, 0), Status::ok);
  char buf[4];
  std::size_t len = 99;
  EXPECT_EQ(f.receive(1, rx, buf, sizeof(buf), &len), Status::ok);
  EXPECT_EQ(len, 0u);
}

TEST_F(LnvcTest, ShortBufferTruncatesAndConsumes) {
  const LnvcId tx = open_send(0, "tr");
  const LnvcId rx = open_recv(1, "tr", Protocol::fcfs);
  const char msg[] = "0123456789abcdef";
  ASSERT_EQ(f.send(0, tx, msg, 16), Status::ok);
  char buf[8];
  std::size_t len = 0;
  EXPECT_EQ(f.receive(1, rx, buf, sizeof(buf), &len), Status::truncated);
  EXPECT_EQ(len, 8u);
  EXPECT_EQ(std::string(buf, 8), "01234567");
  // The message was consumed despite truncation.
  bool has = true;
  EXPECT_EQ(f.check(1, rx, &has), Status::ok);
  EXPECT_FALSE(has);
}

// --------------------------------------------------------- check_receive

TEST_F(LnvcTest, CheckReceiveSemantics) {
  const LnvcId tx = open_send(0, "c");
  const LnvcId fc = open_recv(1, "c", Protocol::fcfs);
  const LnvcId bc = open_recv(2, "c", Protocol::broadcast);
  bool has = true;
  EXPECT_EQ(f.check(1, fc, &has), Status::ok);
  EXPECT_FALSE(has);
  EXPECT_EQ(f.check(2, bc, &has), Status::ok);
  EXPECT_FALSE(has);
  send_int(0, tx, 5);
  EXPECT_EQ(f.check(1, fc, &has), Status::ok);
  EXPECT_TRUE(has);
  EXPECT_EQ(f.check(2, bc, &has), Status::ok);
  EXPECT_TRUE(has);
  (void)recv_int(1, fc);  // FCFS consumption
  EXPECT_EQ(f.check(1, fc, &has), Status::ok);
  EXPECT_FALSE(has);
  EXPECT_EQ(f.check(2, bc, &has), Status::ok);
  EXPECT_TRUE(has);  // broadcast copy still waiting
}

// ------------------------------------------------------------ error paths

TEST_F(LnvcTest, ErrorStatuses) {
  LnvcId id = kInvalidLnvc;
  // invalid pid / name
  EXPECT_EQ(f.open_send(config.max_processes, "x", &id),
            Status::invalid_argument);
  EXPECT_EQ(f.open_send(0, "", &id), Status::invalid_argument);
  EXPECT_EQ(f.open_send(0, std::string(64, 'n'), &id),
            Status::invalid_argument);
  EXPECT_EQ(f.open_receive(0, "x", static_cast<Protocol>(9), &id),
            Status::invalid_argument);
  // bad lnvc ids
  char buf[4];
  std::size_t len = 0;
  EXPECT_EQ(f.send(0, -1, buf, 1), Status::invalid_argument);
  EXPECT_EQ(f.send(0, 1000, buf, 1), Status::invalid_argument);
  EXPECT_EQ(f.receive(0, -1, buf, 4, &len), Status::invalid_argument);
  EXPECT_EQ(f.close_send(0, 1000), Status::invalid_argument);
  // dead lnvc
  LnvcId tx = open_send(0, "dead");
  EXPECT_EQ(f.close_send(0, tx), Status::ok);
  EXPECT_EQ(f.send(0, tx, buf, 1), Status::no_such_lnvc);
  EXPECT_EQ(f.receive(0, tx, buf, 4, &len), Status::no_such_lnvc);
  EXPECT_EQ(f.close_send(0, tx), Status::no_such_lnvc);
  bool has = false;
  EXPECT_EQ(f.check(0, tx, &has), Status::no_such_lnvc);
  // connected but wrong role
  tx = open_send(0, "roles");
  EXPECT_EQ(f.receive(0, tx, buf, 4, &len), Status::not_connected);
  const LnvcId rx = open_recv(1, "roles", Protocol::fcfs);
  EXPECT_EQ(f.send(1, rx, buf, 1), Status::not_connected);
  EXPECT_EQ(f.close_receive(0, tx), Status::not_connected);
  EXPECT_EQ(f.close_send(1, tx), Status::not_connected);
}

TEST_F(LnvcTest, TryReceiveReportsEmptiness) {
  const LnvcId tx = open_send(0, "t");
  const LnvcId rx = open_recv(1, "t", Protocol::fcfs);
  char buf[8];
  std::size_t len = 0;
  EXPECT_EQ(f.receive(1, rx, buf, sizeof(buf), &len, 0), Status::timed_out);
  send_int(0, tx, 3);
  EXPECT_EQ(f.receive(1, rx, buf, sizeof(buf), &len, 0), Status::ok);
  EXPECT_EQ(len, sizeof(int));
}

// -------------------------------------------------- multiple conversations

TEST_F(LnvcTest, IndependentLnvcsDoNotInterfere) {
  std::vector<LnvcId> txs, rxs;
  for (int c = 0; c < 4; ++c) {
    txs.push_back(open_send(0, "chan" + std::to_string(c)));
    rxs.push_back(open_recv(1, "chan" + std::to_string(c), Protocol::fcfs));
  }
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 3; ++i) send_int(0, txs[c], c * 100 + i);
  }
  for (int c = 3; c >= 0; --c) {  // drain in reverse channel order
    for (int i = 0; i < 3; ++i) EXPECT_EQ(recv_int(1, rxs[c]), c * 100 + i);
  }
}

// ---------------------------------------------------------- blocked waits

TEST_F(LnvcTest, BlockedReceiverWakesOnSend) {
  const LnvcId rx = open_recv(1, "w", Protocol::fcfs);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    LnvcId tx = kInvalidLnvc;
    ASSERT_EQ(f.open_send(0, "w", &tx), Status::ok);
    int v = 42;
    ASSERT_EQ(f.send(0, tx, &v, sizeof(v)), Status::ok);
    ASSERT_EQ(f.close_send(0, tx), Status::ok);
  });
  EXPECT_EQ(recv_int(1, rx), 42);
  sender.join();
}

TEST_F(LnvcTest, BlockedReceiverObservesLnvcDeath) {
  // A receiver blocked on a conversation whose slot is destroyed and
  // reused must come back with Status::closed, not a stale message.
  const LnvcId rx = open_recv(1, "doomed", Protocol::fcfs);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    // Closing the receiver's own connection from outside kills the LNVC.
    ASSERT_EQ(f.close_receive(1, rx), Status::ok);
  });
  char buf[4];
  std::size_t len = 0;
  const Status s = f.receive(1, rx, buf, sizeof(buf), &len);
  EXPECT_TRUE(s == Status::closed || s == Status::not_connected)
      << to_string(s);
  closer.join();
}

}  // namespace
