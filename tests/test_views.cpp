// Zero-copy message views and the transport seam (DESIGN.md §9): span
// reassembly, slab single-extent views, scatter-gather sends, the view
// lifetime rules (across close, at the per-process table limit, under
// concurrent FCFS claims), truncation reporting aligned across policies,
// the Transport adapters, and the C API surface.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mpf/coll/collectives.hpp"
#include "mpf/compat/mpf.h"
#include "mpf/core/channel.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/core/ports.hpp"
#include "mpf/core/rendezvous.hpp"
#include "mpf/core/transport.hpp"
#include "mpf/runtime/group.hpp"
#include "mpf/shm/region.hpp"

namespace {

using namespace mpf;

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 131u + i * 7u) & 0xffu);
  }
  return v;
}

std::vector<std::byte> flatten(const Facility& f, const MsgView& view) {
  std::vector<std::byte> out;
  out.reserve(view.length);
  for (const ConstBuffer& s : f.materialize(view)) {
    const auto* p = static_cast<const std::byte*>(s.data);
    out.insert(out.end(), p, p + s.len);
  }
  return out;
}

struct ViewTest : ::testing::Test {
  Config config = [] {
    Config c;
    c.max_lnvcs = 8;
    c.max_processes = 8;
    c.block_payload = 10;  // paper block size: views span many fragments
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
  LnvcId open_recv(ProcessId pid, const std::string& name,
                   Protocol proto = Protocol::fcfs) {
    LnvcId id = kInvalidLnvc;
    EXPECT_EQ(f.open_receive(pid, name, proto, &id), Status::ok);
    return id;
  }
};

// ------------------------------------------------------------ view basics

TEST_F(ViewTest, ChainSpansReassemblePayload) {
  const LnvcId tx = open_send(0, "conv");
  const LnvcId rx = open_recv(1, "conv");
  const auto payload = pattern(100);
  ASSERT_EQ(f.send(0, tx, payload.data(), payload.size()), Status::ok);

  MsgView view;
  ASSERT_EQ(f.receive_view(1, rx, &view), Status::ok);
  ASSERT_TRUE(view.valid());
  EXPECT_FALSE(view.slab);
  EXPECT_EQ(view.length, payload.size());
  // 100 bytes over 10-byte blocks: one span per block, in payload order.
  EXPECT_EQ(view.spans.size(), 10u);
  std::size_t total = 0;
  for (const ViewSpan& s : view.spans) total += s.len;
  EXPECT_EQ(total, view.length);
  EXPECT_EQ(flatten(f, view), payload);

  const FacilityStats stats = f.stats();
  EXPECT_GE(stats.views, 1u);
  EXPECT_GE(stats.view_bytes, payload.size());

  ASSERT_EQ(f.release_view(1, &view), Status::ok);
  const BlockAudit audit = f.block_audit();
  EXPECT_TRUE(audit.consistent());
  EXPECT_EQ(audit.blocks_queued, 0u);
}

TEST_F(ViewTest, TryReceiveViewReportsEmpty) {
  const LnvcId rx = open_recv(1, "empty");
  (void)open_send(0, "empty");
  MsgView view;
  ASSERT_EQ(f.receive_view(1, rx, &view, 0), Status::timed_out);
  EXPECT_FALSE(view.valid());
}

TEST_F(ViewTest, SlabViewIsOneContiguousSpan) {
  Config c = config;
  c.slab_threshold = 64;
  shm::HeapRegion slab_region(c.derived_arena_bytes());
  Facility g = Facility::create(c, slab_region);
  LnvcId tx = kInvalidLnvc, rx = kInvalidLnvc;
  ASSERT_EQ(g.open_send(0, "big", &tx), Status::ok);
  ASSERT_EQ(g.open_receive(1, "big", Protocol::fcfs, &rx), Status::ok);

  const auto payload = pattern(300, 5);
  ASSERT_EQ(g.send(0, tx, payload.data(), payload.size()), Status::ok);
  EXPECT_GE(g.stats().slab_sends, 1u);

  MsgView view;
  ASSERT_EQ(g.receive_view(1, rx, &view), Status::ok);
  EXPECT_TRUE(view.slab);
  ASSERT_EQ(view.spans.size(), 1u);
  EXPECT_EQ(view.spans[0].len, payload.size());
  EXPECT_EQ(flatten(g, view), payload);
  ASSERT_EQ(g.release_view(1, &view), Status::ok);

  const BlockAudit audit = g.block_audit();
  EXPECT_TRUE(audit.consistent());
  EXPECT_GT(audit.slabs_total, 0u);
  EXPECT_EQ(audit.slabs_free, audit.slabs_total);
}

// --------------------------------------------------------- scatter-gather

TEST_F(ViewTest, SendVMatchesCoalescedSend) {
  const LnvcId tx = open_send(0, "sg");
  const LnvcId rx = open_recv(1, "sg");
  const auto a = pattern(13, 2);
  const auto b = pattern(47, 3);
  const auto c = pattern(25, 4);
  const ConstBuffer iov[3] = {{a.data(), a.size()},
                              {b.data(), b.size()},
                              {c.data(), c.size()}};
  ASSERT_EQ(f.send_v(0, tx, iov), Status::ok);

  std::vector<std::byte> expect;
  expect.insert(expect.end(), a.begin(), a.end());
  expect.insert(expect.end(), b.begin(), b.end());
  expect.insert(expect.end(), c.begin(), c.end());

  std::vector<std::byte> buf(expect.size());
  std::size_t len = 0;
  ASSERT_EQ(f.receive(1, rx, buf.data(), buf.size(), &len), Status::ok);
  EXPECT_EQ(len, expect.size());
  EXPECT_EQ(buf, expect);
}

// ------------------------------------------------------------ view limits

TEST_F(ViewTest, TableFullAtMaxConcurrentViews) {
  const LnvcId tx = open_send(0, "limit");
  const LnvcId rx = open_recv(1, "limit");
  const auto payload = pattern(20);
  for (std::uint32_t i = 0; i < detail::kMaxViews + 1; ++i) {
    ASSERT_EQ(f.send(0, tx, payload.data(), payload.size()), Status::ok);
  }
  MsgView held[detail::kMaxViews];
  for (auto& v : held) ASSERT_EQ(f.receive_view(1, rx, &v), Status::ok);
  MsgView extra;
  EXPECT_EQ(f.receive_view(1, rx, &extra), Status::table_full);
  EXPECT_FALSE(extra.valid());
  // The refusal is recoverable and did not corrupt the pin journal: the
  // conservation law still holds, with the held messages and the refused
  // 5th one all accounted for in the queued column (attached pins count
  // as queued; only detached ones move to journaled).
  const BlockAudit full = f.block_audit();
  EXPECT_TRUE(full.consistent());
  EXPECT_GT(full.blocks_queued, 0u);
  // The refused call consumed nothing: releasing one slot frees the claim.
  ASSERT_EQ(f.release_view(1, &held[0]), Status::ok);
  ASSERT_EQ(f.receive_view(1, rx, &extra), Status::ok);
  ASSERT_EQ(f.release_view(1, &extra), Status::ok);
  for (std::uint32_t i = 1; i < detail::kMaxViews; ++i) {
    ASSERT_EQ(f.release_view(1, &held[i]), Status::ok);
  }
  EXPECT_TRUE(f.block_audit().consistent());
}

TEST_F(ViewTest, ReleaseViewRejectsStaleHandles) {
  const LnvcId tx = open_send(0, "stale");
  const LnvcId rx = open_recv(1, "stale");
  const auto payload = pattern(20);
  ASSERT_EQ(f.send(0, tx, payload.data(), payload.size()), Status::ok);
  MsgView view;
  ASSERT_EQ(f.receive_view(1, rx, &view), Status::ok);
  ASSERT_EQ(f.release_view(1, &view), Status::ok);
  EXPECT_EQ(f.release_view(1, &view), Status::invalid_argument);
  MsgView never;
  EXPECT_EQ(f.release_view(1, &never), Status::invalid_argument);
}

TEST_F(ViewTest, StaleHandleAfterSlotReuseIsRejected) {
  // A released handle whose slot was re-armed — possibly with a recycled
  // message at the SAME arena offset — must not release the new pin.  The
  // arm sequence number is what distinguishes the two.
  const LnvcId tx = open_send(0, "reuse");
  const LnvcId rx = open_recv(1, "reuse");
  const auto payload = pattern(20);
  ASSERT_EQ(f.send(0, tx, payload.data(), payload.size()), Status::ok);
  MsgView first;
  ASSERT_EQ(f.receive_view(1, rx, &first), Status::ok);
  MsgView stale = first;  // simulates a handle kept past release
  ASSERT_EQ(f.release_view(1, &first), Status::ok);

  // Recycle: the freed blocks are the pool head, so the next send lands
  // at the same offsets, and slot/msg in the stale handle alias the new
  // view exactly.
  ASSERT_EQ(f.send(0, tx, payload.data(), payload.size()), Status::ok);
  MsgView second;
  ASSERT_EQ(f.receive_view(1, rx, &second), Status::ok);

  EXPECT_EQ(f.release_view(1, &stale), Status::invalid_argument);
  // The new view is untouched: it still releases cleanly exactly once.
  ASSERT_EQ(f.release_view(1, &second), Status::ok);
  const BlockAudit audit = f.block_audit();
  EXPECT_TRUE(audit.consistent());
  EXPECT_EQ(audit.blocks_journaled, 0u);
}

TEST_F(ViewTest, DoubleReleaseAfterDetachIsInvalid) {
  // Release after the circuit was destroyed under the view (detach path):
  // the first release frees the detached message, the second must be a
  // clean invalid_argument, not a double free.
  const LnvcId tx = open_send(0, "detach");
  const LnvcId rx = open_recv(1, "detach");
  const auto payload = pattern(40, 17);
  ASSERT_EQ(f.send(0, tx, payload.data(), payload.size()), Status::ok);
  MsgView view;
  ASSERT_EQ(f.receive_view(1, rx, &view), Status::ok);
  MsgView stale = view;
  ASSERT_EQ(f.close_receive(1, rx), Status::ok);
  ASSERT_EQ(f.close_send(0, tx), Status::ok);

  ASSERT_EQ(f.release_view(1, &view), Status::ok);
  EXPECT_EQ(f.release_view(1, &stale), Status::invalid_argument);
  EXPECT_EQ(f.release_view(1, &view), Status::invalid_argument);
  const BlockAudit audit = f.block_audit();
  EXPECT_TRUE(audit.consistent());
  EXPECT_EQ(audit.blocks_journaled, 0u);
  EXPECT_EQ(audit.blocks_queued, 0u);
}

// ------------------------------------------------- view across close/destroy

TEST_F(ViewTest, ViewOutlivesCloseReceiveAndDestroy) {
  const LnvcId tx = open_send(0, "doomed");
  const LnvcId rx = open_recv(1, "doomed");
  const auto payload = pattern(80, 9);
  ASSERT_EQ(f.send(0, tx, payload.data(), payload.size()), Status::ok);

  MsgView view;
  ASSERT_EQ(f.receive_view(1, rx, &view), Status::ok);
  // Close both sides: the last close destroys the circuit, which detaches
  // the pinned message instead of freeing it under the view.
  ASSERT_EQ(f.close_receive(1, rx), Status::ok);
  ASSERT_EQ(f.close_send(0, tx), Status::ok);
  EXPECT_FALSE(f.lnvc_exists("doomed"));

  // The spans still read the payload: the blocks were not reclaimed.
  EXPECT_EQ(flatten(f, view), payload);
  // A detached message is journaled state until its last pinner lets go.
  const BlockAudit held = f.block_audit();
  EXPECT_TRUE(held.consistent());
  EXPECT_GT(held.blocks_journaled, 0u);

  ASSERT_EQ(f.release_view(1, &view), Status::ok);
  const BlockAudit after = f.block_audit();
  EXPECT_TRUE(after.consistent());
  EXPECT_EQ(after.blocks_queued, 0u);
  EXPECT_EQ(after.blocks_journaled, 0u);
}

// --------------------------------------------------- concurrent FCFS claims

TEST_F(ViewTest, ConcurrentFcfsViewClaimsDeliverEachMessageOnce) {
  constexpr int kThreads = 4;
  constexpr int kMsgs = 120;
  const LnvcId tx = open_send(0, "work");
  LnvcId rx[kThreads];
  for (int t = 0; t < kThreads; ++t) {
    rx[t] = open_recv(static_cast<ProcessId>(t + 1), "work");
  }
  for (int v = 0; v < kMsgs; ++v) {
    ASSERT_EQ(f.send(0, tx, &v, sizeof(v)), Status::ok);
  }

  std::atomic<int> claimed{0};
  std::vector<std::vector<int>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto pid = static_cast<ProcessId>(t + 1);
      while (claimed.load(std::memory_order_acquire) < kMsgs) {
        MsgView view;
        const Status st = f.receive_view(pid, rx[t], &view, 0);
        if (st == Status::timed_out) continue;
        ASSERT_EQ(st, Status::ok);
        claimed.fetch_add(1, std::memory_order_acq_rel);
        ASSERT_EQ(view.length, sizeof(int));
        int v = -1;
        std::memcpy(&v, f.resolve(view.spans[0]).data, sizeof(v));
        got[static_cast<std::size_t>(t)].push_back(v);
        ASSERT_EQ(f.release_view(pid, &view), Status::ok);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::multiset<int> all;
  for (const auto& g : got) all.insert(g.begin(), g.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kMsgs));
  for (int v = 0; v < kMsgs; ++v) {
    EXPECT_EQ(all.count(v), 1u) << "message " << v;
  }
  EXPECT_TRUE(f.block_audit().consistent());
}

// ------------------------------------------------- truncation across policies

TEST(Truncation, ChannelAlignsWithFacilityContract) {
  std::vector<std::byte> mem(Channel::footprint(1024));
  Channel ch = Channel::create(mem.data(), 1024);
  const auto payload = pattern(64);
  ASSERT_TRUE(ch.send(payload));
  ASSERT_TRUE(ch.send(payload));

  // Short buffer: prefix copied, rest of the record discarded, flag set.
  std::byte small[16];
  bool truncated = false;
  EXPECT_EQ(ch.receive(small, &truncated), sizeof(small));
  EXPECT_TRUE(truncated);
  EXPECT_EQ(std::memcmp(small, payload.data(), sizeof(small)), 0);

  // The stream stays aligned: the next receive sees the next message.
  std::byte full[64];
  std::size_t len = 0;
  truncated = true;
  ASSERT_TRUE(ch.try_receive(full, &len, &truncated));
  EXPECT_EQ(len, payload.size());
  EXPECT_FALSE(truncated);
  EXPECT_EQ(std::memcmp(full, payload.data(), payload.size()), 0);
}

TEST(Truncation, RendezvousAlignsWithFacilityContract) {
  RendezvousCell cell{};
  Rendezvous tx(cell), rx(cell);
  const auto payload = pattern(64, 7);
  std::thread sender([&] {
    tx.send(payload);
    tx.send(payload);
  });
  std::byte small[16];
  bool truncated = false;
  EXPECT_EQ(rx.receive(small, &truncated), sizeof(small));
  EXPECT_TRUE(truncated);
  EXPECT_EQ(std::memcmp(small, payload.data(), sizeof(small)), 0);
  std::byte full[64];
  truncated = true;
  EXPECT_EQ(rx.receive(full, &truncated), payload.size());
  EXPECT_FALSE(truncated);
  sender.join();
}

// -------------------------------------------------------- transport adapters

TEST(TransportSeam, LnvcAdapterFullSurface) {
  Config c;
  c.max_lnvcs = 4;
  c.max_processes = 4;
  c.block_payload = 10;
  c.message_blocks = 1024;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  LnvcId tx = kInvalidLnvc, rx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "loop", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(0, "loop", Protocol::fcfs, &rx), Status::ok);
  LnvcTransport t(f, 0, tx, rx);
  EXPECT_STREQ(t.name(), "lnvc");
  EXPECT_TRUE(t.caps().zero_copy_view);
  EXPECT_TRUE(t.caps().scatter_gather);

  const auto payload = pattern(40);
  ASSERT_EQ(t.send(payload.data(), payload.size()), Status::ok);
  std::vector<std::byte> buf(payload.size());
  RecvResult r;
  ASSERT_EQ(t.receive(buf.data(), buf.size(), &r), Status::ok);
  EXPECT_EQ(r.length, payload.size());
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(buf, payload);

  const ConstBuffer iov[2] = {{payload.data(), 10},
                              {payload.data() + 10, payload.size() - 10}};
  ASSERT_EQ(t.send_v(iov), Status::ok);
  MsgView view;
  ASSERT_EQ(t.receive_view(&view), Status::ok);
  // The seam's materialize step resolves the offset spans for this mapping.
  std::vector<std::byte> joined;
  for (const ConstBuffer& s : t.materialize(view)) {
    const auto* p = static_cast<const std::byte*>(s.data);
    joined.insert(joined.end(), p, p + s.len);
  }
  EXPECT_EQ(joined, payload);
  ASSERT_EQ(t.release_view(&view), Status::ok);

  // Truncation maps through the seam exactly as on the raw facility.
  ASSERT_EQ(t.send(payload.data(), payload.size()), Status::ok);
  std::byte small[8];
  ASSERT_EQ(t.receive(small, sizeof(small), &r), Status::truncated);
  EXPECT_EQ(r.length, sizeof(small));
  EXPECT_TRUE(r.truncated);
}

TEST(TransportSeam, ChannelAdapterCoalescesGather) {
  std::vector<std::byte> mem(Channel::footprint(1024));
  Channel ch = Channel::create(mem.data(), 1024);
  ChannelTransport t(ch, ch);
  EXPECT_STREQ(t.name(), "channel");
  EXPECT_FALSE(t.caps().zero_copy_view);
  EXPECT_FALSE(t.caps().scatter_gather);

  const auto payload = pattern(40, 11);
  const ConstBuffer iov[2] = {{payload.data(), 17},
                              {payload.data() + 17, payload.size() - 17}};
  ASSERT_EQ(t.send_v(iov), Status::ok);  // base-class coalescing path
  std::vector<std::byte> buf(payload.size());
  RecvResult r;
  ASSERT_EQ(t.receive(buf.data(), buf.size(), &r), Status::ok);
  EXPECT_EQ(buf, payload);

  // No views on this policy, and oversized sends are rejected.
  MsgView view;
  EXPECT_EQ(t.receive_view(&view), Status::invalid_argument);
  std::vector<std::byte> huge(2048);
  EXPECT_EQ(t.send(huge.data(), huge.size()), Status::invalid_argument);
}

TEST(TransportSeam, RendezvousAdapterHandsOff) {
  RendezvousCell cell{};
  RendezvousTransport t{Rendezvous(cell), Rendezvous(cell)};
  EXPECT_STREQ(t.name(), "rendezvous");
  EXPECT_FALSE(t.caps().zero_copy_view);

  const auto payload = pattern(48, 13);
  std::thread sender([&] {
    ASSERT_EQ(t.send(payload.data(), payload.size()), Status::ok);
  });
  std::vector<std::byte> buf(payload.size());
  RecvResult r;
  ASSERT_EQ(t.receive(buf.data(), buf.size(), &r), Status::ok);
  EXPECT_EQ(r.length, payload.size());
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(buf, payload);
  sender.join();
}

// ------------------------------------------------------------------ C API

TEST(CApi, SendvAndViewRoundTrip) {
  ASSERT_EQ(mpf_init(8, 4), 0);
  const int tx = mpf_open_send(0, "capi");
  ASSERT_GE(tx, 0);
  const int rx = mpf_open_receive(1, "capi", MPF_FCFS);
  ASSERT_GE(rx, 0);

  const auto a = pattern(30, 21);
  const auto b = pattern(50, 22);
  const mpf_iovec iov[2] = {{a.data(), a.size()}, {b.data(), b.size()}};
  ASSERT_EQ(mpf_message_sendv(0, tx, iov, 2), 0);

  mpf_view* view = nullptr;
  ASSERT_EQ(mpf_message_view(1, rx, &view), 0);
  ASSERT_NE(view, nullptr);
  ASSERT_EQ(mpf_view_length(view), static_cast<long>(a.size() + b.size()));

  const int nspans = mpf_view_spans(view, nullptr, 0);  // size query
  ASSERT_GT(nspans, 0);
  std::vector<mpf_iovec> spans(static_cast<std::size_t>(nspans));
  ASSERT_EQ(mpf_view_spans(view, spans.data(), nspans), nspans);
  std::vector<std::byte> got;
  for (const mpf_iovec& s : spans) {
    const auto* p = static_cast<const std::byte*>(s.data);
    got.insert(got.end(), p, p + s.len);
  }
  std::vector<std::byte> expect;
  expect.insert(expect.end(), a.begin(), a.end());
  expect.insert(expect.end(), b.begin(), b.end());
  EXPECT_EQ(got, expect);

  ASSERT_EQ(mpf_view_release(1, view), 0);
  EXPECT_EQ(mpf_shutdown(), 0);
}

// ------------------------------------------------------------- RAII layer

TEST_F(ViewTest, MessageViewRaiiReleasesOnScopeExit) {
  Participant alice(f, 0);
  Participant bob(f, 1);
  SendPort tx = alice.open_send("raii");
  ReceivePort rx = bob.open_receive("raii", Protocol::fcfs);
  const auto payload = pattern(60, 31);
  tx.send(std::span<const std::byte>(payload));
  {
    MessageView view = rx.receive_view();
    ASSERT_TRUE(view.valid());
    EXPECT_EQ(view.length(), payload.size());
    std::vector<std::byte> buf(payload.size());
    EXPECT_EQ(view.copy_to(buf), payload.size());
    EXPECT_EQ(buf, payload);
  }  // destructor releases the pin
  const BlockAudit audit = f.block_audit();
  EXPECT_TRUE(audit.consistent());
  EXPECT_EQ(audit.blocks_queued, 0u);
  MessageView none = rx.receive_view(0);
  EXPECT_FALSE(none.valid());
}

// --------------------------------------------- collectives over the view path

TEST(CollectivesView, LargePayloadsAgreeThroughViews) {
  constexpr int kSize = 4;
  constexpr std::size_t kDoubles = 64;  // 512 B: past the view threshold
  Config c;
  c.max_lnvcs = static_cast<std::uint32_t>(kSize * kSize + 4 * kSize + 8);
  c.max_processes = static_cast<std::uint32_t>(kSize + 2);
  c.connections = static_cast<std::size_t>(kSize) * kSize * 4 + 64;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  rt::run_group(rt::Backend::thread, kSize, [&](int rank) {
    coll::Communicator comm(f, rank, kSize, "vw");
    std::vector<double> data(kDoubles);
    for (std::size_t i = 0; i < kDoubles; ++i) {
      data[i] = rank == 1 ? static_cast<double>(i) * 0.5 : -1.0;
    }
    comm.broadcast(data.data(), kDoubles * sizeof(double), 1);
    for (std::size_t i = 0; i < kDoubles; ++i) {
      ASSERT_DOUBLE_EQ(data[i], static_cast<double>(i) * 0.5)
          << "rank " << rank << " index " << i;
    }
    std::vector<double> contrib(kDoubles), sum(kDoubles);
    for (std::size_t i = 0; i < kDoubles; ++i) {
      contrib[i] = static_cast<double>(rank + 1) * static_cast<double>(i);
    }
    comm.reduce(contrib.data(), sum.data(), kDoubles, coll::Op::sum, 0);
    if (rank == 0) {
      const double scale = kSize * (kSize + 1) / 2.0;
      for (std::size_t i = 0; i < kDoubles; ++i) {
        ASSERT_DOUBLE_EQ(sum[i], scale * static_cast<double>(i)) << i;
      }
    }
  });
  // Both operations took the in-place path: every member viewed the
  // broadcast, the reduce root viewed each contribution.
  EXPECT_GE(f.stats().views, static_cast<std::uint64_t>(kSize + kSize - 1));
  EXPECT_TRUE(f.block_audit().consistent());
}

}  // namespace
