// View-holder death: the recovery sweep must find pins recorded in the
// dead process's view table, release them, and leave every block and slab
// accounted for.  Simulated kills (deterministic fault plans) and a real
// SIGKILL across fork cover both failure paths.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "mpf/benchlib/simrun.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/sim/fault.hpp"

namespace {

using namespace mpf;
using namespace mpf::benchlib;

Config chaos_config(std::size_t slab_threshold = 0) {
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 4;
  c.block_payload = 10;
  c.message_blocks = 2048;
  c.suspicion_ns = 1'000'000;  // 1 ms of virtual time
  c.slab_threshold = slab_threshold;
  return c;
}

// Rank 1 claims a view of rank 0's 400-byte message and is killed while
// still holding it (at its 5th noise send, so the pin is long established).
// Rank 0 drains noise until its peer's death surfaces, then returns; the
// final sweep must unpin the view and reclaim the message.
ChaosMetrics run_killed_holder(const Config& config) {
  sim::FaultPlan plan;
  plan.actions.push_back({sim::FaultAction::Kind::kill_at_send, 1, 0, 5, 0});
  return run_chaos(config, 2, plan, [](Facility f, int rank) {
    if (rank == 0) {
      LnvcId data_tx = kInvalidLnvc, noise_rx = kInvalidLnvc;
      if (f.open_send(0, "data", &data_tx) != Status::ok) return;
      if (f.open_receive(0, "noise", Protocol::fcfs, &noise_rx) !=
          Status::ok) {
        return;
      }
      std::vector<std::byte> payload(400, std::byte{0x5a});
      if (f.send(0, data_tx, payload.data(), payload.size()) != Status::ok) {
        return;
      }
      std::uint32_t v = 0;
      std::size_t len = 0;
      for (int i = 0; i < 64; ++i) {
        const Status s =
            f.receive(0, noise_rx, &v, sizeof(v), &len, 2'000'000);
        if (s != Status::ok && s != Status::truncated) break;
      }
    } else {
      LnvcId data_rx = kInvalidLnvc, noise_tx = kInvalidLnvc;
      if (f.open_receive(1, "data", Protocol::fcfs, &data_rx) != Status::ok) {
        return;
      }
      if (f.open_send(1, "noise", &noise_tx) != Status::ok) return;
      MsgView view;
      if (f.receive_view(1, data_rx, &view) != Status::ok) return;
      // Never released: the plan kills this process mid-send below.
      for (std::uint32_t n = 0; n < 1'000'000; ++n) {
        if (f.send(1, noise_tx, &n, sizeof(n)) != Status::ok) break;
      }
    }
  });
}

TEST(ViewChaos, KilledViewHolderIsUnpinnedAndConserved) {
  const ChaosMetrics m = run_killed_holder(chaos_config());
  EXPECT_EQ(m.kills, 1u);
  EXPECT_GE(m.reaps, 1u);
  EXPECT_TRUE(m.blocks_conserved)
      << "free=" << m.audit.blocks_free << " cached=" << m.audit.blocks_cached
      << " queued=" << m.audit.blocks_queued
      << " journaled=" << m.audit.blocks_journaled
      << " total=" << m.audit.blocks_total;
  EXPECT_TRUE(m.audit.consistent());
}

TEST(ViewChaos, KilledSlabViewHolderConservesSlabs) {
  // 400-byte message over a 64-byte threshold: the pinned payload is one
  // slab extent, so the sweep exercises slab conservation too.
  const ChaosMetrics m = run_killed_holder(chaos_config(64));
  EXPECT_EQ(m.kills, 1u);
  EXPECT_GE(m.reaps, 1u);
  EXPECT_GT(m.audit.slabs_total, 0u);
  EXPECT_TRUE(m.blocks_conserved);
  EXPECT_TRUE(m.audit.consistent())
      << "slabs free=" << m.audit.slabs_free
      << " queued=" << m.audit.slabs_queued
      << " journaled=" << m.audit.slabs_journaled
      << " total=" << m.audit.slabs_total;
}

TEST(ViewChaos, SigkilledForkedViewHolderUnpinsOnReap) {
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  c.block_payload = 10;
  c.message_blocks = 4096;
  c.suspicion_ns = 20'000'000;  // 20 ms: keep native seizure waits short
  shm::AnonSharedRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  LnvcId data_tx = kInvalidLnvc, ack_rx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "data", &data_tx), Status::ok);
  ASSERT_EQ(f.open_receive(0, "ack", Protocol::fcfs, &ack_rx), Status::ok);
  std::vector<std::byte> payload(200, std::byte{0xa5});
  ASSERT_EQ(f.send(0, data_tx, payload.data(), payload.size()), Status::ok);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: pin the message, tell the parent, then hold the view until
    // SIGKILLed.
    LnvcId rx = kInvalidLnvc, tx = kInvalidLnvc;
    if (f.open_receive(1, "data", Protocol::fcfs, &rx) != Status::ok) {
      _exit(30);
    }
    if (f.open_send(1, "ack", &tx) != Status::ok) _exit(31);
    MsgView view;
    if (f.receive_view(1, rx, &view) != Status::ok) _exit(32);
    if (view.length != payload.size()) _exit(33);
    const char ok = 1;
    if (f.send(1, tx, &ok, sizeof(ok)) != Status::ok) _exit(34);
    for (;;) ::pause();
  }
  char ok = 0;
  std::size_t len = 0;
  ASSERT_EQ(f.receive(0, ack_rx, &ok, sizeof(ok), &len), Status::ok);
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // The orphan report attributes the held view to the dead child.
  EXPECT_FALSE(f.process_alive(1));
  bool found = false;
  for (const OrphanInfo& o : f.orphan_infos()) {
    if (o.pid != 1) continue;
    found = true;
    EXPECT_FALSE(o.os_alive);
    EXPECT_EQ(o.views, 1u);
  }
  EXPECT_TRUE(found);

  ASSERT_EQ(f.reap(0, 1), Status::ok);
  for (const OrphanInfo& o : f.orphan_infos()) {
    if (o.pid == 1) {
      EXPECT_EQ(o.views, 0u);
    }
  }
  const BlockAudit audit = f.block_audit();
  EXPECT_TRUE(audit.consistent());
  EXPECT_EQ(audit.in_flight(), 0u);
  EXPECT_GE(f.stats().reaps, 1u);
}

TEST(ViewChaos, SigkilledDifferentBaseViewHolderConserved) {
  // Same orphan sweep, but the dead holder pinned its view through a
  // DIFFERENT mapping of the region (fresh attach, not the fork-inherited
  // one).  The reaper walks the dead view table through its own base, so
  // conservation only holds if the table records offsets, not pointers.
  const std::string name =
      "/mpf_view_chaos_" + std::to_string(getpid());
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  c.block_payload = 10;
  c.message_blocks = 4096;
  c.suspicion_ns = 20'000'000;
  c.slab_threshold = 64;  // the pinned payload is a slab extent
  auto region = shm::PosixShmRegion::create(name, c.derived_arena_bytes());
  Facility f = Facility::create(c, *region);

  LnvcId data_tx = kInvalidLnvc, ack_rx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "data", &data_tx), Status::ok);
  ASSERT_EQ(f.open_receive(0, "ack", Protocol::fcfs, &ack_rx), Status::ok);
  std::vector<std::byte> payload(400, std::byte{0xa5});
  ASSERT_EQ(f.send(0, data_tx, payload.data(), payload.size()), Status::ok);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: attach at a new base, pin the slab message through THAT
    // mapping, tell the parent, hold the view until SIGKILLed.
    int code = 0;
    try {
      auto mine = shm::PosixShmRegion::attach(name);
      if (mine->base() == region->base()) _exit(40);
      Facility g = Facility::attach(*mine);
      LnvcId rx = kInvalidLnvc, tx = kInvalidLnvc;
      if (g.open_receive(1, "data", Protocol::fcfs, &rx) != Status::ok) {
        _exit(41);
      }
      if (g.open_send(1, "ack", &tx) != Status::ok) _exit(42);
      MsgView view;
      if (g.receive_view(1, rx, &view) != Status::ok) _exit(43);
      if (!view.slab || view.length != payload.size()) _exit(44);
      const char ok = 1;
      if (g.send(1, tx, &ok, sizeof(ok)) != Status::ok) _exit(45);
      for (;;) ::pause();
    } catch (...) {
      code = 46;
    }
    _exit(code);
  }
  char ok = 0;
  std::size_t len = 0;
  ASSERT_EQ(f.receive(0, ack_rx, &ok, sizeof(ok), &len), Status::ok);
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  bool found = false;
  for (const OrphanInfo& o : f.orphan_infos()) {
    if (o.pid != 1) continue;
    found = true;
    EXPECT_EQ(o.views, 1u);
  }
  EXPECT_TRUE(found);

  ASSERT_EQ(f.reap(0, 1), Status::ok);
  // Block AND slab conservation through the reaper's own (original)
  // mapping: every extent the dead holder pinned is back in circulation.
  const BlockAudit audit = f.block_audit();
  EXPECT_TRUE(audit.consistent())
      << "blocks free=" << audit.blocks_free
      << " cached=" << audit.blocks_cached
      << " queued=" << audit.blocks_queued
      << " journaled=" << audit.blocks_journaled
      << " total=" << audit.blocks_total
      << "; slabs free=" << audit.slabs_free
      << " queued=" << audit.slabs_queued
      << " journaled=" << audit.slabs_journaled
      << " total=" << audit.slabs_total;
  EXPECT_GT(audit.slabs_total, 0u);
  EXPECT_EQ(audit.slabs_free, audit.slabs_total);
  EXPECT_EQ(audit.in_flight(), 0u);
}

}  // namespace
