// NUMA-aware placement: per-node sub-pool carving, receiver-local pop
// policy, conservation across sub-pools (including the partitioned
// magazine flush), and recovery when a holder of remote-node storage dies
// — by simulated kill and by real SIGKILL across fork.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstddef>
#include <vector>

#include "mpf/benchlib/simrun.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/sim/fault.hpp"
#include "mpf/sim/machine.hpp"
#include "mpf/sim/sim_platform.hpp"

namespace {

using namespace mpf;
using namespace mpf::benchlib;

sim::MachineModel two_node_model() {
  sim::MachineModel m = sim::MachineModel::balance21000();
  m.numa_nodes = 2;
  return m;
}

Config two_node_config(bool prefer_receiver, std::size_t slab_threshold) {
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 4;  // pid 0 -> node 0, pid 1 -> node 1
  c.block_payload = 10;
  c.message_blocks = 2048;
  c.per_process_cache = false;
  c.slab_threshold = slab_threshold;
  c.numa_nodes = 2;
  c.numa_prefer_receiver = prefer_receiver;
  return c;
}

/// pid 0 (node 0) streams `msgs` messages to pid 1 (node 1), then both
/// close.  With prefer_receiver the bodies are carved from node 1's
/// sub-pools even though the sender is homed on node 0.
void cross_node_stream(Facility f, int rank, std::size_t len, int msgs) {
  std::vector<char> buf(len, 'n');
  std::size_t got = 0;
  LnvcId id = kInvalidLnvc;
  const auto pid = static_cast<ProcessId>(rank);
  if (rank == 0) {
    if (f.open_send(pid, "x", &id) != Status::ok) return;
    for (int i = 0; i < msgs; ++i) {
      if (f.send(pid, id, buf.data(), len) != Status::ok) break;
    }
    (void)f.close_send(pid, id);
  } else {
    if (f.open_receive(pid, "x", Protocol::fcfs, &id) != Status::ok) return;
    for (int i = 0; i < msgs; ++i) {
      if (f.receive(pid, id, buf.data(), len, &got) != Status::ok) break;
    }
    (void)f.close_receive(pid, id);
  }
}

TEST(NumaConfig, ResolutionRoundsAndCaps) {
  Config c;
  c.numa_nodes = 3;
  Config r = c.resolved();
  EXPECT_EQ(r.numa_nodes, 4u);  // rounded to a power of two
  EXPECT_GE(r.pool_shards, r.numa_nodes);  // nodes divide the shards

  c.numa_nodes = 0;
  EXPECT_EQ(c.resolved().numa_nodes, 1u);  // 0 = flat default

  c.numa_nodes = 100;
  EXPECT_EQ(c.resolved().numa_nodes, 64u);  // capped

  c.numa_nodes = 2;
  c.pool_shards = 1;
  r = c.resolved();
  EXPECT_GE(r.pool_shards, 2u);  // raised to cover every node
}

TEST(NumaPlacement, ReceiverLocalPopsCrossNode) {
  // Placement on: every pop serves the receiver's node, which is remote
  // to the popping sender.  Placement off: strictly sender-local.
  const auto run = [](bool prefer) {
    return run_sim(
        two_node_config(prefer, /*slab_threshold=*/0), 2,
        [](Facility f, int rank) { cross_node_stream(f, rank, 64, 20); },
        two_node_model());
  };
  const SimMetrics on = run(true);
  EXPECT_EQ(on.numa_nodes, 2u);
  EXPECT_GT(on.numa_remote_pops, 0u);
  EXPECT_EQ(on.numa_node_steals, 0u);  // node 1 never ran dry
  const SimMetrics off = run(false);
  EXPECT_EQ(off.numa_remote_pops, 0u);
  EXPECT_GT(off.numa_local_pops, 0u);
}

TEST(NumaPlacement, ReceiverLocalSlabPingPongIsFaster) {
  // The headline claim of the ablation: on a 2-node machine a 4 KiB slab
  // ping-pong is strictly faster with receiver-local placement, because
  // the expensive remote leg (the read) becomes local on both sides.
  const auto run = [](bool prefer) {
    Config c = two_node_config(prefer, /*slab_threshold=*/256);
    c.slab_bytes = 4096;
    return run_sim(
        c, 2,
        [](Facility f, int rank) {
          std::vector<char> buf(4096, 'p');
          std::size_t got = 0;
          LnvcId tx = kInvalidLnvc;
          LnvcId rx = kInvalidLnvc;
          const auto pid = static_cast<ProcessId>(rank);
          if (rank == 0) {
            if (f.open_send(pid, "pg", &tx) != Status::ok) return;
            if (f.open_receive(pid, "pn", Protocol::fcfs, &rx) != Status::ok)
              return;
            for (int i = 0; i < 20; ++i) {
              if (f.send(pid, tx, buf.data(), buf.size()) != Status::ok) break;
              if (f.receive(pid, rx, buf.data(), buf.size(), &got) !=
                  Status::ok)
                break;
            }
          } else {
            if (f.open_receive(pid, "pg", Protocol::fcfs, &rx) != Status::ok)
              return;
            if (f.open_send(pid, "pn", &tx) != Status::ok) return;
            for (int i = 0; i < 20; ++i) {
              if (f.receive(pid, rx, buf.data(), buf.size(), &got) !=
                  Status::ok)
                break;
              if (f.send(pid, tx, buf.data(), buf.size()) != Status::ok) break;
            }
          }
        },
        two_node_model());
  };
  const SimMetrics local = run(true);
  const SimMetrics blind = run(false);
  EXPECT_EQ(local.bytes_delivered, blind.bytes_delivered);
  EXPECT_LT(local.seconds, blind.seconds);
}

TEST(NumaAudit, SubPoolConservationAtQuiescence) {
  // Cache off, so every freed chain takes the partitioned flush: blocks
  // carved from node 1 (receiver-local placement) are freed by whichever
  // side reclaims and must return to node 1's shards, not the freer's
  // index-hash shard.  Quiescent per-node free == capacity is exactly the
  // property the old flat flush would violate.
  Config c = two_node_config(/*prefer_receiver=*/true, /*slab_threshold=*/256);
  c.slab_bytes = 4096;
  sim::Simulator simulator{two_node_model()};
  sim::SimPlatform platform(simulator);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region, platform);
  simulator.spawn_group(2, [&](int rank) {
    cross_node_stream(f, rank, 64, 30);    // chains, partitioned flush
    cross_node_stream(f, rank, 1024, 10);  // slabs, per-node slab pools
  });
  simulator.run();

  const BlockAudit audit = f.block_audit();
  EXPECT_TRUE(audit.consistent());
  EXPECT_EQ(audit.blocks_free, audit.blocks_total);
  EXPECT_EQ(audit.slabs_free, audit.slabs_total);
  const auto nodes = f.node_pool_infos();
  ASSERT_EQ(nodes.size(), 2u);
  for (const NodePoolInfo& n : nodes) {
    EXPECT_EQ(n.free_blocks, n.block_capacity) << "node " << n.node;
    EXPECT_EQ(n.free_slabs, n.slab_capacity) << "node " << n.node;
  }
  // Placement did cross nodes: node 1's sub-pools served the sender.
  EXPECT_GT(nodes[1].remote_pops, 0u);
}

TEST(NumaChaos, SimKilledRemoteViewHolderConserved) {
  // pid 1 (node 1) pins a view of a slab placed on ITS node by pid 0's
  // receiver-local send, then dies holding it.  The sweep must release
  // the pin and return the extent to node 1's slab pool.
  Config c = two_node_config(/*prefer_receiver=*/true, /*slab_threshold=*/64);
  c.suspicion_ns = 1'000'000;
  sim::FaultPlan plan;
  plan.actions.push_back({sim::FaultAction::Kind::kill_at_send, 1, 0, 5, 0});
  const ChaosMetrics m = run_chaos(
      c, 2,
      plan,
      [](Facility f, int rank) {
        if (rank == 0) {
          LnvcId data_tx = kInvalidLnvc, noise_rx = kInvalidLnvc;
          if (f.open_send(0, "data", &data_tx) != Status::ok) return;
          if (f.open_receive(0, "noise", Protocol::fcfs, &noise_rx) !=
              Status::ok) {
            return;
          }
          std::vector<std::byte> payload(400, std::byte{0x5a});
          if (f.send(0, data_tx, payload.data(), payload.size()) !=
              Status::ok) {
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
          if (f.open_receive(1, "data", Protocol::fcfs, &data_rx) !=
              Status::ok) {
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
      },
      two_node_model());
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

TEST(NumaChaos, SigkilledForkedRemoteHolderConserved) {
  // Native variant: the child (pid 1, node 1) holds a view of a slab its
  // peer placed on node 1, and is SIGKILLed.  After the reap, per-node
  // slab pools must be whole again through the parent's mapping.
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  c.block_payload = 10;
  c.message_blocks = 4096;
  c.suspicion_ns = 20'000'000;
  c.per_process_cache = false;
  c.slab_threshold = 64;
  c.numa_nodes = 2;
  shm::AnonSharedRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  LnvcId data_tx = kInvalidLnvc, ack_rx = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "data", &data_tx), Status::ok);
  ASSERT_EQ(f.open_receive(0, "ack", Protocol::fcfs, &ack_rx), Status::ok);
  std::vector<std::byte> payload(400, std::byte{0xa5});
  ASSERT_EQ(f.send(0, data_tx, payload.data(), payload.size()), Status::ok);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    LnvcId rx = kInvalidLnvc, tx = kInvalidLnvc;
    if (f.open_receive(1, "data", Protocol::fcfs, &rx) != Status::ok) {
      _exit(30);
    }
    if (f.open_send(1, "ack", &tx) != Status::ok) _exit(31);
    MsgView view;
    if (f.receive_view(1, rx, &view) != Status::ok) _exit(32);
    if (!view.slab || view.length != payload.size()) _exit(33);
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

  ASSERT_EQ(f.reap(0, 1), Status::ok);
  const BlockAudit audit = f.block_audit();
  EXPECT_TRUE(audit.consistent());
  EXPECT_GT(audit.slabs_total, 0u);
  EXPECT_EQ(audit.slabs_free, audit.slabs_total);
  std::size_t slabs_across_nodes = 0;
  for (const NodePoolInfo& n : f.node_pool_infos()) {
    EXPECT_EQ(n.free_slabs, n.slab_capacity) << "node " << n.node;
    slabs_across_nodes += n.free_slabs;
  }
  EXPECT_EQ(slabs_across_nodes, audit.slabs_total);
}

TEST(NumaStats, SetProcessNodeOverridesRoundRobin) {
  Config c = two_node_config(/*prefer_receiver=*/true, 0);
  shm::AnonSharedRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  EXPECT_EQ(f.numa_nodes(), 2u);
  EXPECT_TRUE(f.numa_prefer_receiver());
  LnvcId id = kInvalidLnvc;
  ASSERT_EQ(f.open_send(0, "pin", &id), Status::ok);  // register pid 0
  f.set_process_node(0, 1);  // pid 0 defaults to node 0; pin to node 1
  bool found = false;
  for (const OrphanInfo& o : f.orphan_infos()) {
    if (o.pid == 0) {
      EXPECT_EQ(o.node, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
