// Ablation: poll sets + pulses vs receive_any for a wide pub/sub server.
//
// One server terminates C request circuits fed by 10 client processes
// (C/10 circuits each) — the "one daemon, thousands of clients" shape.
// Both waits run the same armed-watch protocol (DESIGN.md §14): a send
// fires the watch on the server's connection, marking the circuit in the
// waiter's ready bitmap, and the wait pops and revalidates only marked
// circuits, so a delivery costs O(ready) regardless of C.  What still
// separates the series: receive_any arms its C watches (one locked
// revalidation each, a full receive fixed path) on its first call, inside
// the measurement window, while pollset_add armed them before it; and
// pulses carry the request codes, so that hot path allocates no blocks.
//
// Each client issues requests round-robin over its circuits and waits
// for the server's ack before the next one (a classic RPC daemon), so at
// most 10 circuits are ready at any instant.  The figure sweeps C and
// plots served events per second from the server's measurement window
// (opens and the join barrier excluded).
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "mpf/apps/coordination.hpp"
#include "mpf/benchlib/figure.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/sim/sim_platform.hpp"
#include "mpf/sim/simulator.hpp"

namespace {

using namespace mpf;
using namespace mpf::benchlib;

constexpr int kClients = 10;
constexpr int kEventsPerClient = 60;

std::string circuit_name(std::uint32_t idx) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "c%06u", idx);
  return buf;
}

std::string ack_name(int client) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ack%02d", client);
  return buf;
}

void check(Status s) {
  if (s != Status::ok) std::abort();
}

double events_per_sec(std::uint32_t circuits, bool pulses) {
  const std::uint32_t per = circuits / kClients;
  const int nprocs = kClients + 1;
  Config c;
  c.max_lnvcs = circuits + kClients + 8;
  c.max_processes = static_cast<std::uint32_t>(nprocs);
  c.block_payload = 16;
  c.message_blocks = 4096;
  c.message_headers = 1024;
  // One send + one receive connection per request circuit, plus acks and
  // the join barrier; the derived 8x default would dwarf the arena.
  c.connections = 2 * static_cast<std::size_t>(circuits) + 256;
  c.max_pollsets = 2;

  sim::Simulator simulator{sim::MachineModel::balance21000()};
  sim::SimPlatform platform(simulator);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility facility = Facility::create(c, region, platform);
  double rate = 0;
  simulator.spawn_group(nprocs, [&](int rank) {
    const auto pid = static_cast<ProcessId>(rank);
    if (rank == 0) {
      // --- server: C receive terminals, one ack circuit per client ----
      std::vector<LnvcId> ids(circuits);
      std::unordered_map<LnvcId, int> owner;  // request circuit -> client
      for (std::uint32_t i = 0; i < circuits; ++i) {
        check(facility.open_receive(pid, circuit_name(i), Protocol::fcfs,
                                    &ids[i]));
        owner[ids[i]] = static_cast<int>(i / per);
      }
      std::vector<LnvcId> ack(kClients);
      for (int k = 0; k < kClients; ++k) {
        check(facility.open_send(pid, ack_name(k), &ack[k]));
      }
      PollSetId ps = kInvalidPollSet;
      if (pulses) {
        check(facility.pollset_create(pid, &ps));
        for (const LnvcId id : ids) check(facility.pollset_add(pid, ps, id));
      }
      apps::startup_barrier(facility, pid, nprocs, "pubsub.join");
      const std::uint64_t t0 = platform.now_ns();
      int remaining = kClients * kEventsPerClient;
      const std::byte ok_byte{0x06};
      if (pulses) {
        while (remaining > 0) {
          LnvcId ready = kInvalidLnvc;
          check(facility.pollset_wait(pid, ps, &ready, Facility::kNoTimeout));
          std::uint32_t code = 0;
          std::uint32_t count = 0;
          check(facility.receive_pulse(pid, ready, &code, &count));
          for (std::uint32_t j = 0; j < count; ++j) {
            check(facility.send(pid, ack[static_cast<std::size_t>(
                                    owner[ready])],
                                &ok_byte, 1));
            --remaining;
          }
        }
      } else {
        std::byte buf[8];
        while (remaining > 0) {
          std::size_t len = 0;
          std::size_t idx = 0;
          check(facility.receive_any(pid, ids, buf, sizeof buf, &len, &idx));
          check(facility.send(pid, ack[idx / per], &ok_byte, 1));
          --remaining;
        }
      }
      const std::uint64_t t1 = platform.now_ns();
      rate = static_cast<double>(kClients * kEventsPerClient) /
             (static_cast<double>(t1 - t0) * 1e-9);
    } else {
      // --- client: per request circuits, one ack terminal -------------
      const int k = rank - 1;
      std::vector<LnvcId> req(per);
      for (std::uint32_t i = 0; i < per; ++i) {
        check(facility.open_send(
            pid, circuit_name(static_cast<std::uint32_t>(k) * per + i),
            &req[i]));
      }
      LnvcId ack_id = kInvalidLnvc;
      check(facility.open_receive(pid, ack_name(k), Protocol::fcfs, &ack_id));
      apps::startup_barrier(facility, pid, nprocs, "pubsub.join");
      const std::byte ping{0x01};
      std::byte buf[8];
      for (int e = 0; e < kEventsPerClient; ++e) {
        const LnvcId target = req[static_cast<std::size_t>(e) % per];
        if (pulses) {
          check(facility.send_pulse(pid, target, 0));
        } else {
          check(facility.send(pid, target, &ping, 1));
        }
        std::size_t len = 0;
        check(facility.receive(pid, ack_id, buf, sizeof buf, &len));
      }
    }
  });
  simulator.run();
  return rate;
}

}  // namespace

int main(int argc, char** argv) {
  Figure fig;
  fig.id = "Ablation A10";
  fig.title = "Pub/sub daemon fan-in";
  fig.subtitle = "Served events/sec vs client circuits, 1 server, 10 clients";
  fig.xlabel = "circuits";
  fig.ylabel = "events_per_sec";
  for (const std::uint32_t circuits : {1000u, 4000u, 10000u}) {
    const auto x = static_cast<double>(circuits);
    fig.add("pollset+pulse", x, events_per_sec(circuits, /*pulses=*/true));
    fig.add("receive_any", x, events_per_sec(circuits, /*pulses=*/false));
  }
  return emit_figure(argc, argv, std::cout, fig);
}
