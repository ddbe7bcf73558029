#include "mpf/benchlib/workloads.hpp"

#include <string>
#include <vector>

#include "mpf/apps/coordination.hpp"
#include "mpf/core/ports.hpp"
#include "mpf/runtime/rng.hpp"

namespace mpf::benchlib {

void base_loopback(Facility facility, std::size_t len, int rounds,
                   ProcessId pid) {
  Participant self(facility, pid);
  SendPort tx = self.open_send("base.loop");
  ReceivePort rx = self.open_receive("base.loop", Protocol::fcfs);
  std::vector<std::byte> out(len, std::byte{0x5a});
  std::vector<std::byte> in(len);
  for (int i = 0; i < rounds; ++i) {
    tx.send(out);
    (void)rx.receive(in);
  }
}

void fcfs_sender(Facility facility, std::size_t len, int msgs, int nrecv) {
  Participant self(facility, 0);
  SendPort tx = self.open_send("fcfs.bench");
  apps::startup_barrier(facility, 0, nrecv + 1, "fcfs.join");
  std::vector<std::byte> out(len, std::byte{0x5a});
  for (int i = 0; i < msgs; ++i) tx.send(out);
  for (int r = 0; r < nrecv; ++r) tx.send(std::span<const std::byte>{});
}

void fcfs_receiver(Facility facility, int rank, int nrecv) {
  Participant self(facility, static_cast<ProcessId>(rank));
  ReceivePort rx = self.open_receive("fcfs.bench", Protocol::fcfs);
  apps::startup_barrier(facility, static_cast<ProcessId>(rank), nrecv + 1,
                        "fcfs.join");
  std::vector<std::byte> in(1 << 12);
  for (;;) {
    const Received r = rx.receive(in);
    if (r.length == 0) break;  // poison
  }
}

void broadcast_sender(Facility facility, std::size_t len, int msgs,
                      int nrecv) {
  Participant self(facility, 0);
  SendPort tx = self.open_send("bcast.bench");
  // BROADCAST receivers only see messages sent after they join, so the
  // rendezvous is mandatory here (paper §3.2's lifetime discussion).
  apps::startup_barrier(facility, 0, nrecv + 1, "bcast.join");
  std::vector<std::byte> out(len, std::byte{0x5a});
  for (int i = 0; i < msgs; ++i) tx.send(out);
}

void broadcast_receiver(Facility facility, int rank, int msgs, int nrecv) {
  Participant self(facility, static_cast<ProcessId>(rank));
  ReceivePort rx = self.open_receive("bcast.bench", Protocol::broadcast);
  apps::startup_barrier(facility, static_cast<ProcessId>(rank), nrecv + 1,
                        "bcast.join");
  std::vector<std::byte> in(1 << 12);
  for (int i = 0; i < msgs; ++i) (void)rx.receive(in);
}

void random_worker(Facility facility, int rank, int nprocs, std::size_t len,
                   int msgs, std::uint64_t seed) {
  Participant self(facility, static_cast<ProcessId>(rank));
  ReceivePort own =
      self.open_receive("rand." + std::to_string(rank), Protocol::fcfs);
  std::vector<SendPort> peers;
  peers.reserve(nprocs - 1);
  for (int p = 0; p < nprocs; ++p) {
    if (p == rank) continue;
    peers.push_back(self.open_send("rand." + std::to_string(p)));
  }
  apps::startup_barrier(facility, static_cast<ProcessId>(rank), nprocs,
                        "rand.join");

  rt::SplitMix64 rng(seed * 1000003 + rank);
  std::vector<std::byte> out(len, std::byte{0x5a});
  std::vector<std::byte> in(1 << 12);
  Received got;
  for (int i = 0; i < msgs; ++i) {
    SendPort& dest = peers[rng.below(peers.size())];
    dest.send(out);
    // Drain everything queued for us (paper: "it then receives all
    // messages that are queued in its LNVC").
    while (own.receive_for(in, 0, &got)) {
    }
  }
  // Final drain so most traffic is delivered before teardown; messages
  // that arrive after this are discarded when the LNVC dies — exactly the
  // close semantics of §3.2.
  while (own.receive_for(in, 0, &got)) {
  }
}

void chaos_worker(Facility facility, int rank, int nprocs, std::size_t len,
                  int msgs, std::uint64_t seed) {
  const auto pid = static_cast<ProcessId>(rank);
  LnvcId own = kInvalidLnvc;
  if (facility.open_receive(pid, "chaos." + std::to_string(rank),
                            Protocol::fcfs, &own) != Status::ok) {
    return;
  }
  std::vector<LnvcId> peers;
  std::vector<char> up;  // a failed send writes the peer off
  for (int p = 0; p < nprocs; ++p) {
    if (p == rank) continue;
    LnvcId id = kInvalidLnvc;
    if (facility.open_send(pid, "chaos." + std::to_string(p), &id) ==
        Status::ok) {
      peers.push_back(id);
      up.push_back(1);
    }
  }

  rt::SplitMix64 rng(seed * 1000003 + rank);
  std::vector<std::byte> out(len, std::byte{0x5a});
  std::vector<std::byte> in(1 << 12);
  const auto drain = [&] {
    for (;;) {
      std::size_t got = 0;
      const Status s =
          facility.receive(pid, own, in.data(), in.size(), &got, 0);
      if (s != Status::ok && s != Status::truncated) break;
    }
  };
  for (int i = 0; i < msgs; ++i) {
    if (!peers.empty()) {
      const std::size_t k = rng.below(peers.size());
      if (up[k] != 0) {
        const Status s = facility.send(pid, peers[k], out.data(), len);
        if (s != Status::ok) up[k] = 0;
      }
    }
    drain();
  }
  // Tail: give in-flight traffic a bounded window to arrive, exercising
  // the timed blocking path under failures.
  std::size_t got = 0;
  for (int i = 0; i < 4; ++i) {
    const Status s =
        facility.receive(pid, own, in.data(), in.size(), &got, 2'000'000);
    if (s != Status::ok && s != Status::truncated) break;
  }
  for (const LnvcId id : peers) (void)facility.close_send(pid, id);
  (void)facility.close_receive(pid, own);
}

}  // namespace mpf::benchlib
