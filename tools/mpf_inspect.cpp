// mpf_inspect — attach to a running MPF facility in a named POSIX
// shared-memory segment and dump its state: live LNVCs, connections,
// queue depths, pool usage, lifetime counters.
//
//   mpf_inspect /segment-name [--watch seconds]
//
// The inspector is read-mostly: it takes the same per-LNVC locks any
// participant would (so snapshots are consistent) but sends and receives
// nothing.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "mpf/core/facility.hpp"
#include "mpf/core/invariants.hpp"
#include "mpf/shm/region.hpp"

namespace {

void dump(const mpf::Facility& facility) {
  const mpf::FacilityStats stats = facility.stats();
  std::printf("facility: max_lnvcs=%u max_processes=%u block_payload=%u\n",
              facility.max_lnvcs(), facility.max_processes(),
              facility.block_payload());
  std::printf(
      "traffic: %llu sends, %llu receives, %llu B sent, %llu B delivered\n",
      static_cast<unsigned long long>(stats.sends),
      static_cast<unsigned long long>(stats.receives),
      static_cast<unsigned long long>(stats.bytes_sent),
      static_cast<unsigned long long>(stats.bytes_delivered));
  std::printf("pool: %zu/%zu blocks free, arena %zu B used\n",
              stats.blocks_free, stats.blocks_total, stats.arena_used);
  if (stats.slabs_total > 0) {
    std::printf("slabs: %zu/%zu free, %llu slab sends, %llu fallbacks\n",
                stats.slabs_free, stats.slabs_total,
                static_cast<unsigned long long>(stats.slab_sends),
                static_cast<unsigned long long>(stats.slab_fallbacks));
  }
  std::printf("views: %llu taken, %llu B read in place\n",
              static_cast<unsigned long long>(stats.views),
              static_cast<unsigned long long>(stats.view_bytes));
  std::printf(
      "allocator: %u shards, %zu blocks in magazines, "
      "%llu hits / %llu misses / %llu raids, %llu exhaustion waits\n",
      stats.pool_shards, stats.blocks_cached,
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_misses),
      static_cast<unsigned long long>(stats.cache_raids),
      static_cast<unsigned long long>(stats.exhaustion_waits));
  std::printf(
      "recovery: %llu suspicions (%llu false), %llu seizures, %llu reaps "
      "(%llu connections, %llu blocks), %llu peer failures, %llu orphaned "
      "receives\n",
      static_cast<unsigned long long>(stats.suspicions),
      static_cast<unsigned long long>(stats.false_suspicions),
      static_cast<unsigned long long>(stats.seizures),
      static_cast<unsigned long long>(stats.reaps),
      static_cast<unsigned long long>(stats.reaped_connections),
      static_cast<unsigned long long>(stats.reclaimed_blocks),
      static_cast<unsigned long long>(stats.peer_failures),
      static_cast<unsigned long long>(stats.orphaned_receives));

  std::printf("%5s %10s %6s %8s %8s %12s %10s %8s %8s %8s\n", "shard",
              "blk_free", "runs", "max_run", "msg_free", "lock_acq",
              "wait_us", "steals", "refills", "flushes");
  const auto shards = facility.pool_shard_infos();
  for (const auto& s : shards) {
    std::printf(
        "%5u %6zu/%-3zu %6zu %8zu %8zu %12llu %10.1f %8llu %8llu %8llu\n",
        s.index, s.free_blocks, s.block_capacity, s.free_runs,
        s.largest_free_run, s.free_msgs,
        static_cast<unsigned long long>(s.lock_acquisitions),
        static_cast<double>(s.lock_wait_ns) * 1e-3,
        static_cast<unsigned long long>(s.steals),
        static_cast<unsigned long long>(s.refills),
        static_cast<unsigned long long>(s.flushes));
  }
  // Block geometry: links in one array, payload bytes in a parallel one.
  std::printf("%5s %8s %10s  %s\n", "shard", "link_B", "payload_B",
              "payload_array");
  for (const auto& s : shards) {
    std::printf("%5u %8zu %10zu  [%#llx, %#llx)\n", s.index, s.link_stride,
                s.payload_bytes, static_cast<unsigned long long>(s.payload_lo),
                static_cast<unsigned long long>(s.payload_hi));
  }
  const auto caches = facility.proc_cache_infos();
  if (!caches.empty()) {
    std::printf("%5s %9s %5s %10s %10s %8s %8s\n", "pid", "magazine", "msgs",
                "hits", "misses", "flushes", "raided");
    for (const auto& c : caches) {
      std::printf("%5u %5u/%-3u %5u %10llu %10llu %8llu %8llu\n", c.pid,
                  c.blocks, c.block_cap, c.msgs,
                  static_cast<unsigned long long>(c.hits),
                  static_cast<unsigned long long>(c.misses),
                  static_cast<unsigned long long>(c.flushes),
                  static_cast<unsigned long long>(c.raids));
    }
  }

  const auto infos = facility.lnvc_infos();
  if (infos.empty()) {
    std::printf("no live LNVCs\n");
    return;
  }
  std::printf("%4s  %-24s %7s %5s %6s %7s %7s %10s %12s\n", "id", "name",
              "senders", "fcfs", "bcast", "queued", "pinned", "msgs",
              "bytes");
  for (const auto& info : infos) {
    std::printf("%4d  %-24s %7u %5u %6u %7u %7u %10llu %12llu\n", info.id,
                info.name.c_str(), info.senders, info.fcfs_receivers,
                info.broadcast_receivers, info.queued, info.pinned,
                static_cast<unsigned long long>(info.total_messages),
                static_cast<unsigned long long>(info.total_bytes));
  }
}

const char* slot_state_name(std::uint32_t st) {
  switch (st) {
    case mpf::detail::ProcSlot::kFree: return "free";
    case mpf::detail::ProcSlot::kLive: return "live";
    case mpf::detail::ProcSlot::kDead: return "dead";
    case mpf::detail::ProcSlot::kReaped: return "reaped";
    default: return "?";
  }
}

void dump_nodes(const mpf::Facility& facility) {
  const mpf::FacilityStats stats = facility.stats();
  std::printf("numa: %u node%s, prefer_receiver placement %s\n",
              stats.numa_nodes, stats.numa_nodes == 1 ? "" : "s",
              facility.numa_prefer_receiver() ? "on" : "off");
  std::printf("%5s %6s %12s %12s %12s %10s %10s %8s\n", "node", "shards",
              "blk_free", "slab_free", "local_pops", "remote_pops", "steals",
              "procs");
  for (const auto& n : facility.node_pool_infos()) {
    // Count the live processes homed on this node alongside its pools.
    std::uint32_t procs = 0;
    for (const auto& o : facility.orphan_infos()) {
      if (o.state == mpf::detail::ProcSlot::kLive && o.node == n.node) {
        ++procs;
      }
    }
    std::printf("%5u %6u %6zu/%-5zu %6zu/%-5zu %12llu %10llu %10llu %8u\n",
                n.node, n.shards, n.free_blocks, n.block_capacity,
                n.free_slabs, n.slab_capacity,
                static_cast<unsigned long long>(n.local_pops),
                static_cast<unsigned long long>(n.remote_pops),
                static_cast<unsigned long long>(n.steals), procs);
  }
}

void dump_orphans(const mpf::Facility& facility) {
  const auto orphans = facility.orphan_infos();
  if (orphans.empty()) {
    std::printf("no registered processes\n");
    return;
  }
  std::printf("%5s %8s %7s %9s %6s %9s %8s %6s\n", "pid", "os_pid", "state",
              "os_alive", "conns", "magazine", "journal", "views");
  for (const auto& o : orphans) {
    std::printf("%5u %8u %7s %9s %6u %9u %8u %6u\n", o.pid, o.os_pid,
                slot_state_name(o.state), o.os_alive ? "yes" : "NO",
                o.connections, o.magazine_blocks, o.journal_op, o.views);
  }
}

const char* policy_name(mpf::AdmissionPolicy p) {
  switch (p) {
    case mpf::AdmissionPolicy::block: return "block";
    case mpf::AdmissionPolicy::shed_newest: return "shed";
    case mpf::AdmissionPolicy::fail_fast: return "fail";
  }
  return "?";
}

void dump_quotas(const mpf::Facility& facility) {
  const mpf::FacilityStats stats = facility.stats();
  std::printf(
      "admission: %llu rejected, %llu shed, %llu send timeouts, "
      "%llu parks\n",
      static_cast<unsigned long long>(stats.sends_rejected),
      static_cast<unsigned long long>(stats.sends_shed),
      static_cast<unsigned long long>(stats.sends_timed_out),
      static_cast<unsigned long long>(stats.quota_parks));
  const auto infos = facility.lnvc_infos();
  if (infos.empty()) {
    std::printf("no live LNVCs\n");
    return;
  }
  std::printf("%4s  %-24s %6s %11s %11s %11s %11s %6s\n", "id", "name",
              "policy", "quota_blk", "used_blk", "quota_slab", "used_slab",
              "parked");
  for (const auto& info : infos) {
    char qb[32];
    char qs[32];
    const bool unlimited = info.quota_blocks == 0 && info.quota_slabs == 0;
    if (unlimited) {
      std::snprintf(qb, sizeof qb, "-");
      std::snprintf(qs, sizeof qs, "-");
    } else {
      std::snprintf(qb, sizeof qb, "%u", info.quota_blocks);
      std::snprintf(qs, sizeof qs, "%u", info.quota_slabs);
    }
    // used column shows lifetime high-water alongside the instantaneous
    // value so a drained circuit still tells its overload story.
    char ub[32];
    char us[32];
    std::snprintf(ub, sizeof ub, "%u(hw %u)", info.used_blocks,
                  info.hw_blocks);
    std::snprintf(us, sizeof us, "%u(hw %u)", info.used_slabs,
                  info.hw_slabs);
    std::printf("%4d  %-24s %6s %11s %11s %11s %11s %6u\n", info.id,
                info.name.c_str(),
                unlimited ? "-" : policy_name(info.policy), qb, ub, qs, us,
                info.parked);
  }
}

void dump_parked(const mpf::Facility& facility) {
  const mpf::FacilityStats stats = facility.stats();
  std::printf(
      "parking: backend=%s, %llu parks, %llu wakes, %llu spurious, "
      "%llu lock-free fast sends, %llu multi-wait revalidations\n",
      mpf::sync::Parker::has_futex() ? "futex" : "fallback",
      static_cast<unsigned long long>(stats.parks),
      static_cast<unsigned long long>(stats.wakes),
      static_cast<unsigned long long>(stats.spurious_wakes),
      static_cast<unsigned long long>(stats.lockfree_fast_sends),
      static_cast<unsigned long long>(stats.any_rescans));
  const auto parked = facility.parked_infos();
  if (parked.empty()) {
    std::printf("no parked processes\n");
    return;
  }
  std::printf("%5s %4s %9s %10s %11s %6s\n", "pid", "lnvc", "role", "ticket",
              "node_epoch", "alive");
  for (const auto& p : parked) {
    std::printf("%5u %4d %9s %10llu %11u %6s\n", p.pid, p.id,
                p.receiver ? "receiver" : "sender",
                static_cast<unsigned long long>(p.ticket), p.node_epoch,
                p.alive ? "yes" : "NO");
  }
  // Per-circuit parked counts round out the picture.
  for (const auto& info : facility.lnvc_infos()) {
    if (info.parked == 0 && info.parked_receivers == 0) continue;
    std::printf("lnvc %d (%s): %u parked senders, %u parked receivers\n",
                info.id, info.name.c_str(), info.parked,
                info.parked_receivers);
  }
}

void dump_names(const mpf::Facility& facility) {
  const mpf::FacilityStats stats = facility.stats();
  const mpf::DirectoryInfo dir = facility.directory_info();
  std::printf(
      "directory: %u buckets, %u live names, %u free slots, max chain %u\n",
      dir.buckets, dir.live_names, dir.free_slots, dir.max_chain);
  std::printf(
      "lookups: %llu probes, %llu collision hops, %llu bucket-lock "
      "seizures\n",
      static_cast<unsigned long long>(stats.dir_lookups),
      static_cast<unsigned long long>(stats.dir_collisions),
      static_cast<unsigned long long>(dir.lock_seizures));
  std::printf(
      "pollsets/pulses: %llu pollset wakes, %llu pulses sent, "
      "%llu coalesced\n",
      static_cast<unsigned long long>(stats.pollset_wakes),
      static_cast<unsigned long long>(stats.pulses_sent),
      static_cast<unsigned long long>(stats.pulses_coalesced));
  std::printf("%9s %8s\n", "chain_len", "buckets");
  for (std::size_t n = 0; n < dir.chain_histogram.size(); ++n) {
    if (dir.chain_histogram[n] == 0) continue;
    char label[16];
    if (n + 1 == dir.chain_histogram.size()) {
      std::snprintf(label, sizeof label, ">=%zu", n);
    } else {
      std::snprintf(label, sizeof label, "%zu", n);
    }
    std::printf("%9s %8u\n", label, dir.chain_histogram[n]);
  }
  if (!dir.seized_buckets.empty()) {
    std::printf("%7s %9s\n", "bucket", "seizures");
    for (const auto& [bucket, count] : dir.seized_buckets) {
      std::printf("%7u %9llu\n", bucket,
                  static_cast<unsigned long long>(count));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s /shm-segment-name [--watch seconds] [--orphans] "
                 "[--nodes] [--quotas] [--reap pid]\n"
                 "Inspect a live MPF facility in a POSIX shared-memory "
                 "segment.\n"
                 "  --orphans    report per-process liveness and orphaned "
                 "state\n"
                 "  --nodes      report per-NUMA-node pool occupancy and "
                 "placement counters\n"
                 "  --quotas     report per-LNVC admission quotas, ledger "
                 "occupancy and parked senders\n"
                 "  --parked     report parked processes (quota senders + "
                 "lock-free FCFS receivers) and wait-node state\n"
                 "  --names      report name-directory bucket occupancy, "
                 "chain histogram and pollset/pulse counters\n"
                 "  --reap pid   run the recovery sweep for a dead "
                 "participant\n"
                 "  --check      run the invariant oracle (live-arena "
                 "strictness) and exit non-zero on any violation\n",
                 argv[0]);
    return 2;
  }
  double watch = 0;
  bool orphans = false;
  bool nodes = false;
  bool quotas = false;
  bool parked = false;
  bool names = false;
  bool check = false;
  int reap_pid = -1;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--watch") == 0 && i + 1 < argc) {
      watch = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--orphans") == 0) {
      orphans = true;
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      nodes = true;
    } else if (std::strcmp(argv[i], "--quotas") == 0) {
      quotas = true;
    } else if (std::strcmp(argv[i], "--parked") == 0) {
      parked = true;
    } else if (std::strcmp(argv[i], "--names") == 0) {
      names = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--reap") == 0 && i + 1 < argc) {
      reap_pid = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "mpf_inspect: unknown option %s\n", argv[i]);
      return 2;
    }
  }
  try {
    auto region = mpf::shm::PosixShmRegion::attach(argv[1]);
    mpf::Facility facility = mpf::Facility::attach(*region);
    if (reap_pid >= 0) {
      // The inspector acts as the highest process slot so its lock tags
      // never collide with a real participant's.
      const mpf::ProcessId reaper = facility.max_processes() - 1;
      const mpf::Status s =
          facility.reap(reaper, static_cast<mpf::ProcessId>(reap_pid));
      if (s != mpf::Status::ok) {
        std::fprintf(stderr, "mpf_inspect: reap %d: %s\n", reap_pid,
                     mpf::to_string(s));
        return 1;
      }
      std::printf("reaped process %d\n", reap_pid);
    }
    if (check) {
      // Live-arena strictness: the facility keeps running, so only the
      // always-true invariants are asserted (see invariants.hpp).
      const mpf::InvariantReport report =
          mpf::InvariantOracle::check(facility, /*quiescent=*/false);
      std::printf("checked %zu circuits, %zu messages\n",
                  report.circuits_checked, report.messages_checked);
      if (!report.ok()) {
        std::fputs(report.summary().c_str(), stdout);
        return 1;
      }
      std::printf("all invariants hold\n");
      return 0;
    }
    for (;;) {
      if (orphans) {
        dump_orphans(facility);
      } else if (nodes) {
        dump_nodes(facility);
      } else if (quotas) {
        dump_quotas(facility);
      } else if (parked) {
        dump_parked(facility);
      } else if (names) {
        dump_names(facility);
      } else {
        dump(facility);
      }
      if (watch <= 0) break;
      std::printf("---\n");
      std::fflush(stdout);
      ::usleep(static_cast<useconds_t>(watch * 1e6));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpf_inspect: %s\n", e.what());
    return 1;
  }
  return 0;
}
