// Ablation: sharded hash name directory vs the linear-scan baseline.
//
// The paper's name space is the whole point of open_*: every open() and
// every lnvc_exists() must resolve a string against the live LNVC table.
// The pre-directory implementation scanned the descriptor table; the
// sharded directory (DESIGN.md §14) hashes the name into one of
// Config::dir_buckets chains, so a lookup probes a load-factor-bounded
// chain instead of every live name.  dir_buckets = 1 recreates the
// linear baseline exactly — one chain holding the whole directory — so
// the ablation is a config flip, not a code path switch.
//
// One simulated process opens N distinct names (open throughput: the
// create path pays descriptor work plus the duplicate-check probe of its
// bucket), then resolves kLookups random existing names with
// lnvc_exists() (lookup throughput: a pure directory probe under the
// bucket lock).  Each chain hop charges one bookkeeping op, so the scan
// cost is visible in virtual time.  The hashed series stays roughly flat
// from 1k to 1M names (constant load factor ~4); the linear series
// collapses as O(N) and is swept only to 64k — beyond that a single
// chain is also hopeless in host time, which is rather the point.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "mpf/benchlib/figure.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/sim/sim_platform.hpp"
#include "mpf/sim/simulator.hpp"

namespace {

using namespace mpf;
using namespace mpf::benchlib;

constexpr std::uint32_t kLookups = 5000;

std::string name_of(std::uint32_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "n%07u", i);
  return buf;
}

struct Rates {
  double opens_per_sec = 0;
  double lookups_per_sec = 0;
};

Rates measure(std::uint32_t n_names, bool hashed) {
  Config c;
  c.max_lnvcs = n_names + 8;
  c.max_processes = 2;
  c.block_payload = 16;
  c.message_blocks = 4096;
  c.message_headers = 256;
  // The derived connection pool scales as 8x max_lnvcs for fan-in-heavy
  // workloads; this one holds exactly one send connection per name.
  c.connections = static_cast<std::size_t>(n_names) + 64;
  c.max_pollsets = 1;
  c.dir_buckets = hashed ? 0 : 1;  // 0 = derived ~max_lnvcs/4 buckets
  sim::Simulator simulator{sim::MachineModel::balance21000()};
  sim::SimPlatform platform(simulator);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility facility = Facility::create(c, region, platform);
  Rates rates;
  simulator.spawn_group(1, [&](int) {
    const std::uint64_t t0 = platform.now_ns();
    for (std::uint32_t i = 0; i < n_names; ++i) {
      LnvcId id = kInvalidLnvc;
      const Status s = facility.open_send(0, name_of(i), &id);
      if (s != Status::ok) std::abort();
    }
    const std::uint64_t t1 = platform.now_ns();
    // Deterministic pseudo-random hit lookups over the live directory.
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    std::uint32_t hits = 0;
    for (std::uint32_t i = 0; i < kLookups; ++i) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      hits += facility.lnvc_exists(name_of(
                  static_cast<std::uint32_t>(rng % n_names)))
                  ? 1
                  : 0;
    }
    const std::uint64_t t2 = platform.now_ns();
    if (hits != kLookups) std::abort();
    rates.opens_per_sec =
        static_cast<double>(n_names) / (static_cast<double>(t1 - t0) * 1e-9);
    rates.lookups_per_sec =
        static_cast<double>(kLookups) / (static_cast<double>(t2 - t1) * 1e-9);
  });
  simulator.run();
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  Figure fig;
  fig.id = "Ablation A9";
  fig.title = "Sharded name directory";
  fig.subtitle = "Open and lookup throughput vs live names";
  fig.xlabel = "names";
  fig.ylabel = "ops_per_sec";
  for (const std::uint32_t n : {1024u, 8192u, 65536u, 262144u, 1048576u}) {
    const auto x = static_cast<double>(n);
    const Rates h = measure(n, /*hashed=*/true);
    fig.add("open hashed", x, h.opens_per_sec);
    fig.add("lookup hashed", x, h.lookups_per_sec);
    if (n <= 65536u) {
      const Rates l = measure(n, /*hashed=*/false);
      fig.add("open linear", x, l.opens_per_sec);
      fig.add("lookup linear", x, l.lookups_per_sec);
    }
  }
  return emit_figure(argc, argv, std::cout, fig);
}
