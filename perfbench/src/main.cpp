// mpfbench: native end-to-end benchmark of MPF on this host's cores.
//
//   mpfbench --workload <pingpong|funnel|fanin|gauss_jordan> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-out <file>] [--corrupt]
//
// --trace 0 runs Workload::windows() fresh set-ups for --seconds / windows
// each on native_platform(), with blocks of set-up-only sessions spread
// between them (their median is setup_s), and prints the end-to-end
// metrics.  --trace 1 runs the workload twice for --seconds / 2 each,
// untraced and then traced (TracingPlatform plus spans around the
// benchmark's own Facility calls), and prints the per-layer metrics and
// the tracing overhead.  Every run
// checks its outputs; the last stdout line is one JSON object
// {correct, attempted, failed, metrics}.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "mpf/runtime/group.hpp"
#include "mpf/shm/region.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-ups per untraced run: kSetupBlocks blocks of kSetupsPerBlock back to
/// back, spread evenly over the windows, so that setup_s, the median of all
/// but the first kSetupWarmups of each block, samples the host's state
/// across the whole run rather than in one burst at its start.
constexpr int kSetupBlocks = 6;
constexpr int kSetupsPerBlock = 8;
constexpr int kSetupWarmups = 2;
/// Then Workload::windows() fresh set-ups each run one timed window of
/// --seconds / windows, window k with rank r on CPU (r + k) mod nproc, so
/// every run covers the same placements and averages over many arenas and
/// thread sets.  A window settles into a fast or a slow mode (see
/// README.md), so per-window figures are combined by the interquartile
/// mean: smooth across the modes, where a median would jump between them,
/// and deaf to the stalled windows a noisy host adds.  For the same reason the gated
/// latency is the mean, not the median, which the report also prints.
///
/// Warm-up before each window opens (capped at half the window).
constexpr double kWarmSeconds = 0.1;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One finished session: its set-up cost and everything measured after.
struct Outcome {
  std::unique_ptr<mpf::shm::HeapRegion> region;  // backs s->fac
  std::unique_ptr<Session> s;
  double setup_s = 0;
  double launch_ms = 0;
  double rss_before_mb = 0;  // process resident set before the region
  mpf::FacilityStats setup_stats;  // counters when set-up ended
};

/// One rank per core: rank r runs on CPU (r + first) mod nproc, so the
/// scheduler never migrates or stacks ranks.  Runs rotate `first` so each
/// one covers the same mix of core pairs.
void pin_to_cpu(int rank, int first) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET((rank + first) % mpf::rt::online_cpus(), &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
}

Outcome run_session(Workload& w, const Options& opt, bool body,
                    double seconds, Tracer* tracer, mpf::Platform* platform,
                    int first_cpu) {
  Outcome o;
  o.s = std::make_unique<Session>(opt, w.threads(), body, tracer);
  Session& s = *o.s;
  const mpf::Config cfg = w.config();

  o.rss_before_mb = rss_mb();
  const std::uint64_t t0 = now_ns();
  o.region = std::make_unique<mpf::shm::HeapRegion>(cfg.derived_arena_bytes());
  s.fac = platform != nullptr
              ? mpf::Facility::create(cfg, *o.region, *platform)
              : mpf::Facility::create(cfg, *o.region);
  const std::uint64_t t_launch = now_ns();
  std::exception_ptr error;
  std::thread group([&] {
    try {
      mpf::rt::run_group(mpf::rt::Backend::thread, s.threads, [&](int rank) {
        s.started_ns[static_cast<std::size_t>(rank)] = now_ns();
        if (tracer != nullptr) tracer->attach(rank);
        w.open(rank, s);
        s.arrived.fetch_add(1, std::memory_order_acq_rel);  // startup barrier
        s.arrived.notify_all();
        if (s.run_body) {
          pin_to_cpu(rank, first_cpu);
          while (!s.go.load(std::memory_order_acquire)) {
            mpf::sync::cpu_relax();
          }
          w.run(rank, s);
        }
        Tracer::detach();
      });
    } catch (...) {
      error = std::current_exception();
    }
  });
  for (int a = 0; (a = s.arrived.load(std::memory_order_acquire)) <
                  s.threads;) {
    s.arrived.wait(a);
  }
  const std::uint64_t t_ready = now_ns();
  o.setup_s = static_cast<double>(t_ready - t0) * 1e-9;
  o.launch_ms =
      static_cast<double>(*std::max_element(s.started_ns.begin(),
                                            s.started_ns.end()) -
                          t_launch) *
      1e-6;
  o.setup_stats = s.fac.stats();
  if (body) {
    const double warm = std::min(kWarmSeconds, seconds / 2);
    s.warm_end_ns = t_ready + static_cast<std::uint64_t>(warm * 1e9);
    s.end_ns = s.warm_end_ns + static_cast<std::uint64_t>(seconds * 1e9);
    s.go.store(true, std::memory_order_release);
  }
  group.join();
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      s.fail(std::string("worker threw: ") + e.what());
    }
  }
  if (body) {
    w.finish(s);
    if (!s.fac.block_audit().consistent()) {
      s.fail("block audit inconsistent at quiescence");
    }
  }
  return o;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Totals {
  std::uint64_t msgs = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t samples = 0;
  double mean_us = 0;
  double p50_us = 0;
  double tail_us = 0;  // at the workload's tail quantile
};

Totals totals(const Session& s, double tail_q) {
  Totals t;
  std::vector<const Reservoir*> lat;
  for (const auto& r : s.tally) {
    t.msgs += r->msgs;
    t.attempted += r->attempted;
    t.failed += r->failed;
    lat.push_back(&r->lat);
  }
  t.samples = seen(lat);
  std::uint64_t sum = 0;
  for (const Reservoir* r : lat) sum += r->sum();
  t.mean_us = ratio(static_cast<double>(sum), static_cast<double>(t.samples)) *
              1e-3;
  t.p50_us = quantile(lat, 0.50) * 1e-3;
  t.tail_us = quantile(lat, tail_q) * 1e-3;
  return t;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Mean of `v` without its `trim` smallest and `trim` largest values.
double trimmed_mean(std::vector<double> v, std::size_t trim) {
  std::sort(v.begin(), v.end());
  double sum = 0;
  for (std::size_t i = trim; i + trim < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * trim);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_header(const Options& opt, const Workload& w) {
  utsname u{};
  ::uname(&u);
  std::printf("# host: cpu=\"%s\" nproc=%d kernel=%s\n", cpu_model().c_str(),
              mpf::rt::online_cpus(), u.release);
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d threads=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, w.threads());
  const mpf::Config c = w.config().resolved();
  std::printf(
      "# config: max_lnvcs=%u max_processes=%u block_payload=%u "
      "message_blocks=%zu message_headers=%zu connections=%zu "
      "pool_shards=%u per_process_cache=%d cache_blocks=%zu "
      "block_policy=%s slab_threshold=%zu numa_nodes=%u "
      "lnvc_quota_blocks=%u dir_buckets=%u lockfree_fcfs=%d "
      "park_spin_ns=%llu suspicion_ns=%llu arena_bytes=%zu\n",
      c.max_lnvcs, c.max_processes, c.block_payload, c.message_blocks,
      c.message_headers, c.connections, c.pool_shards,
      c.per_process_cache ? 1 : 0, c.cache_blocks,
      c.block_policy == mpf::BlockPolicy::wait ? "wait" : "fail",
      c.slab_threshold, c.numa_nodes, c.lnvc_quota_blocks, c.dir_buckets,
      c.lockfree_fcfs ? 1 : 0,
      static_cast<unsigned long long>(c.park_spin_ns),
      static_cast<unsigned long long>(c.suspicion_ns),
      w.config().derived_arena_bytes());
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Correct when nothing failed, the outputs checked out and work was done.
bool verdict(const Session& s, const Totals& t, const char* label) {
  const bool ok = s.ok() && t.failed == 0 && t.msgs > 0;
  if (!ok) {
    std::printf("# %s: INCORRECT: %s\n", label,
                s.ok() ? (t.failed != 0 ? "operations failed"
                                        : "no messages delivered")
                       : s.why().c_str());
  }
  return ok;
}

int run_untraced(const Options& opt) {
  std::vector<double> setups;
  std::vector<double> means;
  std::vector<double> tails;
  std::vector<double> session_rss;
  std::uint64_t fewest = ~std::uint64_t{0};  // samples in the thinnest window
  std::vector<double> rates;
  std::vector<double> cpu_per_msg;
  std::vector<std::unique_ptr<RankTally>> tallies;  // every window's ranks
  bool ok = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t msgs = 0;
  const auto set_up_block = [&] {
    for (int i = 0; i < kSetupsPerBlock; ++i) {
      auto w = make_workload(opt);
      const double v =
          run_session(*w, opt, false, 0, nullptr, nullptr, 0).setup_s;
      if (i >= kSetupWarmups) setups.push_back(v);
    }
  };
  const auto probe = make_workload(opt);
  const int windows = probe->windows();
  const double want_q = probe->tail_quantile();
  for (int window = 0, block = 0; window < windows; ++window) {
    if (block < kSetupBlocks && block * windows / kSetupBlocks == window) {
      set_up_block();
      ++block;
    }
    auto w = make_workload(opt);
    Outcome o = run_session(*w, opt, true, opt.seconds / windows, nullptr,
                            nullptr, window);
    const Session& s = *o.s;
    const Totals t = totals(s, want_q);
    const double secs = s.window.seconds();
    means.push_back(t.mean_us);
    tails.push_back(t.tail_us);
    session_rss.push_back(s.window.end.rss_mb - o.rss_before_mb);
    fewest = std::min(fewest, t.samples);
    rates.push_back(ratio(static_cast<double>(t.msgs), secs));
    cpu_per_msg.push_back(
        ratio(s.window.cpu_seconds() * 1e6, static_cast<double>(t.msgs)));
    std::printf("# window %d (ranks from cpu %d): set-up %.3f ms, %.3f s, "
                "%llu messages, %.6g msgs/s, p50 %.6g us, p%g %.6g us, "
                "rss +%.3f MiB",
                window, window % mpf::rt::online_cpus(), o.setup_s * 1e3, secs,
                static_cast<unsigned long long>(t.msgs), rates.back(),
                t.p50_us, want_q * 100, t.tail_us, session_rss.back());
    for (const Extra& e : w->extras(s)) {
      std::printf(", %s %.6g", e.name.c_str(), e.value);
    }
    std::printf("\n");
    ok = verdict(s, t, opt.workload.c_str()) && ok;
    attempted += t.attempted;
    failed += t.failed;
    msgs += t.msgs;
    for (auto& r : o.s->tally) tallies.push_back(std::move(r));
  }
  std::vector<const Reservoir*> lat;
  for (const auto& r : tallies) lat.push_back(&r->lat);
  const std::size_t trim = means.size() / 4;
  const double mean_us = trimmed_mean(means, trim);
  const double p50_us = quantile(lat, 0.5) * 1e-3;
  // The tail is each window's tail quantile, combined like the means.
  // Windows too thin for it (gauss_jordan's few solves) pool their samples
  // and take the highest percentile that still has ten samples beyond it.
  const auto n = static_cast<double>(seen(lat));
  const bool per_window = fewest >= 1000;
  const double tail_q =
      per_window ? want_q : std::max(0.5, std::min(want_q, 1 - 10 / n));
  const double tail_us = per_window ? trimmed_mean(tails, trim)
                                    : quantile(lat, tail_q) * 1e-3;
  const std::vector<Metric> ms = {
      {"setup_s", median(setups), "s"},
      {"lat_mean_us", mean_us, "us"},
      {"lat_tail_us", tail_us, "us"},
      {"msgs_per_s", trimmed_mean(rates, trim), "1/s"},
      {"cpu_us_per_msg", trimmed_mean(cpu_per_msg, trim), "us"},
      {"session_rss_mb", median(session_rss), "MiB"},
  };
  std::printf("# %llu messages, %llu latency samples; pooled latency us:",
              static_cast<unsigned long long>(msgs),
              static_cast<unsigned long long>(seen(lat)));
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    std::printf(" p%g=%.6g", q * 100, quantile(lat, q) * 1e-3);
  }
  std::printf("\n# lat_tail_us is p%.6g%s\n"
              "# peak_rss_mb: %.6g MiB (whole process, whole run)\n"
              "# error_rate: %.9g (%llu failed / %llu attempted)\n",
              tail_q * 100, per_window ? " per window" : " of all windows",
              peak_rss_mb(),
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("# set-ups ms:");
  for (const double v : setups) std::printf(" %.3f", v * 1e3);
  std::printf("\n");
  print_metrics(ms);
  // The same figures under the names the workload descriptions use.
  if (opt.workload == "gauss_jordan") {
    std::printf("# solve_s = %.9g s (median %.9g s)\n", mean_us * 1e-6,
                p50_us * 1e-6);
  } else if (opt.workload != "funnel") {
    std::printf("# rtt_p50_us = %.9g us, rtt_p99_us = %.9g us\n", p50_us,
                tail_us);
  } else {
    std::printf("# lat_p50_us = %.9g us, lat_p90_us = %.9g us\n", p50_us,
                tail_us);
  }
  print_json(ok, attempted, failed, ms);
  return 0;
}

int run_traced(const Options& opt) {
  const double half = opt.seconds / 2;
  auto wu = make_workload(opt);
  const Outcome u = run_session(*wu, opt, true, half, nullptr, nullptr, 0);
  auto wt = make_workload(opt);
  Tracer tr;
  TracingPlatform platform(tr);
  const Outcome o = run_session(*wt, opt, true, half, &tr, &platform, 0);
  const Session& s = *o.s;
  const Totals tu = totals(*u.s, wu->tail_quantile());
  const Totals t = totals(s, wt->tail_quantile());
  const Window& w = s.window;
  const double msgs = static_cast<double>(t.msgs);
  const double rate_u =
      ratio(static_cast<double>(tu.msgs), u.s->window.seconds());
  const double rate_t = ratio(msgs, w.seconds());
  const auto q = [&](Span sp, int slot, double p, bool self) {
    return tr.quantile_ns(sp, slot, p, self);
  };
  const auto per_msg = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), msgs);
  };
  using S = mpf::FacilityStats;
  const double hits = w.delta(&S::cache_hits);
  const double sync_ns =
      static_cast<double>(tr.total_ns(Span::lock, kSlotWindow) +
                          tr.total_ns(Span::wait, kSlotWindow) +
                          tr.total_ns(Span::park, kSlotWindow));
  const double sync_share =
      ratio(sync_ns, static_cast<double>(s.threads) * w.seconds() * 1e9);
  const bool gj = opt.workload == "gauss_jordan";
  const double solves = static_cast<double>(s.tally[0]->lat.seen());
  const std::vector<Metric> ms = {
      {"runtime.launch_ms", o.launch_ms, "ms"},
      {"core.open.us_p50", q(Span::open, kSlotOther, 0.5, false) * 1e-3, "us"},
      {"core.dir.collisions_per_lookup",
       ratio(static_cast<double>(o.setup_stats.dir_collisions),
             static_cast<double>(o.setup_stats.dir_lookups)),
       "ratio"},
      {"core.send.ns_p50", q(Span::send, kSlotWindow, 0.5, false), "ns"},
      {"core.send.ns_p99", q(Span::send, kSlotWindow, 0.99, false), "ns"},
      {"core.send.self_ns_p50", q(Span::send, kSlotWindow, 0.5, true), "ns"},
      {"core.recv.ns_p50", q(Span::recv, kSlotWindow, 0.5, false), "ns"},
      {"core.recv.ns_p99", q(Span::recv, kSlotWindow, 0.99, false), "ns"},
      {"core.recv.self_ns_p50", q(Span::recv, kSlotWindow, 0.5, true), "ns"},
      {"core.any.ns_p50", q(Span::any, kSlotWindow, 0.5, false), "ns"},
      {"core.any.ns_p99", q(Span::any, kSlotWindow, 0.99, false), "ns"},
      {"core.any.rescans_per_call",
       ratio(w.delta(&S::any_rescans),
             static_cast<double>(tr.calls(Span::any, kSlotWindow))),
       "ratio"},
      {"core.queue.depth_p50", quantile(s.depth, 0.5), "msgs"},
      {"core.queue.depth_max", static_cast<double>(s.depth_max), "msgs"},
      {"core.fast_send_ratio",
       ratio(w.delta(&S::lockfree_fast_sends), w.delta(&S::sends)), "ratio"},
      {"pool.cache_hit_ratio", ratio(hits, hits + w.delta(&S::cache_misses)),
       "ratio"},
      {"pool.exhaustion_waits_per_msg",
       ratio(w.delta(&S::exhaustion_waits), msgs), "1/msg"},
      {"pool.shard_wait_ns_per_msg",
       ratio(w.delta(&S::shard_lock_wait_ns), msgs), "ns/msg"},
      {"pool.steals_per_msg", ratio(w.delta(&S::shard_steals), msgs), "1/msg"},
      {"pool.blocks_per_msg",
       ratio(static_cast<double>(tr.counted(Count::copy_blocks, kSlotWindow)),
             static_cast<double>(tr.counted(Count::copy_calls, kSlotWindow))),
       "blocks"},
      {"pool.copy_bytes_per_msg",
       per_msg(tr.counted(Count::copy_bytes, kSlotWindow)),
       "B/msg"},
      {"sync.lock.calls_per_msg",
       per_msg(tr.calls(Span::lock, kSlotWindow)), "1/msg"},
      {"sync.lock.wait_ns_per_msg",
       per_msg(tr.total_ns(Span::lock, kSlotWindow)),
       "ns/msg"},
      {"sync.wait.calls_per_msg",
       per_msg(tr.calls(Span::wait, kSlotWindow)), "1/msg"},
      {"sync.wait.ns_p50", q(Span::wait, kSlotWindow, 0.5, false), "ns"},
      {"sync.wait.ns_p99", q(Span::wait, kSlotWindow, 0.99, false), "ns"},
      {"sync.park.calls_per_msg",
       per_msg(tr.calls(Span::park, kSlotWindow)), "1/msg"},
      {"sync.unpark.calls_per_msg",
       per_msg(tr.counted(Count::unpark, kSlotWindow)),
       "1/msg"},
      {"sync.spurious_wake_ratio",
       ratio(w.delta(&S::spurious_wakes), w.delta(&S::parks)), "ratio"},
      {"sync.notify.calls_per_msg",
       per_msg(tr.counted(Count::notify, kSlotWindow)),
       "1/msg"},
      {"apps.gj.sync_share", gj ? sync_share : 0, "ratio"},
      {"apps.gj.msgs_per_solve",
       gj ? ratio(w.delta(&S::receives), solves) : 0, "msgs"},
      {"trace.overhead.msgs_per_s_pct", (ratio(rate_u, rate_t) - 1) * 100,
       "%"},
      {"trace.overhead.lat_p50_pct", (ratio(t.p50_us, tu.p50_us) - 1) * 100,
       "%"},
  };
  std::printf("# untraced: %.6g msgs/s, p50 %.6g us; traced: %.6g msgs/s, "
              "p50 %.6g us\n",
              rate_u, tu.p50_us, rate_t, t.p50_us);
  print_metrics(ms);
  if (!opt.trace_out.empty()) tr.write_json(opt.trace_out);
  const bool ok = verdict(*u.s, tu, "untraced") && verdict(s, t, "traced");
  print_json(ok, tu.attempted + t.attempted, tu.failed + t.failed, ms);
  return 0;
}

/// Ends the process if a run wedges, so a hang fails within the time limit.
class Watchdog {
 public:
  explicit Watchdog(double limit_s)
      : thread_([this, limit_s] {
          std::unique_lock<std::mutex> lk(mu_);
          if (!cv_.wait_for(lk, std::chrono::duration<double>(limit_s),
                            [this] { return done_; })) {
            std::fprintf(stderr, "mpfbench: no result after %.0f s\n",
                         limit_s);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

int usage(const char* why) {
  std::fprintf(stderr,
               "mpfbench: %s\nusage: mpfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--corrupt]\nworkloads:",
               why);
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--corrupt") {
      opt.corrupt = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!(opt.seconds > 0) || opt.seconds > 120) {
    return usage("--seconds must be in (0, 120]");
  }
  // Pin glibc's mmap threshold at its initial 128 KiB.  Left dynamic, it
  // rises as sessions free their arenas, later arenas then come from a
  // retained heap, and set-up cost and peak RSS drift with the session
  // count.  Pinned, every arena is a fresh mmap returned on release:
  // every set-up faults in new pages as a process's first facility does.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const auto probe = make_workload(opt);
  if (!probe) return usage("unknown workload");
  print_header(opt, *probe);
  std::fflush(stdout);
  const Watchdog watchdog(std::min(170.0, 3 * opt.seconds + 60));
  try {
    return opt.trace ? run_traced(opt) : run_untraced(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpfbench: %s\n", e.what());
    return 1;
  }
}
