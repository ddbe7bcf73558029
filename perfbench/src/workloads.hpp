// The four workloads and the session they run in.
//
// A Session is one facility plus one thread group.  The harness creates
// the facility, launches the workload's threads (rt::run_group, thread
// backend), lets each open its circuits, and lines everyone up on a
// startup barrier; that span is the set-up time.  The harness thread sleeps
// on the barrier; the ranks then spin on the go word, so all of them start
// the workload awake and together.  Rank 0 of every workload
// owns the phase word: it moves warm -> timed -> stop by the clock and
// captures the window's edges, and the other ranks follow it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mpf/core/config.hpp"
#include "mpf/core/facility.hpp"
#include "trace.hpp"

namespace perfbench {

enum Phase : int { kWarm = 0, kTimed = 1, kStop = 2 };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test hook: deliberately corrupt one output so the correctness
  /// check must fail.
  bool corrupt = false;
  std::string trace_out;
};

/// Per-rank tallies; each rank writes only its own.  Aligned to a pair of
/// cache lines so ranks never share one (the adjacent-line prefetcher
/// pairs lines), which would add the harness's own contention to the
/// library's.
struct alignas(128) RankTally {
  explicit RankTally(bool sampled) : lat(sampled ? std::size_t{1} << 14 : 1) {}
  Reservoir lat;               ///< unit-operation latency, timed window
  std::uint64_t msgs = 0;      ///< messages delivered in the timed window
  std::uint64_t attempted = 0; ///< Facility operations issued
  std::uint64_t failed = 0;    ///< ... that returned a non-ok Status
};

class Session {
 public:
  Session(const Options& opt, int threads, bool run_body, Tracer* tracer);

  const Options& opt;
  const int threads;
  /// false: a set-up-only repetition; ranks leave after the startup barrier.
  const bool run_body;
  Tracer* const tracer;  ///< null in the untraced run

  mpf::Facility fac;
  std::atomic<int> phase{kWarm};
  std::uint64_t warm_end_ns = 0;  ///< set before `go`
  std::uint64_t end_ns = 0;
  std::atomic<int> arrived{0};  ///< ranks past the startup barrier
  std::atomic<bool> go{false};  ///< deadlines are set; ranks may start
  Window window;
  std::vector<std::unique_ptr<RankTally>> tally;
  std::vector<std::uint64_t> started_ns;  ///< first instruction per rank
  /// Traced run: queue depth of the sampling rank's circuit.
  Reservoir depth{std::size_t{1} << 14};
  std::uint64_t depth_max = 0;

  /// Rank 0 only: advance the phase by the clock, capturing window edges.
  int advance(std::uint64_t now);
  /// Count one Facility call; a non-ok status is recorded as a failure.
  bool check(int rank, mpf::Status s, const char* what);
  /// Record a wrong output (or failed operation) and why.
  void fail(const std::string& why);
  [[nodiscard]] bool ok() const noexcept {
    return !bad_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string why() const;

 private:
  std::atomic<bool> bad_{false};
  mutable std::mutex why_mu_;
  std::string why_;
};

/// What a workload adds to the report beyond the common metrics.
struct Extra {
  std::string name;
  double value;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual int threads() const = 0;
  /// Timed windows per untraced run.  Each window is a fresh facility, so
  /// more windows average over more arena layouts.
  [[nodiscard]] virtual int windows() const { return 48; }
  /// The latency quantile reported as lat_tail_us.
  [[nodiscard]] virtual double tail_quantile() const { return 0.99; }
  /// The library's default Config with only capacity fields changed.
  [[nodiscard]] virtual mpf::Config config() const = 0;
  /// Before the startup barrier: open this rank's circuits.
  virtual void open(int rank, Session& s) = 0;
  /// After `go`: warm up, run the timed window, drain, stop.
  virtual void run(int rank, Session& s) = 0;
  /// After the threads joined: whole-run output checks.
  virtual void finish(Session& s) { (void)s; }
  /// Workload-specific figures for the report (after finish).
  [[nodiscard]] virtual std::vector<Extra> extras(const Session& s) const {
    (void)s;
    return {};
  }
};

/// Workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();
/// Fresh workload state for one session; null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& opt);

}  // namespace perfbench
