// Measurement primitives shared by the workloads and the tracer: a
// monotonic clock, a fixed-memory latency sample, and the counters one
// timed window captures at its edges.
#pragma once

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "mpf/core/facility.hpp"
#include "mpf/runtime/rng.hpp"
#include "mpf/sync/backoff.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64 finaliser: payload contents and orders derive from the seed
/// through this, so the library only ever sees generated bytes.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t a,
                                       std::uint64_t b) noexcept {
  return mpf::rt::SplitMix64(a * 0x9e3779b97f4a7c15ull ^ b).next();
}

/// Barrier whose waiters only spin (cpu_relax, never yield or sleep), so
/// every participant leaves it awake and at once.  A waiter that napped in
/// a sleeping barrier starts the next phase late, and a partner blocked on
/// it then falls into the library's own nap ladder (see README.md).
class HotBarrier {
 public:
  explicit HotBarrier(std::uint32_t n) noexcept : n_(n), left_(n) {}
  void arrive_and_wait() noexcept {
    const std::uint32_t sense = sense_.load(std::memory_order_acquire);
    if (left_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      left_.store(n_, std::memory_order_relaxed);
      sense_.store(sense ^ 1u, std::memory_order_release);
      return;
    }
    while (sense_.load(std::memory_order_acquire) == sense) {
      mpf::sync::cpu_relax();
    }
  }

 private:
  const std::uint32_t n_;
  std::atomic<std::uint32_t> left_;
  std::atomic<std::uint32_t> sense_{0};
};

/// Uniform sample of a stream of durations (Vitter's algorithm R) in a
/// buffer allocated and touched up front, so memory use does not grow with
/// the number of observations and a faster program never looks bigger.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = std::size_t{1} << 18,
                     std::uint64_t seed = 1)
      : buf_(capacity), rng_(seed) {}

  void add(std::uint64_t ns) noexcept {
    sum_ += ns;
    if (seen_ < buf_.size()) {
      buf_[seen_] = ns;
    } else {
      const std::uint64_t j = rng_.below(seen_ + 1);
      if (j < buf_.size()) buf_[j] = ns;
    }
    ++seen_;
  }
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
  /// Sum of every observation, kept or not.
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::span<const std::uint64_t> kept() const noexcept {
    return {buf_.data(), seen_ < buf_.size() ? seen_ : buf_.size()};
  }

 private:
  std::vector<std::uint64_t> buf_;
  std::uint64_t seen_ = 0;
  std::uint64_t sum_ = 0;
  mpf::rt::SplitMix64 rng_;
};

/// Quantile `q` in [0,1] of the union of several reservoirs, each kept
/// sample weighted by the observations it stands for.  0 when empty.
[[nodiscard]] double quantile(std::span<const Reservoir* const> parts,
                              double q);
[[nodiscard]] inline double quantile(const Reservoir& r, double q) {
  const Reservoir* one[] = {&r};
  return quantile(one, q);
}
/// Observations across several reservoirs.
[[nodiscard]] std::uint64_t seen(std::span<const Reservoir* const> parts);

/// Process CPU time (user + system) in seconds, from getrusage.
[[nodiscard]] double cpu_seconds() noexcept;
/// Peak resident set of the process in MiB.
[[nodiscard]] double peak_rss_mb() noexcept;
/// Current resident set of the process in MiB (/proc/self/statm).
[[nodiscard]] double rss_mb() noexcept;

/// Counters captured at the two edges of the timed window.
struct Edge {
  std::uint64_t t_ns = 0;
  double cpu_s = 0;
  double rss_mb = 0;
  mpf::FacilityStats stats;
};

struct Window {
  Edge begin;
  Edge end;
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(end.t_ns - begin.t_ns) * 1e-9;
  }
  [[nodiscard]] double cpu_seconds() const noexcept {
    return end.cpu_s - begin.cpu_s;
  }
  /// Delta of one FacilityStats counter over the window.
  template <class T>
  [[nodiscard]] double delta(T mpf::FacilityStats::*field) const noexcept {
    return static_cast<double>(end.stats.*field - begin.stats.*field);
  }
};

[[nodiscard]] inline Edge capture(const mpf::Facility& fac) {
  Edge e;
  e.t_ns = now_ns();
  e.cpu_s = cpu_seconds();
  e.rss_mb = rss_mb();
  e.stats = fac.stats();
  return e;
}

}  // namespace perfbench
