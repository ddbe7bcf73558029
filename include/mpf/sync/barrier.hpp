// Sense-reversing centralized barrier for a fixed set of participants.
//
// Used by the applications (Gauss-Jordan, SOR) and by stress tests to line
// processes up at phase boundaries.  POD layout, zero-init ready, safe in
// process-shared memory.
#pragma once

#include <atomic>
#include <cstdint>

#include "mpf/sync/parker.hpp"

namespace mpf::sync {

/// Reusable barrier for exactly `participants` arrivals per phase.
/// `participants` must be set (via init or constructor) before first use and
/// may not change while any process is inside `arrive_and_wait()`.
class SenseBarrier {
 public:
  SenseBarrier() noexcept = default;
  explicit SenseBarrier(std::uint32_t participants) noexcept {
    init(participants);
  }
  SenseBarrier(const SenseBarrier&) = delete;
  SenseBarrier& operator=(const SenseBarrier&) = delete;

  void init(std::uint32_t participants) noexcept {
    expected_.store(participants, std::memory_order_relaxed);
    remaining_.store(participants, std::memory_order_relaxed);
    sense_.store(0, std::memory_order_release);
  }

  void arrive_and_wait() noexcept {
    const std::uint32_t my_sense = sense_.load(std::memory_order_acquire);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last arrival: reset the count and flip the sense to release all.
      remaining_.store(expected_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      sense_.store(my_sense ^ 1u, std::memory_order_release);
      return;
    }
    // The last arrival writes the sense once, like a Parker's waker.
    spin_poll(
        [&] { return sense_.load(std::memory_order_acquire) != my_sense; },
        steady_now_ns(), kNoParkDeadline);
  }

  [[nodiscard]] std::uint32_t participants() const noexcept {
    return expected_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint32_t> expected_{0};
  std::atomic<std::uint32_t> remaining_{0};
  std::atomic<std::uint32_t> sense_{0};
};

}  // namespace mpf::sync
