// Test-and-test-and-set spinlock with exponential backoff and an owner tag.
//
// This is the moral equivalent of the Balance 21000's atomic-lock cells: a
// word in shared memory that any process mapping the region can acquire.
// The type is a trivially-copyable POD so it can be placed inside the MPF
// shared arena and used across fork()ed processes.
//
// Robustness: the lock word itself records *who* holds the lock (a tag
// derived from the holder's ProcessId) and a second word counts
// acquisitions.  A waiter that observes the same (holder, seq) pair for
// longer than a suspicion threshold can probe the holder's liveness and, if
// the holder is dead, transfer ownership to itself with seize().  The
// encoding keeps the zero-initialised state "unlocked" so locks can still be
// carved out of freshly mapped (zeroed) shared memory.
#pragma once

#include <atomic>
#include <cstdint>

#include "mpf/sync/backoff.hpp"

namespace mpf::sync {

/// Process-shared spinlock.  Zero-initialised state is "unlocked".
///
/// Lock-word encoding: 0 = free, 1 = held anonymously (plain lock()),
/// pid + 2 = held by the process with that id (lock_tagged()).
class SpinLock {
 public:
  static constexpr std::uint32_t kFree = 0;
  static constexpr std::uint32_t kAnonymous = 1;
  /// Owner tag for a given ProcessId (offset past the reserved values).
  [[nodiscard]] static constexpr std::uint32_t tag_for(
      std::uint32_t pid) noexcept {
    return pid + 2;
  }
  /// Inverse of tag_for(); only meaningful when `tag >= 2`.
  [[nodiscard]] static constexpr std::uint32_t pid_of(
      std::uint32_t tag) noexcept {
    return tag - 2;
  }

  SpinLock() noexcept = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() noexcept { lock_tagged(kAnonymous); }

  void lock_tagged(std::uint32_t tag) noexcept {
    Backoff backoff;
    for (;;) {
      if (try_lock_tagged(tag)) return;
      backoff.pause();
    }
  }

  [[nodiscard]] bool try_lock() noexcept { return try_lock_tagged(kAnonymous); }

  [[nodiscard]] bool try_lock_tagged(std::uint32_t tag) noexcept {
    // Test-and-test-and-set: a plain load first so contending waiters do
    // not bounce the cache line with RMW traffic.
    std::uint32_t expected = kFree;
    if (word_.load(std::memory_order_relaxed) == kFree &&
        word_.compare_exchange_strong(expected, tag, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      seq_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  void unlock() noexcept { word_.store(kFree, std::memory_order_release); }

  /// Transfer ownership from a (suspected-dead) holder to `new_tag` without
  /// an intervening release.  Succeeds only if the lock word still carries
  /// `expected_tag`, so a racing unlock or a competing seizure loses cleanly.
  /// The winner holds the lock and must repair + unlock it like any holder.
  [[nodiscard]] bool seize(std::uint32_t expected_tag,
                           std::uint32_t new_tag) noexcept {
    if (word_.compare_exchange_strong(expected_tag, new_tag,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      seq_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Current holder tag (kFree when unlocked).  Advisory: for suspicion
  /// tracking and diagnostics.
  [[nodiscard]] std::uint32_t holder_tag() const noexcept {
    return word_.load(std::memory_order_relaxed);
  }

  /// Acquisition counter.  Together with holder_tag() this distinguishes
  /// "the same holder stuck for a long time" from "the lock changed hands
  /// and came back to the same tag".
  [[nodiscard]] std::uint32_t seq() const noexcept {
    return seq_.load(std::memory_order_relaxed);
  }

  /// True if some thread currently holds the lock (advisory; for tests).
  [[nodiscard]] bool is_locked() const noexcept {
    return word_.load(std::memory_order_relaxed) != kFree;
  }

 private:
  std::atomic<std::uint32_t> word_{0};
  std::atomic<std::uint32_t> seq_{0};
};

static_assert(sizeof(SpinLock) == 8,
              "SpinLock must stay two shm words (owner tag + seq)");

}  // namespace mpf::sync
