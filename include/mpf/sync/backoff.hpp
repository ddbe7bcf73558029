// Exponential backoff for lock acquisition.
//
// The Sequent Balance 21000 relied on hardware test-and-set locks with
// software backoff to keep the shared bus usable under contention; this is
// the modern equivalent.  `Backoff` has one job, lock contention: the
// retry loops of SpinLock::lock_tagged and Platform::lock_robust, where
// every contender's try writes the lock's line, so contenders must back
// off ever longer.  It progresses from cheap CPU pause instructions to
// scheduler yields and never sleeps.  lock_robust reads no clock until
// `yielding()`, so a lock held for less than the pause phase costs it no
// timekeeping.  Waiting for a word that one waker writes (an event, a
// barrier's sense) is spin_poll's and Parker::park's job (parker.hpp):
// there only the waker writes, so the poll keeps a short fixed cadence
// instead.  The object lives on the spinner's stack, so it is safe inside
// memory shared between processes.
#pragma once

#include <cstdint>
#include <thread>

namespace mpf::sync {

/// Issue a CPU pause/relax hint appropriate for the host architecture.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

/// Stateful exponential backoff.  Construct once per acquisition and call
/// `pause()` after each failed try.
class Backoff {
 public:
  /// cpu_relax() rounds before pausing becomes a scheduler yield; tuned
  /// for short critical sections (an LNVC enqueue is a few hundred ns).
  static constexpr std::uint32_t kSpinRounds = 64;

  /// Wait a little longer than last time.
  void pause() noexcept {
    if (round_ < kSpinRounds) {
      // Exponentially growing clusters of pause instructions.
      const std::uint32_t reps = 1u << (round_ < 6 ? round_ : 6);
      for (std::uint32_t i = 0; i < reps; ++i) cpu_relax();
    } else {
      std::this_thread::yield();
    }
    ++round_;
  }

  /// True once the pause phase is over and pause() yields.
  [[nodiscard]] bool yielding() const noexcept {
    return round_ >= kSpinRounds;
  }

 private:
  std::uint32_t round_ = 0;
};

}  // namespace mpf::sync
