// The one way to block: WaitNode + Parker.
//
// Every native blocking wait in MPF — a locked receive on its descriptor's
// condition word, a quota or pool-exhaustion park, a Rendezvous hand-off,
// a lock-free FCFS receiver, receive_any and pollset_wait — sleeps here.
// A WaitNode is one 4-byte epoch word in shared memory; Parker::park
// sleeps until the epoch moves past a snapshot, Parker::wake bumps it and
// rouses whoever sleeps on the word.  A one-claimant node (a ProcSlot's
// park_node) has at most one sleeper, so its wake targets exactly that
// process; a condition word (EventCount, e.g. LnvcDesc::cond) may have
// several, and a wake rouses them all to re-check their predicates.
//
// Bit 0 of the word says a sleeper may be inside FUTEX_WAIT; the epoch
// counts in steps of 2 above it.  A sleeper sets the bit before it blocks
// and a waker clears it, so a wake with nobody asleep is one atomic add —
// the hot locked send pays no syscall.
//
// Three backends share this contract:
//   * futex(2) on Linux thread/fork platforms — the word is FUTEX_WAIT-ed
//     directly (no FUTEX_PRIVATE_FLAG, so it works across fork in shared
//     memory) after a spin phase (spin_poll) bounded by
//     Config::park_spin_ns;
//   * a portable spin-then-nap loop elsewhere;
//   * a virtual wait resource in SimPlatform (see Platform::park), where a
//     parked simulated process consumes zero virtual CPU.
//
// The word is POD, zero-init ready, and process-shared.  Spurious wakeups
// are allowed; callers re-check their predicate.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "mpf/sync/backoff.hpp"

namespace mpf::sync {

/// One wait word.  Lives in shared memory; the epoch is bumped by wakers
/// and compared by sleepers.  A stale wake (epoch already moved) is
/// absorbed for free.
struct WaitNode {
  /// Bit 0: a sleeper may be in the kernel.  Bits 1..31: the epoch.
  std::atomic<std::uint32_t> epoch{0};
};

static_assert(sizeof(WaitNode) == 4, "WaitNode must stay one futex word");

/// A condition word: the same WaitNode, waited on under a lock by any
/// number of processes (Platform::wait_for / notify_all).
using EventCount = WaitNode;

/// No deadline: park until woken (callers normally still bound the park
/// with a suspicion deadline so dead notifiers self-heal).
inline constexpr std::uint64_t kNoParkDeadline = ~std::uint64_t{0};

/// Spin budget of a wait whose caller names none; the same 16 ms as the
/// default Config::park_spin_ns.
inline constexpr std::uint64_t kDefaultParkSpinNs = 16'000'000;

/// std::chrono::steady_clock nanoseconds: the clock of park deadlines and
/// NativePlatform::now_ns.
[[nodiscard]] inline std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Most PAUSEs between two reads of a polled word (about 0.15 µs at
/// 17–20 ns a PAUSE, 0.5 µs where PAUSE takes 140 cycles).
inline constexpr std::uint32_t kSpinPollPauses = 8;

/// Spin time after which spin_poll yields between reads instead of
/// pausing: a wait that long is no pipeline hand-off, and a spinner
/// should let a runnable peer (perhaps its waker) have the CPU.
inline constexpr std::uint64_t kSpinPollYieldNs = 64'000;

/// The spin phase of a wait for a word that one waker writes (a Parker
/// epoch, a barrier's sense): read it through `done` after clusters of
/// 1, 2, 4 and then kSpinPollPauses PAUSEs, and from `start_ns` +
/// kSpinPollYieldNs on after every yield.  Returns true once `done()`
/// holds, false once the steady clock reaches `until_ns`; `done` is read
/// at least once.  The cadence stops growing at kSpinPollPauses, unlike a
/// lock's Backoff: every lock contender writes the lock's line, while
/// only the waker writes a polled word, so a short cadence adds no
/// writes and sees the waker's within one cluster.
template <typename Done>
bool spin_poll(Done&& done, std::uint64_t start_ns,
               std::uint64_t until_ns) noexcept {
  const std::uint64_t yield_at = start_ns + kSpinPollYieldNs;
  std::uint32_t pauses = 1;
  for (std::uint64_t now_ns = start_ns;; now_ns = steady_now_ns()) {
    if (done()) return true;
    if (now_ns >= until_ns) return false;
    if (now_ns < yield_at) {
      for (std::uint32_t i = 0; i < pauses; ++i) cpu_relax();
      if (pauses < kSpinPollPauses) pauses *= 2;
    } else {
      std::this_thread::yield();
    }
  }
}

class Parker {
 public:
  static constexpr std::uint32_t kSleeper = 1;  ///< bit 0 of the word
  static constexpr std::uint32_t kStep = 2;     ///< one wake's epoch bump
  /// A thread whose sleeps outlast the spin budget spins this fraction
  /// of it (see park).
  static constexpr std::uint64_t kShortSpinDivisor = 16;

  /// Snapshot to pass as `expected`.  Take it *before* publishing the
  /// fact that you are about to park (for a condition word: while still
  /// holding the lock that guards the predicate): wake-ups between
  /// snapshot and sleep are then observed as an epoch move and the park
  /// returns immediately.
  [[nodiscard]] static std::uint32_t prepare(const WaitNode& node) noexcept {
    return node.epoch.load(std::memory_order_seq_cst) & ~kSleeper;
  }

  /// True once the epoch has moved past `expected`.
  [[nodiscard]] static bool moved(const WaitNode& node,
                                  std::uint32_t expected) noexcept {
    return (node.epoch.load(std::memory_order_acquire) & ~kSleeper) !=
           expected;
  }

  /// Sleep until the epoch moves past `expected` or the steady clock
  /// reaches `deadline_ns` (std::chrono::steady_clock nanoseconds, the
  /// epoch NativePlatform::now_ns reports; kNoParkDeadline = wait
  /// forever).  Spins first (never past the deadline) so pipeline-cadence
  /// hand-offs never pay a syscall: for all of `spin_ns` when the calling
  /// thread's last sleep was woken within `spin_ns` of its park's start —
  /// a spin that long would have saved it — and for kShortSpinDivisor-th
  /// of it otherwise.  Returns true if the epoch moved, false on deadline
  /// — never before it.
  static bool park(WaitNode& node, std::uint32_t expected,
                   std::uint64_t deadline_ns, std::uint64_t spin_ns) noexcept;

  /// Bump the epoch and rouse every process asleep on `node`; when the
  /// sleeper bit is clear nobody is, and no syscall is made.
  static void wake(WaitNode& node) noexcept;

  /// True when park() blocks in futex(2); false when it falls back to the
  /// portable nap loop.  Surfaced by `mpf_inspect --parked`.
  [[nodiscard]] static bool has_futex() noexcept;
};

}  // namespace mpf::sync
