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
//     memory) after a spin phase bounded by Config::park_spin_ns;
//   * a portable spin-then-nap loop elsewhere;
//   * a virtual wait resource in SimPlatform (see Platform::park), where a
//     parked simulated process consumes zero virtual CPU.
//
// The word is POD, zero-init ready, and process-shared.  Spurious wakeups
// are allowed; callers re-check their predicate.
#pragma once

#include <atomic>
#include <cstdint>

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
