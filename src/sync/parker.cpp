// Parker: futex(2) backend with a portable nap fallback.
//
// The spin phase runs first in both backends — a hand-off that lands
// within the caller's spin budget never touches the kernel.  After that
// the Linux path sets the sleeper bit and FUTEX_WAITs on the word itself
// (process-shared: no FUTEX_PRIVATE_FLAG, the node lives in the mapped
// arena), so a parked process costs zero CPU until Parker::wake
// FUTEX_WAKEs it.  The fallback naps in short slices clipped to the
// deadline.
#include "mpf/sync/parker.hpp"

#include <climits>
#include <ctime>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace mpf::sync {

namespace {

#if defined(__linux__)
long futex_call(std::atomic<std::uint32_t>* cell, int op, std::uint32_t val,
                const timespec* timeout) noexcept {
  // The cast is sound: std::atomic<uint32_t> is lock-free and layout
  // compatible with the futex word (static_assert in the header keeps the
  // node at exactly 4 bytes).
  return ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(cell), op, val,
                   timeout, nullptr, 0);
}

/// One sleep on a word last read as `cur` (epoch still the expected one):
/// flag the sleeper, then FUTEX_WAIT for at most `remaining_ns`.  Returns
/// early, without sleeping, when the word moved under the flagging CAS.
/// The kernel re-checks the word under its bucket lock, so a wake racing
/// the flag cannot be lost: either the waker's add saw the bit, or the
/// FUTEX_WAIT sees the moved word.
void sleep_on(WaitNode& node, std::uint32_t cur,
              std::uint64_t remaining_ns) noexcept {
  if ((cur & Parker::kSleeper) == 0 &&
      !node.epoch.compare_exchange_strong(cur, cur | Parker::kSleeper,
                                          std::memory_order_seq_cst)) {
    return;
  }
  timespec ts;
  timespec* timeout = nullptr;
  if (remaining_ns != kNoParkDeadline) {
    ts.tv_sec = static_cast<time_t>(remaining_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(remaining_ns % 1'000'000'000);
    timeout = &ts;
  }
  // EAGAIN (word moved), EINTR, ETIMEDOUT and wakes all return to the
  // caller's loop, which re-reads the word and the clock.
  futex_call(&node.epoch, FUTEX_WAIT, cur | Parker::kSleeper, timeout);
}
#else
void sleep_on(WaitNode&, std::uint32_t, std::uint64_t remaining_ns) noexcept {
  // No futex: nap in slices short enough that a wake is seen promptly.
  constexpr std::uint64_t kNapNs = 100'000;
  const std::uint64_t nap = remaining_ns < kNapNs ? remaining_ns : kNapNs;
  timespec ts{static_cast<time_t>(nap / 1'000'000'000),
              static_cast<long>(nap % 1'000'000'000)};
  ::nanosleep(&ts, nullptr);
}
#endif

/// Whether this thread's last sleep was woken within its park's spin
/// budget (see Parker::park).
thread_local bool t_spin_full = false;

}  // namespace

bool Parker::has_futex() noexcept {
#if defined(__linux__)
  return true;
#else
  return false;
#endif
}

bool Parker::park(WaitNode& node, std::uint32_t expected,
                  std::uint64_t deadline_ns, std::uint64_t spin_ns) noexcept {
  // Phase 1: spin_poll (a read every ≤8 PAUSEs, yields after 64 µs) —
  // pipeline hand-offs complete at microsecond cadence, must not pay a
  // syscall, and must be seen within a fraction of a microsecond.  Waking
  // a sleeper can cost milliseconds (a halted vCPU on a loaded host), and
  // in a lock-step computation a late wake-up pushes the peers past short
  // spins into sleeps of their own, so the late wake-ups chain.  A thread
  // whose last sleep a full spin would have saved therefore spins it all;
  // one whose sleeps outlast the budget spins a fraction and stays idle.
  const std::uint64_t start = steady_now_ns();
  const std::uint64_t spin =
      t_spin_full ? spin_ns : spin_ns / kShortSpinDivisor;
  if (spin != 0) {
    std::uint64_t spin_until = start + spin;
    if (spin_until > deadline_ns) spin_until = deadline_ns;
    if (spin_poll([&] { return moved(node, expected); }, start, spin_until)) {
      return true;
    }
  }
  // Phase 2: sleep until the epoch moves or the deadline passes.  Expiry
  // is decided against the clock, so a wait never ends early.
  for (bool slept = false;; slept = true) {
    const std::uint32_t cur = node.epoch.load(std::memory_order_acquire);
    if ((cur & ~kSleeper) != expected) {
      if (slept) t_spin_full = steady_now_ns() - start <= spin_ns;
      return true;
    }
    std::uint64_t remaining = kNoParkDeadline;
    if (deadline_ns != kNoParkDeadline) {
      const std::uint64_t now_ns = steady_now_ns();
      if (now_ns >= deadline_ns) {
        t_spin_full = false;
        return false;
      }
      remaining = deadline_ns - now_ns;
    }
    sleep_on(node, cur, remaining);
  }
}

void Parker::wake(WaitNode& node) noexcept {
  const std::uint32_t old = node.epoch.fetch_add(kStep, std::memory_order_seq_cst);
#if defined(__linux__)
  if ((old & kSleeper) != 0) {
    // Clearing after the add is safe: a sleeper that re-flags in between
    // is either woken below or finds its FUTEX_WAIT value stale.
    node.epoch.fetch_and(~kSleeper, std::memory_order_relaxed);
    futex_call(&node.epoch, FUTEX_WAKE, INT_MAX, nullptr);
  }
#else
  (void)old;
#endif
}

}  // namespace mpf::sync
