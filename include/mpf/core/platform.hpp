// The portability seam between the LNVC machinery and its execution
// environment.
//
// The paper stresses that MPF's only system-dependent code is shared-memory
// allocation and synchronization (§3).  In this reproduction the same seam
// carries one more job: cost modeling.  The identical LNVC code runs either
//   * natively (NativePlatform): spinlocks on the shm cells, and every
//     blocking wait parked on its futex word by sync::Parker (spin up to the
//     waiter's park_spin_ns, then sleep); no cost accounting — used by
//     tests, examples and native benchmark timings; works across fork()ed
//     processes; or
//   * simulated (sim::SimPlatform): lock/wait become discrete-event
//     resources and every copy/primitive charges virtual Balance-21000
//     time — used to regenerate the paper's figures.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpf/sync/parker.hpp"
#include "mpf/sync/spinlock.hpp"

namespace mpf {

/// Parameters for robust (failure-suspecting) lock operations.  A waiter
/// carries its owner tag, a liveness probe for whoever it finds holding the
/// lock, and the suspicion threshold.  `seized` is an out-flag: the platform
/// sets it when the acquisition went through seizure of a dead holder's
/// lock, in which case the caller owns the lock but must treat the protected
/// structure as possibly half-mutated and repair it before use.
struct RobustOp {
  std::uint32_t tag = sync::SpinLock::kAnonymous;
  /// Returns true if the process behind `holder_tag` is still alive.
  /// nullptr: never suspect (degenerates to a plain lock).
  bool (*alive)(void* ctx, std::uint32_t holder_tag) = nullptr;
  void* ctx = nullptr;
  /// 0: never suspect.
  std::uint64_t suspicion_ns = 0;
  bool seized = false;
  /// Holder tag the lock was seized from (valid when `seized`).
  std::uint32_t seized_from = sync::SpinLock::kFree;
  /// Spin budget of a wait_for that re-acquires through this op, before
  /// it sleeps (Config::park_spin_ns).
  std::uint64_t spin_ns = sync::kDefaultParkSpinNs;
};

/// The one wait contract.  Every blocking call takes a relative
/// `timeout_ns`: kNoTimeout waits forever, 0 polls (delivers what is ready
/// now, else Status::timed_out), anything else bounds the wait.
/// Internally a wait runs against an absolute deadline (kNoDeadline = none,
/// the parker's own sentinel); Platform::deadline_after is the only
/// conversion between the two.
inline constexpr std::uint64_t kNoTimeout = ~std::uint64_t{0};
inline constexpr std::uint64_t kNoDeadline = sync::kNoParkDeadline;

class Platform {
 public:
  virtual ~Platform() = default;

  // --- mutual exclusion on shm cells ----------------------------------
  virtual void lock(sync::SpinLock& cell) = 0;
  virtual void unlock(sync::SpinLock& cell) = 0;

  /// Robust acquisition: take the lock tagged with `op.tag`; when the same
  /// (holder, seq) pair has been observed past `op.suspicion_ns` and the
  /// probe says that holder is dead, seize the lock (setting `op.seized`).
  /// On return the caller holds the lock either way.
  ///
  /// An uncontended acquisition is one try and reads no clock (a steady
  /// clock read costs about twice the CAS).  While Backoff still pauses,
  /// retries read no clock either; the grace period is armed by the first
  /// clock read once Backoff yields, and every hand-off disarms it so the
  /// next holder gets a full one.  Seizure thus never comes sooner than
  /// `op.suspicion_ns` after the call began, and at most the pause phase
  /// later.  The base implementation spins on real/virtual time and suits
  /// any platform whose lock() spins on the cell itself; platforms that
  /// queue waiters elsewhere (the simulator) override it.
  virtual void lock_robust(sync::SpinLock& cell, RobustOp& op) {
    if (cell.try_lock_tagged(op.tag)) return;
    sync::Backoff backoff;
    std::uint32_t seen_tag = cell.holder_tag();
    std::uint32_t seen_seq = cell.seq();
    std::uint64_t deadline = 0;  // 0: grace period not armed
    for (;;) {
      backoff.pause();
      if (cell.try_lock_tagged(op.tag)) return;
      const std::uint32_t tag = cell.holder_tag();
      const std::uint32_t seq = cell.seq();
      if (tag != seen_tag || seq != seen_seq) {
        // Lock changed hands: whoever holds it now gets a fresh grace
        // period.
        seen_tag = tag;
        seen_seq = seq;
        deadline = 0;
        continue;
      }
      if (op.suspicion_ns == 0 || !backoff.yielding() ||
          tag == sync::SpinLock::kFree) {
        continue;
      }
      const std::uint64_t now = now_ns();
      if (deadline == 0) {
        deadline = now + op.suspicion_ns;
        continue;
      }
      if (now < deadline) continue;
      if (op.alive != nullptr && !op.alive(op.ctx, tag) &&
          cell.seize(tag, op.tag)) {
        op.seized = true;
        op.seized_from = tag;
        return;
      }
      // False suspicion or lost the seizure race: re-arm.
      deadline = now + op.suspicion_ns;
    }
  }

  // --- condition waiting ------------------------------------------------
  /// Called with `mutex_cell` held; atomically releases it, sleeps until a
  /// notify or for `timeout_ns` (virtual or wall time per platform; ~0 =
  /// no timeout), re-acquires, and returns false on timeout.  Spurious
  /// true returns are allowed; callers re-check their predicate and their
  /// own deadline.  When `op` is non-null the re-acquisition is robust
  /// (tagged + suspecting).  A notifier makes its state change before the
  /// notify, under `mutex_cell` or visibly to the predicate the waiter
  /// checks under it; a notify of a change the waiter cannot see leaves it
  /// asleep until the next one (DESIGN.md §12).
  virtual bool wait_for(sync::SpinLock& mutex_cell,
                        sync::EventCount& cond_cell, std::uint64_t timeout_ns,
                        RobustOp* op = nullptr) = 0;
  /// wait_for with no timeout.
  virtual void wait(sync::SpinLock& mutex_cell, sync::EventCount& cond_cell,
                    RobustOp* op = nullptr) {
    wait_for(mutex_cell, cond_cell, ~std::uint64_t{0}, op);
  }
  /// Wake every waiter of `cond_cell`.
  virtual void notify_all(sync::EventCount& cond_cell) = 0;

  // --- one-claimant parking (the futex-class seam; DESIGN.md §12) -------
  /// Sleep until `node.epoch` moves past `expected` or the clock (wall or
  /// virtual per platform) reaches `deadline_ns`
  /// (sync::kNoParkDeadline = wait forever).  Called with NO lock held —
  /// lost-wakeup protection comes from the epoch snapshot: take `expected`
  /// with Parker::prepare *before* publishing the intent to park, and any
  /// unpark issued after that publication is observed as an epoch move.
  /// Returns true if the epoch moved, false on deadline.  A parked
  /// simulated process consumes zero virtual CPU.
  virtual bool park(sync::WaitNode& node, std::uint32_t expected,
                    std::uint64_t deadline_ns, std::uint64_t spin_ns) {
    return sync::Parker::park(node, expected, deadline_ns, spin_ns);
  }
  /// Bump the node's epoch and rouse its (at most one) parked owner.
  /// Wakers pick their successor first and wake only its node, so there
  /// is no thundering herd.
  virtual void unpark(sync::WaitNode& node) { sync::Parker::wake(node); }

  // --- liveness ---------------------------------------------------------
  /// Platform-level liveness of an MPF ProcessId.  The default says
  /// everyone is alive; the simulator consults its kill ledger.  (For
  /// fork()ed native processes, OS-pid liveness is layered on top by the
  /// Facility, which knows each participant's recorded os_pid.)
  [[nodiscard]] virtual bool is_alive(std::uint32_t pid) const {
    (void)pid;
    return true;
  }

  // --- cost-model hooks (no-ops natively) -------------------------------
  virtual void charge_send_fixed() {}
  virtual void charge_recv_fixed() {}
  virtual void charge_check() {}
  virtual void charge_open_close() {}
  /// One direction of a message copy through `nblocks` chained blocks
  /// (nblocks == 0 for a direct buffer-to-buffer transfer).
  virtual void charge_copy(std::size_t bytes, std::size_t nblocks) {
    (void)bytes;
    (void)nblocks;
  }
  /// Node-annotated copy: `read_node` / `write_node` are the memory nodes
  /// of the source and destination and `exec_node` the executing
  /// process's node (Config::numa_nodes topology).  Platforms without a
  /// NUMA cost model fall back to the flat charge; the simulator prices
  /// remote legs and reserves the interconnect link.
  virtual void charge_copy_nodes(std::size_t bytes, std::size_t nblocks,
                                 std::uint32_t read_node,
                                 std::uint32_t write_node,
                                 std::uint32_t exec_node) {
    (void)read_node;
    (void)write_node;
    (void)exec_node;
    charge_copy(bytes, nblocks);
  }
  /// Handing out a zero-copy view of a message: the receiver pays the
  /// per-block pointer-chase overhead but moves no payload bytes.
  virtual void charge_view(std::size_t bytes, std::size_t nblocks) {
    (void)bytes;
    (void)nblocks;
  }
  /// Generic bookkeeping operations (application-level unit work).
  virtual void charge_ops(double ops) { (void)ops; }
  /// Floating-point work (applications call this per sweep).
  virtual void charge_flops(double flops) { (void)flops; }
  /// Message-buffer footprint tracking (drives the paging model).
  virtual void on_buffer_alloc(std::size_t bytes) { (void)bytes; }
  virtual void on_buffer_free(std::size_t bytes) { (void)bytes; }
  /// A touch of `bytes` of buffer memory (page-fault charging point).
  virtual void touch(std::size_t bytes) { (void)bytes; }

  // --- time --------------------------------------------------------------
  /// Monotonic nanoseconds: wall time natively, virtual time simulated.
  [[nodiscard]] virtual std::uint64_t now_ns() const = 0;
  /// Absolute deadline of a wait given `timeout_ns` from now: kNoDeadline
  /// for kNoTimeout and 0 (already due) for a poll, neither reading the
  /// clock; otherwise now + timeout_ns, saturating at kNoDeadline.
  [[nodiscard]] std::uint64_t deadline_after(std::uint64_t timeout_ns) const {
    if (timeout_ns == kNoTimeout) return kNoDeadline;
    if (timeout_ns == 0) return 0;
    const std::uint64_t now = now_ns();
    return timeout_ns < kNoDeadline - now ? now + timeout_ns : kNoDeadline;
  }
  /// Cooperative yield inside polling loops.
  virtual void yield() {}

  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Real-hardware platform: spinlocks, and every wait parked on its futex
/// word.  Stateless; one shared instance suffices for any number of
/// facilities.
class NativePlatform final : public Platform {
 public:
  void lock(sync::SpinLock& cell) override { cell.lock(); }
  void unlock(sync::SpinLock& cell) override { cell.unlock(); }

  bool wait_for(sync::SpinLock& mutex_cell, sync::EventCount& cond_cell,
                std::uint64_t timeout_ns, RobustOp* op = nullptr) override {
    // Snapshot under the lock: a notify issued after our predicate check
    // moves the epoch past it, so the park below cannot sleep through it.
    const std::uint32_t ticket = sync::Parker::prepare(cond_cell);
    const std::uint64_t deadline = deadline_after(timeout_ns);
    mutex_cell.unlock();
    const bool notified = sync::Parker::park(
        cond_cell, ticket, deadline,
        op != nullptr ? op->spin_ns : sync::kDefaultParkSpinNs);
    if (op != nullptr) {
      lock_robust(mutex_cell, *op);
    } else {
      mutex_cell.lock();
    }
    return notified;
  }

  void notify_all(sync::EventCount& cond_cell) override {
    sync::Parker::wake(cond_cell);
  }

  [[nodiscard]] std::uint64_t now_ns() const override {
    return sync::steady_now_ns();
  }

  void yield() override { sync::cpu_relax(); }

  [[nodiscard]] const char* name() const noexcept override {
    return "native";
  }
};

/// Shared stateless NativePlatform instance.
[[nodiscard]] NativePlatform& native_platform() noexcept;

}  // namespace mpf
