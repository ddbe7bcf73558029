// Deterministic discrete-event simulation of a shared-memory multiprocessor.
//
// Why this exists: the paper's evaluation ran on a 20-CPU Sequent Balance
// 21000; this reproduction's host has one core, so wall-clock runs cannot
// show 16-way speedups or bus/lock contention.  The simulator executes the
// *real* MPF code (the same LNVC data structures, the same applications) on
// simulated processes with virtual clocks; only time is modeled.
//
// Execution model: every simulated process is an OS thread, but the
// conductor admits exactly one at a time — always the runnable process with
// the smallest (virtual clock, id) pair.  A process runs until it reaches a
// "sim point" (advance of its clock, lock, unlock, wait, notify), where the
// conductor may hand execution to a now-earlier process.  Because state
// mutations only happen while a process is the unique minimum-clock
// runnable one, the interleaving is a valid serialization in virtual time
// and the whole simulation is deterministic.
//
// Resources:
//   * virtual mutexes keyed by the address of a shared SpinLock cell,
//   * virtual condition queues keyed by the address of an EventCount cell,
//   * one shared bus with reservation semantics (80 MB/s on the Balance),
//   * a paging model driven by the live message-buffer footprint.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpf/core/platform.hpp"
#include "mpf/sim/fault.hpp"
#include "mpf/sim/machine.hpp"
#include "mpf/sim/trace.hpp"

namespace mpf::sim {

/// Virtual nanoseconds.
using Time = std::uint64_t;

class Simulator;

/// Raised (from run()) when every live process is blocked.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown into a process body when an injected kill fires; caught by the
/// simulator's thread runner (never escapes run()).  The unwind abandons
/// whatever the process was doing — locks stay held, journals stay armed —
/// which is exactly the crash the recovery machinery must repair.
struct ProcessKilled {};

/// A simulated process.  Instances are owned by the Simulator; user code
/// touches them only via Simulator::current().
class Process {
 public:
  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] Time clock() const noexcept { return clock_; }

 private:
  friend class Simulator;
  enum class State { Fresh, Runnable, Running, Blocked, Done };

  int id_ = -1;
  Time clock_ = 0;
  State state_ = State::Fresh;
  /// Timed condition sleep: when Blocked with timed_, the conductor
  /// promotes the process at wake_at_ if nothing notifies it earlier.
  bool timed_ = false;
  bool timed_out_ = false;
  Time wake_at_ = 0;
  const void* waiting_cond_ = nullptr;
  std::function<void()> body_;
  std::thread thread_;
  std::condition_variable cv_;
  bool abort_requested_ = false;

  // --- fault injection (see fault.hpp) ---------------------------------
  bool killed_ = false;   ///< an injected kill fired
  Time death_time_ = 0;   ///< virtual time of the kill
  /// Lock-free mirror of killed_ for liveness probes from other threads
  /// (and from post-run audit code outside the conductor's mutex).
  std::atomic<bool> dead_flag_{false};
  bool kill_pending_ = false;  ///< die at the next sim point
  bool kill_at_armed_ = false;
  Time kill_at_ = 0;
  bool kill_on_lock_armed_ = false;
  std::uint64_t kill_on_lock_n_ = 0;
  std::uint64_t lock_acq_count_ = 0;
  bool kill_on_send_armed_ = false;
  std::uint64_t kill_on_send_n_ = 0;
  std::uint64_t send_count_ = 0;
  bool pause_armed_ = false;
  Time pause_at_ = 0;
  Time pause_resume_at_ = 0;
  /// Set while blocked in a robust acquisition: a dying owner wakes these
  /// waiters so they can suspect and seize.
  bool robust_waiting_ = false;
};

class Simulator {
 public:
  explicit Simulator(MachineModel model = MachineModel::balance21000());
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Register a simulated process.  Must be called before run().
  /// Returns the process id (0-based, in spawn order).
  int spawn(std::function<void()> body);

  /// Convenience: spawn `n` processes running fn(rank) with rank 0..n-1.
  void spawn_group(int n, const std::function<void(int)>& fn);

  /// Execute until every process finishes.  Rethrows the first exception a
  /// process body raised; throws DeadlockError if all live processes block.
  void run();

  /// The simulated process executing on this thread, or nullptr when the
  /// caller is not a simulated process (e.g. main-thread setup code).
  [[nodiscard]] static Process* current() noexcept;

  /// True when called from inside a simulated process of *this* simulator.
  [[nodiscard]] bool in_simulation() const noexcept;

  // ---- time -----------------------------------------------------------
  /// Advance the current process's clock and yield to any earlier process.
  void advance(double ns);
  /// Virtual time of the current process (0 outside the simulation).
  [[nodiscard]] Time now() const noexcept;
  /// Maximum clock over all finished processes (the makespan); valid
  /// after run().
  [[nodiscard]] Time elapsed() const noexcept { return makespan_; }

  // ---- virtual mutexes (keyed by shared lock-cell address) ------------
  void mutex_lock(const void* cell);
  void mutex_unlock(const void* cell);
  /// Robust acquisition: when the virtual owner has been killed, the
  /// waiter seizes after op.suspicion_ns of virtual time (firing op.alive
  /// for the facility's accounting) and op.seized is set.
  void mutex_lock_robust(const void* cell, RobustOp& op);

  // ---- virtual condition queues (keyed by cond-cell address) ----------
  /// Atomically release `mutex_cell`, sleep until notified or for
  /// `timeout_ns` of virtual time (~0 = untimed), re-acquire; returns
  /// false on timeout.  A non-null `op` makes the re-acquisition robust.
  bool cond_wait_for(const void* mutex_cell, const void* cond_cell,
                     std::uint64_t timeout_ns, RobustOp* op = nullptr);
  void cond_notify_all(const void* cond_cell);

  // ---- virtual one-claimant parks (keyed by wait-node address) ---------
  /// Block the current process until park_wake(node_cell) fires or
  /// `timeout_ns` of virtual time passes (~0 = untimed); returns false on
  /// timeout.  Called with no virtual mutex held.  A parked process is
  /// simply Blocked — it consumes zero virtual CPU and cannot perturb the
  /// conductor's min-(clock, id) order, and FaultPlan kills landing during
  /// the park are delivered by the same timed-promotion path as condition
  /// sleeps, so replays stay bit-identical.  The wait queue rides on the
  /// condition map keyed by the WaitNode's address: each node has at most
  /// one waiter, so a park_wake transfers the baton to exactly that
  /// process (no herd to thunder).
  bool park_wait(const void* node_cell, std::uint64_t timeout_ns);
  /// Wake the (at most one) process parked on `node_cell`; no-op if none.
  void park_wake(const void* node_cell);

  // ---- fault injection -------------------------------------------------
  /// Install a fault plan; applied when run() starts.  Faults fire only at
  /// sim points, so a given (workload, plan) replays bit-identically.
  void set_fault_plan(FaultPlan plan) { plan_ = std::move(plan); }
  /// False once an injected kill has fired for `pid` (valid during and
  /// after run(); processes that finish normally stay "alive").
  [[nodiscard]] bool process_alive(int pid) const noexcept;
  /// Injected kills that have fired so far.
  [[nodiscard]] std::uint64_t kills() const noexcept { return kills_; }
  /// Counts one send entry against the current process's fault triggers
  /// (called by SimPlatform::charge_send_fixed before charging).
  void count_send() noexcept;

  // ---- modeled hardware ------------------------------------------------
  /// Charge a memory copy of `bytes` chained through `nblocks` message
  /// blocks (0 for a direct buffer-to-buffer transfer): CPU time on the
  /// current processor plus shared-bus occupancy.
  void charge_copy(std::uint64_t bytes, std::uint64_t nblocks);
  /// NUMA-aware variant: `read_node` / `write_node` are the memory nodes
  /// of the copy's source and destination and `exec_node` the node of the
  /// executing processor.  Remote legs scale the per-byte CPU cost
  /// (reads are latency-bound and cost more than posted writes) and
  /// additionally reserve the interconnect link between the two nodes.
  /// With model().numa_nodes <= 1 — or all three nodes equal — this is
  /// arithmetically identical to charge_copy (bit-identical traces).
  void charge_copy_numa(std::uint64_t bytes, std::uint64_t nblocks,
                        std::uint32_t read_node, std::uint32_t write_node,
                        std::uint32_t exec_node);
  /// Charge a touch of `bytes` of message-buffer memory, applying the
  /// paging model against the current live footprint.
  void charge_touch(std::uint64_t bytes);
  void footprint_alloc(std::uint64_t bytes) noexcept;
  void footprint_free(std::uint64_t bytes) noexcept;
  [[nodiscard]] std::uint64_t footprint() const noexcept {
    return live_msg_bytes_;
  }
  [[nodiscard]] std::uint64_t peak_footprint() const noexcept {
    return peak_msg_bytes_;
  }

  [[nodiscard]] const MachineModel& model() const noexcept { return model_; }
  [[nodiscard]] MachineModel& model() noexcept { return model_; }

  // ---- statistics -------------------------------------------------------
  [[nodiscard]] std::uint64_t context_switches() const noexcept {
    return switches_;
  }
  [[nodiscard]] std::uint64_t bus_busy_ns() const noexcept {
    return static_cast<std::uint64_t>(bus_busy_ns_);
  }
  /// Total interconnect-link occupancy across all node pairs (0 on a
  /// single-node machine).
  [[nodiscard]] std::uint64_t interconnect_busy_ns() const noexcept {
    return static_cast<std::uint64_t>(interconnect_busy_ns_);
  }
  [[nodiscard]] std::uint64_t page_faults() const noexcept { return faults_; }

  /// Attach an event trace (or nullptr to detach).  The simulator appends
  /// from the single running process, so the Trace needs no locking.
  void set_trace(Trace* trace) noexcept { trace_ = trace; }

 private:
  struct MutexState {
    Process* owner = nullptr;
    std::deque<Process*> waiters;
    /// Acquisitions within the last lock_hot_window_ns: (time, process).
    /// Drives the cache-line crowding term of the acquisition cost.
    std::deque<std::pair<Time, Process*>> recent;
  };
  struct CondState {
    std::deque<Process*> waiters;
  };

  /// Thrown into process bodies during teardown after a failure.
  struct AbortProcess {};

  void thread_main(Process* self);
  /// With mu_ held: pick the minimum-clock runnable process and transfer
  /// control to it; if `self` is that process, simply continue.  `self` may
  /// be Runnable (yield), Blocked (wait) or Done (exit).  Checks `self`'s
  /// fault triggers on entry and on resume (may throw ProcessKilled).
  void reschedule(std::unique_lock<std::mutex>& lk, Process* self);
  [[nodiscard]] Process* pick_next() const noexcept;
  /// Promote blocked processes whose next event (timed-sleep deadline or
  /// scheduled kill) precedes every runnable process.
  void promote_events() noexcept;
  void wake(Process* p, Time at_least) noexcept;
  void trigger_abort(std::unique_lock<std::mutex>& lk);
  [[nodiscard]] Process* current_checked() const;
  /// Fire any due pause/kill for `self` (mu_ held; throws ProcessKilled).
  void check_faults(Process* self);
  /// Mark `self` dead at its current clock, wake robust waiters on locks
  /// it holds, drop it from wait queues, and throw ProcessKilled.
  [[noreturn]] void kill_now(Process* self);
  void remove_from_wait_queues(Process* p) noexcept;
  /// Shared tail of every acquisition: contention cost + fault counting.
  void finish_lock_acquire(std::unique_lock<std::mutex>& lk, Process* self,
                           MutexState& m);
  /// Seize `m` from its killed owner for `self` (robust paths).
  void seize_dead_owner(Process* self, MutexState& m, RobustOp& op);
  /// Re-acquire `mutex_cell` after a condition sleep (robust iff op).
  void reacquire_after_wait(std::unique_lock<std::mutex>& lk, Process* self,
                            const void* mutex_cell, RobustOp* op);

  MachineModel model_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::mutex mu_;
  std::condition_variable done_cv_;
  int live_ = 0;  ///< processes not yet Done
  bool started_ = false;
  bool aborting_ = false;
  std::exception_ptr first_error_;
  Time makespan_ = 0;

  std::unordered_map<const void*, MutexState> mutexes_;
  std::unordered_map<const void*, CondState> conds_;

  // Hardware model state: only ever touched by the single running process.
  double bus_free_at_ = 0;
  double bus_busy_ns_ = 0;
  /// Interconnect-link reservations keyed by unordered node pair
  /// ((lo << 32) | hi); absent entries mean the link is free.
  std::unordered_map<std::uint64_t, double> link_free_at_;
  double interconnect_busy_ns_ = 0;
  std::uint64_t live_msg_bytes_ = 0;
  std::uint64_t peak_msg_bytes_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t switches_ = 0;
  Trace* trace_ = nullptr;

  FaultPlan plan_;
  std::uint64_t kills_ = 0;
};

}  // namespace mpf::sim
