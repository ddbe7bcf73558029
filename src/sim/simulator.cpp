#include "mpf/sim/simulator.hpp"

#include <algorithm>
#include <cassert>

namespace mpf::sim {
namespace {

thread_local Process* tl_current = nullptr;

}  // namespace

Process* Simulator::current() noexcept { return tl_current; }

bool Simulator::in_simulation() const noexcept { return tl_current != nullptr; }

Simulator::Simulator(MachineModel model) : model_(model) {}

Simulator::~Simulator() = default;

int Simulator::spawn(std::function<void()> body) {
  std::lock_guard<std::mutex> lk(mu_);
  if (started_) {
    throw std::logic_error("Simulator::spawn called after run()");
  }
  auto proc = std::make_unique<Process>();
  proc->id_ = static_cast<int>(procs_.size());
  proc->body_ = std::move(body);
  procs_.push_back(std::move(proc));
  return procs_.back()->id_;
}

void Simulator::spawn_group(int n, const std::function<void(int)>& fn) {
  for (int rank = 0; rank < n; ++rank) {
    spawn([fn, rank] { fn(rank); });
  }
}

Process* Simulator::pick_next() const noexcept {
  Process* best = nullptr;
  for (const auto& p : procs_) {
    if (p->state_ != Process::State::Runnable) continue;
    if (best == nullptr || p->clock_ < best->clock_ ||
        (p->clock_ == best->clock_ && p->id_ < best->id_)) {
      best = p.get();
    }
  }
  return best;
}

void Simulator::wake(Process* p, Time at_least) noexcept {
  assert(p->state_ == Process::State::Blocked);
  p->clock_ = std::max(p->clock_, at_least);
  p->timed_ = false;
  p->timed_out_ = false;
  p->waiting_cond_ = nullptr;
  p->state_ = Process::State::Runnable;
}

void Simulator::trigger_abort(std::unique_lock<std::mutex>&) {
  if (aborting_) return;
  aborting_ = true;
  for (const auto& p : procs_) {
    if (p->state_ == Process::State::Blocked ||
        p->state_ == Process::State::Runnable) {
      p->abort_requested_ = true;
      p->cv_.notify_one();
    }
  }
}

void Simulator::remove_from_wait_queues(Process* p) noexcept {
  for (auto& entry : conds_) {
    auto& q = entry.second.waiters;
    q.erase(std::remove(q.begin(), q.end(), p), q.end());
  }
  for (auto& entry : mutexes_) {
    auto& q = entry.second.waiters;
    q.erase(std::remove(q.begin(), q.end(), p), q.end());
  }
  p->timed_ = false;
  p->timed_out_ = false;
  p->waiting_cond_ = nullptr;
}

void Simulator::kill_now(Process* self) {
  self->kill_pending_ = false;
  self->kill_at_armed_ = false;
  self->kill_on_lock_armed_ = false;
  self->kill_on_send_armed_ = false;
  self->killed_ = true;
  self->death_time_ = self->clock_;
  self->dead_flag_.store(true, std::memory_order_release);
  ++kills_;
  if (trace_ != nullptr) {
    trace_->record(self->clock_, self->id_, TraceKind::fault_injected, 1);
  }
  // A kill can land while this process sits in a wait queue (promoted from
  // Blocked, or dying at the sim point that was about to block).
  remove_from_wait_queues(self);
  // Robust waiters on locks the corpse holds must get a chance to suspect
  // and seize; plain waiters stay queued (they would hang, exactly like a
  // non-robust lock whose owner crashed).  Wake order does not matter —
  // the conductor still runs min-(clock, id) first — so iterating the
  // unordered map here cannot perturb determinism.
  for (auto& entry : mutexes_) {
    MutexState& m = entry.second;
    if (m.owner != self) continue;
    for (auto it = m.waiters.begin(); it != m.waiters.end();) {
      Process* w = *it;
      if (w->robust_waiting_ && w->state_ == Process::State::Blocked) {
        it = m.waiters.erase(it);
        wake(w, self->clock_);
      } else {
        ++it;
      }
    }
  }
  throw ProcessKilled{};
}

void Simulator::check_faults(Process* self) {
  if (self->killed_) return;
  if (self->pause_armed_ && self->clock_ >= self->pause_at_) {
    self->pause_armed_ = false;
    if (trace_ != nullptr) {
      trace_->record(self->clock_, self->id_, TraceKind::fault_injected, 2);
    }
    if (self->pause_resume_at_ > self->clock_) {
      self->clock_ = self->pause_resume_at_;
    }
  }
  if (self->kill_pending_ ||
      (self->kill_at_armed_ && self->clock_ >= self->kill_at_)) {
    kill_now(self);
  }
}

void Simulator::promote_events() noexcept {
  for (;;) {
    Process* runnable = pick_next();
    Process* best = nullptr;
    Time best_at = 0;
    bool best_is_kill = false;
    for (const auto& p : procs_) {
      if (p->state_ != Process::State::Blocked) continue;
      if (p->timed_ &&
          (best == nullptr || p->wake_at_ < best_at ||
           (p->wake_at_ == best_at && p->id_ < best->id_))) {
        best = p.get();
        best_at = p->wake_at_;
        best_is_kill = false;
      }
      if (p->kill_at_armed_) {
        // A blocked victim cannot reach a sim point; the conductor must
        // deliver its scheduled death as a timed event.
        const Time at = std::max(p->clock_, p->kill_at_);
        if (best == nullptr || at < best_at ||
            (at == best_at && p->id_ < best->id_)) {
          best = p.get();
          best_at = at;
          best_is_kill = true;
        }
      }
    }
    if (best == nullptr) return;
    if (runnable != nullptr && runnable->clock_ <= best_at) return;
    if (best_is_kill) {
      // Promote the victim with its death pending; it dies on resume.
      remove_from_wait_queues(best);
      best->clock_ = best_at;
      best->kill_pending_ = true;
      best->state_ = Process::State::Runnable;
      continue;
    }
    // The earliest possible event is this deadline: the sleeper times out.
    auto it = conds_.find(best->waiting_cond_);
    if (it != conds_.end()) {
      auto& q = it->second.waiters;
      q.erase(std::remove(q.begin(), q.end(), best), q.end());
    }
    best->clock_ = best->wake_at_;
    best->timed_ = false;
    best->timed_out_ = true;
    best->waiting_cond_ = nullptr;
    best->state_ = Process::State::Runnable;
  }
}

void Simulator::reschedule(std::unique_lock<std::mutex>& lk, Process* self) {
  if (aborting_ && self->state_ != Process::State::Done) {
    throw AbortProcess{};
  }
  // Every sim point funnels through here, so this is where injected
  // faults land for a running process (kills may throw ProcessKilled).
  if (self->state_ != Process::State::Done) check_faults(self);
  promote_events();
  Process* next = pick_next();
  if (next == self) {
    self->state_ = Process::State::Running;
    return;
  }
  if (next != nullptr) {
    next->state_ = Process::State::Running;
    ++switches_;
    next->cv_.notify_one();
  } else {
    // Nobody is runnable.  Either everything is finished, or every live
    // process is blocked -> deadlock.
    if (live_ == 0) {
      done_cv_.notify_all();
    } else {
      if (!first_error_) {
        first_error_ = std::make_exception_ptr(DeadlockError(
            "simulation deadlock: every live process is blocked"));
      }
      trigger_abort(lk);
    }
  }
  if (self->state_ == Process::State::Done) return;
  while (self->state_ != Process::State::Running) {
    if (self->abort_requested_) throw AbortProcess{};
    self->cv_.wait(lk);
  }
  if (aborting_) throw AbortProcess{};
  // A kill promoted from Blocked (or armed while we slept) fires before
  // control returns to the process body.
  check_faults(self);
}

void Simulator::thread_main(Process* self) {
  tl_current = self;
  {
    std::unique_lock<std::mutex> lk(mu_);
    while (self->state_ != Process::State::Running &&
           !self->abort_requested_) {
      self->cv_.wait(lk);
    }
  }
  if (!self->abort_requested_) {
    try {
      self->body_();
    } catch (const ProcessKilled&) {
      // An injected kill: the process ends here, mid-operation, leaving
      // its locks and journal exactly as they were.  Not an error — the
      // simulation continues and recovery takes over.
    } catch (const AbortProcess&) {
      // teardown in progress; fall through
    } catch (...) {
      std::unique_lock<std::mutex> lk(mu_);
      if (!first_error_) first_error_ = std::current_exception();
      trigger_abort(lk);
    }
  }
  std::unique_lock<std::mutex> lk(mu_);
  if (trace_ != nullptr && !self->killed_) {
    trace_->record(self->clock_, self->id_, TraceKind::done, 0);
  }
  self->state_ = Process::State::Done;
  makespan_ = std::max(makespan_, self->clock_);
  --live_;
  if (live_ == 0) {
    done_cv_.notify_all();
  } else {
    // Hand off to the next runnable process (or detect deadlock).
    try {
      reschedule(lk, self);
    } catch (const AbortProcess&) {
    }
  }
  tl_current = nullptr;
}

void Simulator::run() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (started_) throw std::logic_error("Simulator::run is one-shot");
    if (procs_.empty()) return;
    started_ = true;
    live_ = static_cast<int>(procs_.size());
    for (const auto& p : procs_) p->state_ = Process::State::Runnable;
    // Arm the fault plan (last action per process and kind wins).
    for (const FaultAction& a : plan_.actions) {
      if (a.process < 0 ||
          a.process >= static_cast<int>(procs_.size())) {
        continue;
      }
      Process* p = procs_[static_cast<std::size_t>(a.process)].get();
      switch (a.kind) {
        case FaultAction::Kind::kill_at_time:
          p->kill_at_armed_ = true;
          p->kill_at_ = a.at_ns;
          p->kill_on_lock_armed_ = p->kill_on_send_armed_ = false;
          break;
        case FaultAction::Kind::kill_at_lock_acq:
          p->kill_on_lock_armed_ = true;
          p->kill_on_lock_n_ = a.count;
          p->kill_at_armed_ = p->kill_on_send_armed_ = false;
          break;
        case FaultAction::Kind::kill_at_send:
          p->kill_on_send_armed_ = true;
          p->kill_on_send_n_ = a.count;
          p->kill_at_armed_ = p->kill_on_lock_armed_ = false;
          break;
        case FaultAction::Kind::pause:
          p->pause_armed_ = true;
          p->pause_at_ = a.at_ns;
          p->pause_resume_at_ = a.resume_at_ns;
          break;
      }
    }
  }
  for (const auto& p : procs_) {
    p->thread_ = std::thread([this, proc = p.get()] { thread_main(proc); });
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    Process* first = pick_next();
    if (first != nullptr) {
      first->state_ = Process::State::Running;
      first->cv_.notify_one();
    }
    done_cv_.wait(lk, [this] { return live_ == 0; });
  }
  for (const auto& p : procs_) {
    if (p->thread_.joinable()) p->thread_.join();
  }
  if (first_error_) std::rethrow_exception(first_error_);
}

Process* Simulator::current_checked() const {
  return tl_current;  // nullptr outside the simulation => charges ignored
}

void Simulator::advance(double ns) {
  Process* self = current_checked();
  if (self == nullptr) return;
  self->clock_ += static_cast<Time>(ns);
  std::unique_lock<std::mutex> lk(mu_);
  if (trace_ != nullptr) {
    trace_->record(self->clock_, self->id_, TraceKind::advance,
                   static_cast<std::uint64_t>(ns));
  }
  self->state_ = Process::State::Runnable;
  reschedule(lk, self);
}

Time Simulator::now() const noexcept {
  const Process* self = tl_current;
  return self != nullptr ? self->clock_ : 0;
}

void Simulator::finish_lock_acquire(std::unique_lock<std::mutex>& lk,
                                    Process* self, MutexState& m) {
  if (trace_ != nullptr) {
    trace_->record(self->clock_, self->id_, TraceKind::lock_acquire, 0);
  }
  // A TAS lock's acquisition cost grows with the crowd hammering the
  // cell: processes queued right now plus every other processor whose
  // cache still holds the line because it acquired the lock within the
  // hot window — each cached copy is invalidated over the shared bus.
  const Time now_t = self->clock_;
  const Time window = static_cast<Time>(model_.lock_hot_window_ns);
  while (!m.recent.empty() && m.recent.front().first + window < now_t) {
    m.recent.pop_front();
  }
  Process* seen[32];
  std::size_t crowd = 0;
  const auto note = [&](Process* p) {
    if (p == self) return;
    for (std::size_t i = 0; i < crowd; ++i) {
      if (seen[i] == p) return;
    }
    if (crowd < 32) seen[crowd++] = p;
  };
  for (Process* w : m.waiters) note(w);
  for (const auto& entry : m.recent) note(entry.second);
  const double contention =
      1.0 + model_.lock_contention_factor * static_cast<double>(crowd);
  self->clock_ += static_cast<Time>(model_.lock_ns * contention);
  m.recent.emplace_back(now_t, self);
  if (m.recent.size() > 64) m.recent.pop_front();
  // Fault trigger: the k-th acquisition arms a pending kill, so the death
  // lands at the very next sim point — inside this critical section, with
  // the lock held.  (Every acquisition counts, including condition-wait
  // re-acquisitions.)
  if (self->kill_on_lock_armed_ &&
      ++self->lock_acq_count_ == self->kill_on_lock_n_) {
    self->kill_on_lock_armed_ = false;
    self->kill_pending_ = true;
  }
  self->state_ = Process::State::Runnable;
  reschedule(lk, self);
}

void Simulator::seize_dead_owner(Process* self, MutexState& m, RobustOp& op) {
  // The waiter cannot distinguish a dead holder from a slow one until the
  // suspicion threshold elapses past the death.
  const Time base = std::max(self->clock_, m.owner->death_time_);
  self->clock_ = base + op.suspicion_ns;
  const auto tag =
      sync::SpinLock::tag_for(static_cast<std::uint32_t>(m.owner->id_));
  if (op.alive != nullptr) {
    // Fire the facility's probe for its accounting (suspicions counter,
    // declare_dead); a killed sim process never comes back, so the
    // verdict is always "dead".
    (void)op.alive(op.ctx, tag);
  }
  op.seized = true;
  op.seized_from = tag;
  if (trace_ != nullptr) {
    trace_->record(self->clock_, self->id_, TraceKind::recovery,
                   static_cast<std::uint64_t>(m.owner->id_));
  }
  m.owner = self;
}

void Simulator::mutex_lock(const void* cell) {
  Process* self = current_checked();
  if (self == nullptr) return;  // single-threaded setup: no contention
  std::unique_lock<std::mutex> lk(mu_);
  MutexState& m = mutexes_[cell];
  if (m.owner == nullptr) {
    m.owner = self;
  } else {
    if (trace_ != nullptr) {
      trace_->record(self->clock_, self->id_, TraceKind::lock_wait, 0);
    }
    m.waiters.push_back(self);
    self->state_ = Process::State::Blocked;
    reschedule(lk, self);  // resumes once unlock() transfers ownership to us
    assert(m.owner == self);
  }
  finish_lock_acquire(lk, self, m);
}

void Simulator::mutex_lock_robust(const void* cell, RobustOp& op) {
  Process* self = current_checked();
  if (self == nullptr) {
    // Pre-run setup / post-run audit outside the conductor: real cells
    // were never locked during the simulation, so a plain robust spin on
    // the (free) cell succeeds immediately.
    return;
  }
  std::unique_lock<std::mutex> lk(mu_);
  MutexState& m = mutexes_[cell];
  const bool suspecting = op.suspicion_ns > 0;
  for (;;) {
    if (m.owner == nullptr) {
      m.owner = self;
      break;
    }
    if (m.owner->killed_ && suspecting) {
      seize_dead_owner(self, m, op);
      break;
    }
    if (trace_ != nullptr) {
      trace_->record(self->clock_, self->id_, TraceKind::lock_wait, 0);
    }
    self->robust_waiting_ = suspecting;
    m.waiters.push_back(self);
    self->state_ = Process::State::Blocked;
    reschedule(lk, self);
    self->robust_waiting_ = false;
    // Either unlock() handed the lock to us, or the owner died and
    // kill_now woke us to suspect: loop and look again.
    if (m.owner == self) break;
  }
  finish_lock_acquire(lk, self, m);
}

void Simulator::mutex_unlock(const void* cell) {
  Process* self = current_checked();
  if (self == nullptr) return;
  std::unique_lock<std::mutex> lk(mu_);
  if (trace_ != nullptr) {
    trace_->record(self->clock_, self->id_, TraceKind::lock_release, 0);
  }
  MutexState& m = mutexes_[cell];
  assert(m.owner == self);
  if (m.waiters.empty()) {
    m.owner = nullptr;
  } else {
    Process* next_owner = m.waiters.front();
    m.waiters.pop_front();
    m.owner = next_owner;
    wake(next_owner, self->clock_);
  }
  self->state_ = Process::State::Runnable;
  reschedule(lk, self);
}

void Simulator::reacquire_after_wait(std::unique_lock<std::mutex>& lk,
                                     Process* self, const void* mutex_cell,
                                     RobustOp* op) {
  MutexState& m = mutexes_[mutex_cell];
  const bool suspecting = op != nullptr && op->suspicion_ns > 0;
  for (;;) {
    if (m.owner == nullptr) {
      m.owner = self;
      break;
    }
    if (m.owner == self) break;
    if (m.owner->killed_ && suspecting) {
      seize_dead_owner(self, m, *op);
      break;
    }
    self->robust_waiting_ = suspecting;
    m.waiters.push_back(self);
    self->state_ = Process::State::Blocked;
    reschedule(lk, self);
    self->robust_waiting_ = false;
  }
  self->clock_ += static_cast<Time>(model_.lock_ns);
  self->state_ = Process::State::Runnable;
  reschedule(lk, self);
}

bool Simulator::cond_wait_for(const void* mutex_cell, const void* cond_cell,
                              std::uint64_t timeout_ns, RobustOp* op) {
  Process* self = current_checked();
  if (self == nullptr) return true;
  std::unique_lock<std::mutex> lk(mu_);
  MutexState& m = mutexes_[mutex_cell];
  assert(m.owner == self);
  if (m.waiters.empty()) {
    m.owner = nullptr;
  } else {
    Process* next_owner = m.waiters.front();
    m.waiters.pop_front();
    m.owner = next_owner;
    wake(next_owner, self->clock_);
  }
  // An untimed sleep traces 0 where a timed one traces its timeout and
  // its outcome.
  const bool timed = timeout_ns != ~std::uint64_t{0};
  if (trace_ != nullptr) {
    trace_->record(self->clock_, self->id_, TraceKind::cond_sleep,
                   timed ? timeout_ns : 0);
  }
  conds_[cond_cell].waiters.push_back(self);
  if (timed) {
    self->timed_ = true;
    self->timed_out_ = false;
    self->wake_at_ = self->clock_ + timeout_ns;
  }
  self->waiting_cond_ = cond_cell;
  self->state_ = Process::State::Blocked;
  reschedule(lk, self);
  const bool notified = !self->timed_out_;
  self->timed_ = false;
  self->timed_out_ = false;
  self->waiting_cond_ = nullptr;
  if (notified) self->clock_ += static_cast<Time>(model_.wake_ns);
  if (trace_ != nullptr) {
    trace_->record(self->clock_, self->id_, TraceKind::cond_wake,
                   timed && notified ? 1 : 0);
  }
  reacquire_after_wait(lk, self, mutex_cell, op);
  return notified;
}

void Simulator::cond_notify_all(const void* cond_cell) {
  Process* self = current_checked();
  if (self == nullptr) return;
  std::unique_lock<std::mutex> lk(mu_);
  auto it = conds_.find(cond_cell);
  if (it != conds_.end()) {
    for (Process* w : it->second.waiters) wake(w, self->clock_);
    it->second.waiters.clear();
  }
  self->state_ = Process::State::Runnable;
  reschedule(lk, self);
}

bool Simulator::park_wait(const void* node_cell, std::uint64_t timeout_ns) {
  Process* self = current_checked();
  if (self == nullptr) return true;
  std::unique_lock<std::mutex> lk(mu_);
  // Like cond_wait_for but with no mutex to release and a single waiter:
  // the node's queue holds at most this process.
  if (trace_ != nullptr) {
    trace_->record(self->clock_, self->id_, TraceKind::cond_sleep, timeout_ns);
  }
  conds_[node_cell].waiters.push_back(self);
  if (timeout_ns != ~std::uint64_t{0}) {
    self->timed_ = true;
    self->timed_out_ = false;
    self->wake_at_ = self->clock_ + timeout_ns;
  }
  self->waiting_cond_ = node_cell;
  self->state_ = Process::State::Blocked;
  reschedule(lk, self);
  const bool notified = !self->timed_out_;
  self->timed_ = false;
  self->timed_out_ = false;
  self->waiting_cond_ = nullptr;
  if (notified) self->clock_ += static_cast<Time>(model_.wake_ns);
  if (trace_ != nullptr) {
    trace_->record(self->clock_, self->id_, TraceKind::cond_wake,
                   notified ? 1 : 0);
  }
  self->state_ = Process::State::Runnable;
  reschedule(lk, self);
  return notified;
}

void Simulator::park_wake(const void* node_cell) {
  Process* self = current_checked();
  if (self == nullptr) return;
  std::unique_lock<std::mutex> lk(mu_);
  auto it = conds_.find(node_cell);
  if (it != conds_.end() && !it->second.waiters.empty()) {
    Process* w = it->second.waiters.front();
    it->second.waiters.pop_front();
    wake(w, self->clock_);
  }
  self->state_ = Process::State::Runnable;
  reschedule(lk, self);
}

void Simulator::charge_copy(std::uint64_t bytes, std::uint64_t nblocks) {
  charge_copy_numa(bytes, nblocks, 0, 0, 0);
}

void Simulator::charge_copy_numa(std::uint64_t bytes, std::uint64_t nblocks,
                                 std::uint32_t read_node,
                                 std::uint32_t write_node,
                                 std::uint32_t exec_node) {
  Process* self = current_checked();
  if (self == nullptr) return;
  std::unique_lock<std::mutex> lk(mu_);
  const bool numa = model_.numa_nodes > 1;
  const bool remote_read = numa && read_node != exec_node;
  const bool remote_write = numa && write_node != exec_node;
  const double start = static_cast<double>(self->clock_);
  // Remote legs scale the per-byte cost: reads are latency-bound (each
  // line fill is a round trip), writes post and stream.  Both factors at
  // 1.0 reproduce the flat model's arithmetic exactly.
  double factor = 1.0;
  if (remote_read) factor += model_.numa_remote_read_factor - 1.0;
  if (remote_write) factor += model_.numa_remote_write_factor - 1.0;
  double per_byte = model_.copy_ns_per_byte;
  if (remote_read || remote_write) per_byte *= factor;
  const double cpu =
      static_cast<double>(bytes) * per_byte +
      static_cast<double>(nblocks) * model_.block_overhead_ns;
  const double cpu_done = start + cpu;
  const double bus_bytes =
      static_cast<double>(bytes) * model_.bus_fraction;
  const double bus_start = std::max(start, bus_free_at_);
  const double bus_done = bus_start + bus_bytes * model_.bus_ns_per_byte;
  bus_free_at_ = bus_done;
  bus_busy_ns_ += bus_done - bus_start;
  double done = std::max(cpu_done, bus_done);
  // Each remote leg also occupies the interconnect link between the two
  // nodes — a reserved resource, so concurrent remote transfers over the
  // same link queue in virtual time like bus contention.
  auto reserve_link = [&](std::uint32_t far) {
    const std::uint32_t lo = std::min(far, exec_node);
    const std::uint32_t hi = std::max(far, exec_node);
    const std::uint64_t key = (static_cast<std::uint64_t>(lo) << 32) | hi;
    double& link_free = link_free_at_[key];
    const double link_start = std::max(start, link_free);
    const double link_done =
        link_start + static_cast<double>(bytes) * model_.link_ns_per_byte;
    link_free = link_done;
    interconnect_busy_ns_ += link_done - link_start;
    done = std::max(done, link_done);
  };
  if (remote_read) reserve_link(read_node);
  if (remote_write && (!remote_read || write_node != read_node)) {
    reserve_link(write_node);
  }
  self->clock_ = static_cast<Time>(done);
  if (trace_ != nullptr) {
    trace_->record(self->clock_, self->id_, TraceKind::copy, bytes);
  }
  self->state_ = Process::State::Runnable;
  reschedule(lk, self);
}

void Simulator::charge_touch(std::uint64_t bytes) {
  Process* self = current_checked();
  if (self == nullptr) return;
  // Pressure follows the live buffer footprint: a deep backlog of
  // in-flight messages keeps evicting and re-faulting pages; thrashing
  // grows superlinearly with the overshoot.
  if (live_msg_bytes_ <= model_.resident_bytes) return;
  const double over =
      static_cast<double>(live_msg_bytes_ - model_.resident_bytes);
  const double pressure = std::min(
      model_.pressure_cap, over / static_cast<double>(model_.resident_bytes));
  const std::uint64_t pages = std::max<std::uint64_t>(
      (bytes + model_.page_bytes - 1) / model_.page_bytes, 1);
  const double extra =
      pressure * pressure * model_.fault_ns * static_cast<double>(pages);
  std::unique_lock<std::mutex> lk(mu_);
  faults_ += pages;
  self->clock_ += static_cast<Time>(extra);
  if (trace_ != nullptr) {
    trace_->record(self->clock_, self->id_, TraceKind::fault, pages);
  }
  self->state_ = Process::State::Runnable;
  reschedule(lk, self);
}

bool Simulator::process_alive(int pid) const noexcept {
  if (pid < 0 || pid >= static_cast<int>(procs_.size())) return true;
  return !procs_[static_cast<std::size_t>(pid)]->dead_flag_.load(
      std::memory_order_acquire);
}

void Simulator::count_send() noexcept {
  Process* self = current_checked();
  if (self == nullptr) return;
  if (self->kill_on_send_armed_ &&
      ++self->send_count_ == self->kill_on_send_n_) {
    self->kill_on_send_armed_ = false;
    // Fires at the next sim point — the fixed-cost charge at send entry.
    self->kill_pending_ = true;
  }
}

void Simulator::footprint_alloc(std::uint64_t bytes) noexcept {
  live_msg_bytes_ += bytes;
  peak_msg_bytes_ = std::max(peak_msg_bytes_, live_msg_bytes_);
}

void Simulator::footprint_free(std::uint64_t bytes) noexcept {
  live_msg_bytes_ = bytes > live_msg_bytes_ ? 0 : live_msg_bytes_ - bytes;
}

}  // namespace mpf::sim
