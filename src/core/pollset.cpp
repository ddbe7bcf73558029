// Ready sets, watches, poll sets and pulses (DESIGN.md §14): the one way
// to wait on many circuits, shared by receive_any (lnvc.cpp) and poll
// sets.  A waiter arms a watch on each idle receive connection it cares
// about; the next event that could make it deliverable fires the watch
// under the descriptor lock (mark the slot in the waiter's ready bitmap,
// unpark the waiter, disarm); the waiter pops marked slots, revalidates
// each under its lock, and delivers or re-arms.  Lock order: PollSet::lock
// -> LnvcDesc::lock, matching bucket -> descriptor.
#include <algorithm>
#include <bit>

#include "mpf/core/facility.hpp"

namespace mpf {

namespace {

constexpr std::uint64_t bit_of(std::uint32_t i) {
  return std::uint64_t{1} << (i & 63);
}

/// Take one bit of ready word `w` among `eligible`; -1 if none.  A word
/// seen empty gets its summary bit cleared and re-checked, so a fire that
/// lands in between restores the summary bit (or is seen by the re-check).
std::int64_t take_bit(const detail::ReadyBits& b, std::uint32_t w,
                      std::uint64_t eligible) {
  for (;;) {
    const std::uint64_t v = b.ready[w].load(std::memory_order_seq_cst);
    if ((v & eligible) == 0) {
      if (v == 0) {
        b.summary[w >> 6].fetch_and(~bit_of(w), std::memory_order_seq_cst);
        if (b.ready[w].load(std::memory_order_seq_cst) != 0) {
          b.summary[w >> 6].fetch_or(bit_of(w), std::memory_order_seq_cst);
        }
      }
      return -1;
    }
    const auto i = static_cast<std::uint32_t>(std::countr_zero(v & eligible));
    const std::uint64_t mask = std::uint64_t{1} << i;
    if ((b.ready[w].fetch_and(~mask, std::memory_order_seq_cst) & mask) != 0) {
      return static_cast<std::int64_t>(w) * 64 + i;
    }
  }
}

}  // namespace

detail::ReadySet& Facility::any_set(ProcessId pid) const noexcept {
  return static_cast<detail::ReadySet*>(arena_.raw(header_->any_sets))[pid];
}

detail::ReadyBits Facility::ready_bits(
    const detail::ReadySet& rs) const noexcept {
  auto* base = static_cast<std::atomic<std::uint64_t>*>(arena_.raw(rs.bits));
  const std::uint32_t words = header_->ready_words;
  auto* ready = base + header_->summary_words;
  return detail::ReadyBits{base, ready, ready + words};
}

bool Facility::pop_ready(const detail::ReadyBits& b, std::uint32_t from,
                         std::uint32_t* slot) const noexcept {
  const std::uint32_t words = header_->ready_words;
  if (from >= header_->max_lnvcs) from = 0;
  const std::uint32_t w0 = from >> 6;
  // Rotation from `from`: the tail of its word, every later word, the
  // earlier words (wrapping), and finally the head of its word.
  std::int64_t got = take_bit(b, w0, ~std::uint64_t{0} << (from & 63));
  // Later words in [lo, hi), found through the summary level.
  const auto scan = [&](std::uint32_t lo, std::uint32_t hi) -> std::int64_t {
    for (std::uint32_t w = lo; w < hi;) {
      const std::uint32_t sw = w >> 6;
      const std::uint64_t m = b.summary[sw].load(std::memory_order_seq_cst) &
                              (~std::uint64_t{0} << (w & 63));
      if (m == 0) {
        w = (sw + 1) * 64;
        continue;
      }
      w = sw * 64 + static_cast<std::uint32_t>(std::countr_zero(m));
      if (w >= hi) break;
      const std::int64_t r = take_bit(b, w, ~std::uint64_t{0});
      if (r >= 0) return r;
      ++w;
    }
    return -1;
  };
  if (got < 0) got = scan(w0 + 1, words);
  if (got < 0) got = scan(0, w0);
  if (got < 0 && (from & 63) != 0) {
    got = take_bit(b, w0, ~(~std::uint64_t{0} << (from & 63)));
  }
  if (got < 0) return false;
  *slot = static_cast<std::uint32_t>(got);
  return true;
}

void Facility::reset_ready_set(detail::ReadySet& rs) const noexcept {
  const std::size_t n =
      header_->summary_words + 2 * std::size_t{header_->ready_words};
  auto* w = static_cast<std::atomic<std::uint64_t>*>(arena_.raw(rs.bits));
  for (std::size_t i = 0; i < n; ++i) w[i].store(0, std::memory_order_relaxed);
  rs.cursor.store(0, std::memory_order_relaxed);
  rs.epoch.fetch_add(1, std::memory_order_seq_cst);
}

bool Facility::conn_ready(detail::LnvcDesc& d, const detail::Connection& c,
                          bool pulses) {
  // Settle lock-free pushes first so the answer covers them.
  if (header_->lockfree_fcfs != 0) drain_injection(d);
  if (c.is_fcfs() ? static_cast<bool>(d.fcfs_head)
                  : c.bcast_head != shm::kNullOffset) {
    return true;
  }
  if (pulses) {
    for (const auto& p : d.pulses) {
      if (p.count != 0) return true;
    }
  }
  return false;
}

void Facility::watch_fire(detail::LnvcDesc& d, detail::Connection& c,
                          std::uint32_t mask) {
  const std::uint32_t fire = c.armed & mask;
  if (fire == 0) return;
  const auto s = static_cast<std::uint32_t>(&d - table());
  // Mark before disarming: a firer dying in between leaves the watch both
  // armed and marked, which the waiter's revalidation absorbs.
  if ((fire & detail::Connection::kWatchAny) != 0 &&
      c.process_id < header_->max_processes) {
    detail::mark_ready(ready_bits(any_set(c.process_id)), s);
    platform_->unpark(pslot(c.process_id).park_node);
    header_->wakes.fetch_add(1, std::memory_order_relaxed);
  }
  if ((fire & detail::Connection::kWatchPoll) != 0 &&
      c.pollset - 1 < header_->max_pollsets) {
    detail::PollSet& ps = pollset_table()[c.pollset - 1];
    detail::mark_ready(ready_bits(ps.rs), s);
    header_->pollset_wakes.fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t w = ps.waiter_pid.load(std::memory_order_seq_cst);
    if (w != 0 && w - 1 < header_->max_processes) {
      platform_->unpark(pslot(w - 1).park_node);
    }
  }
  watch_disarm(d, c, fire);
}

void Facility::watch_fire_all(detail::LnvcDesc& d, std::uint32_t mask) {
  if (d.armed.load(std::memory_order_relaxed) == 0) return;
  for (shm::Offset off = d.connections.off; off != shm::kNullOffset;) {
    auto* c = static_cast<detail::Connection*>(arena_.raw(off));
    watch_fire(d, *c, mask);
    off = c->next;
  }
}

bool Facility::watch_arm(detail::LnvcDesc& d, detail::Connection& c,
                         std::uint32_t bit, bool pulses) {
  if ((c.armed & bit) == 0) {
    c.armed |= bit;
    d.armed.fetch_add(1, std::memory_order_seq_cst);
  }
  // Dekker recheck: a lock-free sender pushes (seq_cst CAS) and then loads
  // d.armed (seq_cst).  Either it sees our arming and fires under the
  // lock, or its push precedes our increment and this load sees it.
  if (header_->lockfree_fcfs != 0 &&
      d.inject_head.load(std::memory_order_seq_cst) != shm::kNullOffset &&
      conn_ready(d, c, pulses)) {
    watch_disarm(d, c, bit);
    return true;
  }
  return false;
}

void Facility::watch_disarm(detail::LnvcDesc& d, detail::Connection& c,
                            std::uint32_t bits) {
  const std::uint32_t clear = c.armed & bits;
  if (clear == 0) return;
  c.armed &= ~clear;
  d.armed.fetch_sub(static_cast<std::uint32_t>(std::popcount(clear)),
                    std::memory_order_seq_cst);
}

void Facility::park_on_set(ProcessId pid, const detail::ReadyBits& b,
                           std::uint64_t deadline) {
  // Epoch snapshot before the recheck: a firer marks first and unparks
  // after, so a mark the recheck misses has moved the epoch already.
  detail::ProcSlot& self = pslot(pid);
  const std::uint32_t epoch = sync::Parker::prepare(self.park_node);
  for (std::uint32_t w = 0; w < header_->summary_words; ++w) {
    if (b.summary[w].load(std::memory_order_seq_cst) != 0) return;
  }
  std::uint64_t park_deadline = deadline;
  if (header_->suspicion_ns != 0) {
    park_deadline = std::min(park_deadline,
                             platform_->now_ns() + header_->suspicion_ns);
  }
  header_->parks.fetch_add(1, std::memory_order_relaxed);
  if (platform_->park(self.park_node, epoch, park_deadline,
                      header_->park_spin_ns)) {
    return;
  }
  // Suspicion expiry with no wake: a watched circuit's lock may be held by
  // a process that died mid-send, owing us a fire.  Seizing the lock runs
  // the repair, which fires every watch on the circuit.
  for (std::uint32_t w = 0; w < header_->ready_words; ++w) {
    for (std::uint64_t m = b.member[w].load(std::memory_order_relaxed); m != 0;
         m &= m - 1) {
      detail::LnvcDesc& d =
          table()[w * 64 + static_cast<std::uint32_t>(std::countr_zero(m))];
      const std::uint32_t tag = d.lock.holder_tag();
      if (tag < 2 || process_alive(sync::SpinLock::pid_of(tag))) continue;
      const ProcessId dead = alock_lnvc(d, pid);
      platform_->unlock(d.lock);
      reap_if_dead(pid, dead);
    }
  }
}

// ---------------------------------------------------------------- poll sets

Status Facility::pollset_create(ProcessId pid, PollSetId* out) {
  if (out == nullptr || pid >= header_->max_processes) {
    return Status::invalid_argument;
  }
  *out = kInvalidPollSet;
  register_process(pid);
  ProcessId dead = kNoProcess;
  detail::PollSet* tab = pollset_table();
  for (std::uint32_t i = 0; i < header_->max_pollsets; ++i) {
    detail::PollSet& ps = tab[i];
    const ProcessId seized = alock(ps.lock, pid);
    if (seized != kNoProcess && dead == kNoProcess) dead = seized;
    if (ps.in_use != 0) {
      platform_->unlock(ps.lock);
      continue;
    }
    ps.owner_pid = pid;  // the ready set was cleared by the last destroy
    ps.waiter_pid.store(0, std::memory_order_relaxed);
    ps.in_use = 1;
    platform_->unlock(ps.lock);
    *out = static_cast<PollSetId>(i);
    reap_if_dead(pid, dead);
    return Status::ok;
  }
  reap_if_dead(pid, dead);
  return Status::table_full;
}

void Facility::pollset_destroy_locked(ProcessId pid, detail::PollSet& ps) {
  const auto psi1 = static_cast<std::uint32_t>(&ps - pollset_table()) + 1;
  const detail::ReadyBits b = ready_bits(ps.rs);
  ProcessId dead = kNoProcess;
  // Detach every member connection (member bits mirror them; a member
  // whose connection already closed just has its bit dropped).
  for (std::uint32_t w = 0; w < header_->ready_words; ++w) {
    std::uint64_t m = b.member[w].load(std::memory_order_relaxed);
    while (m != 0) {
      const std::uint32_t s =
          w * 64 + static_cast<std::uint32_t>(std::countr_zero(m));
      m &= m - 1;
      detail::LnvcDesc& d = table()[s];
      const ProcessId seized = alock_lnvc(d, pid);
      if (seized != kNoProcess && dead == kNoProcess) dead = seized;
      detail::Connection* c =
          d.in_use != 0 ? find_conn(d, ps.owner_pid, /*sender=*/false)
                        : nullptr;
      if (c != nullptr && c->pollset == psi1) {
        watch_disarm(d, *c, detail::Connection::kWatchPoll);
        c->pollset = 0;
      }
      b.member[w].fetch_and(~bit_of(s), std::memory_order_relaxed);
      platform_->unlock(d.lock);
    }
  }
  reset_ready_set(ps.rs);
  ++ps.generation;  // stale waiter guard
  ps.in_use = 0;
  ps.owner_pid = 0;
  const std::uint32_t w = ps.waiter_pid.exchange(0, std::memory_order_seq_cst);
  platform_->unlock(ps.lock);
  if (w != 0 && w - 1 < header_->max_processes) {
    platform_->unpark(pslot(w - 1).park_node);
  }
  if (dead != kNoProcess) reap_if_dead(pid, dead);
}

Status Facility::pollset_destroy(ProcessId pid, PollSetId psid) {
  if (pid >= header_->max_processes || psid < 0 ||
      static_cast<std::uint32_t>(psid) >= header_->max_pollsets) {
    return Status::invalid_argument;
  }
  detail::PollSet& ps = pollset_table()[psid];
  const ProcessId dead = alock(ps.lock, pid);
  if (ps.in_use == 0) {
    platform_->unlock(ps.lock);
    reap_if_dead(pid, dead);
    return Status::no_such_lnvc;
  }
  pollset_destroy_locked(pid, ps);  // unlocks
  reap_if_dead(pid, dead);
  return Status::ok;
}

Status Facility::pollset_add(ProcessId pid, PollSetId psid, LnvcId id) {
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr || pid >= header_->max_processes || psid < 0 ||
      static_cast<std::uint32_t>(psid) >= header_->max_pollsets) {
    return Status::invalid_argument;
  }
  detail::PollSet& ps = pollset_table()[psid];
  ProcessId dead = alock(ps.lock, pid);
  Status st = ps.in_use == 0        ? Status::no_such_lnvc
              : ps.owner_pid != pid ? Status::not_connected
                                    : Status::ok;
  std::uint32_t waiter = 0;
  if (st == Status::ok) {
    const ProcessId seized = alock_lnvc(*d, pid);
    if (dead == kNoProcess) dead = seized;
    detail::Connection* c =
        d->in_use != 0 ? find_conn(*d, pid, /*sender=*/false) : nullptr;
    if (c == nullptr) {
      st = d->in_use == 0 ? Status::no_such_lnvc : Status::not_connected;
    } else {
      // At most one poll set per circuit, whichever connection enrolled it.
      for (shm::Offset off = d->connections.off; off != shm::kNullOffset;) {
        const auto* o = static_cast<const detail::Connection*>(arena_.raw(off));
        if (o->pollset != 0) st = Status::rejected;
        off = o->next;
      }
    }
    if (st == Status::ok) {
      const auto s = static_cast<std::uint32_t>(d - table());
      const detail::ReadyBits b = ready_bits(ps.rs);
      c->pollset = static_cast<std::uint32_t>(psid) + 1;
      b.member[s >> 6].fetch_or(bit_of(s), std::memory_order_relaxed);
      // Prime ready: the first wait must observe messages queued before
      // the add, so the member starts marked (its revalidation arms it).
      detail::mark_ready(b, s);
      waiter = ps.waiter_pid.load(std::memory_order_seq_cst);
    }
    platform_->unlock(d->lock);
  }
  platform_->unlock(ps.lock);
  if (waiter != 0 && waiter - 1 < header_->max_processes) {
    platform_->unpark(pslot(waiter - 1).park_node);
  }
  reap_if_dead(pid, dead);
  return st;
}

Status Facility::pollset_remove(ProcessId pid, PollSetId psid, LnvcId id) {
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr || pid >= header_->max_processes || psid < 0 ||
      static_cast<std::uint32_t>(psid) >= header_->max_pollsets) {
    return Status::invalid_argument;
  }
  detail::PollSet& ps = pollset_table()[psid];
  ProcessId dead = alock(ps.lock, pid);
  Status st = ps.in_use == 0        ? Status::no_such_lnvc
              : ps.owner_pid != pid ? Status::not_connected
                                    : Status::ok;
  if (st == Status::ok) {
    const ProcessId seized = alock_lnvc(*d, pid);
    if (dead == kNoProcess) dead = seized;
    detail::Connection* c =
        d->in_use != 0 ? find_conn(*d, pid, /*sender=*/false) : nullptr;
    if (c == nullptr || c->pollset != static_cast<std::uint32_t>(psid) + 1) {
      st = Status::not_connected;
    } else {
      watch_disarm(*d, *c, detail::Connection::kWatchPoll);
      c->pollset = 0;
      // A mark still pending for the slot dies at the next wait's member
      // check.
      const auto s = static_cast<std::uint32_t>(d - table());
      ready_bits(ps.rs).member[s >> 6].fetch_and(~bit_of(s),
                                                 std::memory_order_relaxed);
    }
    platform_->unlock(d->lock);
  }
  platform_->unlock(ps.lock);
  reap_if_dead(pid, dead);
  return st;
}

Status Facility::pollset_wait(ProcessId pid, PollSetId psid, LnvcId* out,
                              std::uint64_t timeout_ns) {
  if (out == nullptr || pid >= header_->max_processes || psid < 0 ||
      static_cast<std::uint32_t>(psid) >= header_->max_pollsets) {
    return Status::invalid_argument;
  }
  *out = kInvalidLnvc;
  detail::PollSet& ps = pollset_table()[psid];
  ProcessId dead = alock(ps.lock, pid);
  if (ps.in_use == 0) {
    platform_->unlock(ps.lock);
    reap_if_dead(pid, dead);
    return Status::no_such_lnvc;
  }
  const std::uint32_t generation = ps.generation;
  const auto psi1 = static_cast<std::uint32_t>(psid) + 1;
  // Single-waiter claim for the whole call: fires unpark whoever this
  // word names.  A dead claimant is seized under ps.lock (it can never
  // clear the word again).
  std::uint32_t expect = 0;
  if (!ps.waiter_pid.compare_exchange_strong(expect, pid + 1,
                                             std::memory_order_seq_cst) &&
      expect != pid + 1) {
    if (expect != 0 && !process_alive(expect - 1)) {
      if (dead == kNoProcess) dead = expect - 1;
      ps.waiter_pid.store(pid + 1, std::memory_order_seq_cst);
    } else {
      platform_->unlock(ps.lock);
      reap_if_dead(pid, dead);
      return Status::busy;
    }
  }
  const std::uint64_t deadline = platform_->deadline_after(timeout_ns);
  const detail::ReadyBits b = ready_bits(ps.rs);
  Status result = Status::timed_out;
  for (;;) {
    // ps.lock held at the top of every pass.
    if (ps.in_use == 0 || ps.generation != generation) {
      result = Status::closed;  // destroyed under us
      break;
    }
    std::uint32_t s = 0;
    bool found = false;
    while (!found &&
           pop_ready(b, ps.rs.cursor.load(std::memory_order_relaxed), &s)) {
      if ((b.member[s >> 6].load(std::memory_order_relaxed) & bit_of(s)) ==
          0) {
        continue;  // a mark for a removed member
      }
      detail::LnvcDesc& d = table()[s];
      const ProcessId seized = alock_lnvc(d, pid);
      if (seized != kNoProcess && dead == kNoProcess) dead = seized;
      header_->any_rescans.fetch_add(1, std::memory_order_relaxed);
      detail::Connection* c =
          d.in_use != 0 ? find_conn(d, ps.owner_pid, /*sender=*/false)
                        : nullptr;
      if (c == nullptr || c->pollset != psi1) {
        // The member connection closed (or the circuit died): drop it.
        b.member[s >> 6].fetch_and(~bit_of(s), std::memory_order_relaxed);
        platform_->unlock(d.lock);
        continue;
      }
      found = conn_ready(d, *c, /*pulses=*/true) ||
              watch_arm(d, *c, detail::Connection::kWatchPoll,
                        /*pulses=*/true);
      platform_->unlock(d.lock);
    }
    if (found) {
      // Level-triggered: stays marked until a wait finds it drained.
      detail::mark_ready(b, s);
      ps.rs.cursor.store(s + 1, std::memory_order_relaxed);
      *out = static_cast<LnvcId>(s);
      result = Status::ok;
      break;
    }
    // A poll (deadline 0) ends after one full pass.
    if (deadline != kNoDeadline && platform_->now_ns() >= deadline) break;
    platform_->unlock(ps.lock);
    park_on_set(pid, b, deadline);
    const ProcessId seized = alock(ps.lock, pid);
    if (seized != kNoProcess && dead == kNoProcess) dead = seized;
  }
  std::uint32_t self_claim = pid + 1;
  ps.waiter_pid.compare_exchange_strong(self_claim, 0,
                                        std::memory_order_seq_cst);
  platform_->unlock(ps.lock);
  reap_if_dead(pid, dead);
  return result;
}

// ------------------------------------------------------------------- pulses

Status Facility::send_pulse(ProcessId pid, LnvcId id, std::uint32_t code) {
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr || pid >= header_->max_processes) {
    return Status::invalid_argument;
  }
  platform_->charge_ops(1.0);
  const ProcessId dead = alock_lnvc(*d, pid);
  if (d->in_use == 0) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, dead);
    return Status::no_such_lnvc;
  }
  if (find_conn(*d, pid, /*sender=*/true) == nullptr) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, dead);
    return Status::not_connected;
  }
  Status st = Status::table_full;
  for (auto& p : d->pulses) {
    if (p.count != 0 && p.code == code) {
      ++p.count;
      header_->pulses_coalesced.fetch_add(1, std::memory_order_relaxed);
      st = Status::ok;
      break;
    }
  }
  if (st != Status::ok) {
    for (auto& p : d->pulses) {
      if (p.count == 0) {
        p.code = code;
        p.count = 1;
        st = Status::ok;
        break;
      }
    }
  }
  if (st == Status::ok) {
    header_->pulses_sent.fetch_add(1, std::memory_order_relaxed);
    // Pulses are not messages: only poll-set watches care about them.
    watch_fire_all(*d, detail::Connection::kWatchPoll);
  }
  platform_->unlock(d->lock);
  if (st == Status::ok) {
    // Receive/claim paths ignore pulses; the cond wake is spurious and
    // rechecked, kept for waiters that poll pulses between receives.
    platform_->notify_all(d->cond);
  }
  reap_if_dead(pid, dead);
  return st;
}

Status Facility::receive_pulse(ProcessId pid, LnvcId id,
                               std::uint32_t* out_code,
                               std::uint32_t* out_count) {
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr || pid >= header_->max_processes || out_code == nullptr ||
      out_count == nullptr) {
    return Status::invalid_argument;
  }
  *out_code = 0;
  *out_count = 0;
  platform_->charge_ops(1.0);
  const ProcessId dead = alock_lnvc(*d, pid);
  if (d->in_use == 0) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, dead);
    return Status::no_such_lnvc;
  }
  if (find_conn(*d, pid, /*sender=*/false) == nullptr) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, dead);
    return Status::not_connected;
  }
  for (auto& p : d->pulses) {
    if (p.count != 0) {
      *out_code = p.code;
      *out_count = p.count;
      p = detail::PulseSlot{};
      break;
    }
  }
  platform_->unlock(d->lock);
  reap_if_dead(pid, dead);
  return Status::ok;
}

}  // namespace mpf
