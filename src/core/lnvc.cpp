// Message transfer over LNVCs: send, receive, check, and the
// reference-counted reclamation that keeps the FIFO bounded.
//
// Crash-tolerance discipline (see recovery.cpp for the reasoning): every
// descriptor lock is taken robustly (alock_lnvc), every block of the
// message's journey is covered by an intent-journal record, and every
// public entry point drains pending reaps (reap_if_dead) on its way out,
// once no facility lock is held.
#include <algorithm>
#include <bit>
#include <cstring>

#include "mpf/core/facility.hpp"

namespace mpf {

namespace {

/// Upper bound on one message; a sanity valve, not a protocol limit.
constexpr std::size_t kMaxMessageBytes = 64ull << 20;

std::size_t blocks_for(std::size_t len, std::uint32_t payload) {
  return payload == 0 ? 0 : (len + payload - 1) / payload;
}

/// Slot `s`'s entry in an open-addressed AnyMemo table, or the empty entry
/// where it would go.
detail::AnyMemo::Entry& memo_entry(std::vector<detail::AnyMemo::Entry>& t,
                                   std::uint32_t s) {
  const std::size_t mask = t.size() - 1;
  for (std::size_t i = (std::uint64_t{s} * 0x9E3779B97F4A7C15ull) >> 40;;
       ++i) {
    detail::AnyMemo::Entry& e = t[i & mask];
    if (e.slot1 == 0 || e.slot1 == s + 1) return e;
  }
}

}  // namespace

template <class Fn>
void Facility::for_each_run(shm::Offset head, std::size_t bytes,
                            Fn&& fn) const {
  shm::for_each_run(
      arena_, head, bytes,
      [this](shm::Offset b) -> const shm::RunAllocator& {
        return shards()[owner_shard(b)].blocks;
      },
      fn);
}

void Facility::copy_to_chain(shm::Offset chain,
                             std::span<const ConstBuffer> iov,
                             std::size_t len) const {
  const ConstBuffer* io = iov.data();
  std::size_t at = 0;  // bytes of *io already copied
  for_each_run(chain, len, [&](shm::Offset payload, std::size_t n) {
    auto* dst = static_cast<std::byte*>(arena_.raw(payload));
    while (n > 0) {
      while (at == io->len) {  // skip spent (and empty) pieces
        ++io;
        at = 0;
      }
      const std::size_t chunk = std::min(n, io->len - at);
      std::memcpy(dst, static_cast<const std::byte*>(io->data) + at, chunk);
      dst += chunk;
      at += chunk;
      n -= chunk;
    }
  });
}

void Facility::reclaim(ProcessId pid, detail::LnvcDesc& d) {
  // Recycle from the front of the FIFO while the head message has been
  // FCFS-consumed, read by every BROADCAST receiver that claims it, and is
  // not being copied out right now.
  while (d.msg_head) {
    auto* m = arena_.get(d.msg_head);
    if (m->fcfs_consumed == 0 ||
        m->bcast_remaining.load(std::memory_order_acquire) != 0 ||
        m->pins != 0) {
      break;
    }
    d.msg_head = shm::Ref<detail::MsgHeader>{m->next_msg};
    if (!d.msg_head) d.msg_tail = shm::Ref<detail::MsgHeader>{};
    quota_release(d, *m);
    free_message(pid, m);
  }
}

void Facility::quota_release(detail::LnvcDesc& d, const detail::MsgHeader& m) {
  // Saturating: a quota set after messages were already queued (or cleared
  // while they drain) leaves the ledger counting only the charged ones.
  if ((m.flags & detail::MsgHeader::kSlab) != 0) {
    if (d.used_slabs > 0) --d.used_slabs;
  } else {
    d.used_blocks = d.used_blocks >= m.nblocks ? d.used_blocks - m.nblocks : 0;
  }
}

void Facility::quota_refund(ProcessId pid, detail::LnvcDesc& d) {
  detail::ProcSlot& ps = pslot(pid);
  if (ps.q_active.load(std::memory_order_acquire) == 0) return;
  d.used_blocks =
      d.used_blocks >= ps.q_blocks ? d.used_blocks - ps.q_blocks : 0;
  d.used_slabs = d.used_slabs >= ps.q_slabs ? d.used_slabs - ps.q_slabs : 0;
  ps.q_active.store(0, std::memory_order_release);
}

void Facility::park_ripple(detail::LnvcDesc& d) {
  // Cheap when nobody is parked (the default-config case): one load.
  // Waiters register under the descriptor lock before sleeping and
  // re-check the quota under it after waking, so a notify here (after any
  // release done under that lock) cannot be lost.
  if (d.park_waiters.load(std::memory_order_acquire) > 0) {
    platform_->notify_all(d.park_cond);
  }
}

bool Facility::probe_claim(detail::LnvcDesc& d, ProcessId pid) {
  // Descriptor lock held.  One prober per circuit: without the token, every
  // blocked peer wakes at suspicion_ns, re-acquires `lock`, and sweeps the
  // connection list — with hundreds of simultaneous waiters (a barrier, an
  // overloaded funnel) the probe convoy alone saturates the lock.  The
  // token holder probes at the tight period; everyone else stretches out
  // (probe_wait_ns) and relies on the prober's reap + notify.
  const std::uint32_t me = static_cast<std::uint32_t>(pid) + 1;
  const std::uint32_t cur = d.prober;
  if (cur == me) return true;
  if (cur != 0 && process_alive(static_cast<ProcessId>(cur - 1))) {
    return false;
  }
  d.prober = me;
  return true;
}

std::uint64_t Facility::probe_wait_ns(ProcessId pid, std::uint64_t suspicion,
                                      bool prober) {
  if (prober) return suspicion;
  // Lazy waiters still sweep on their (rare) un-notified timeouts, which
  // re-elects a prober whose holder died.  The pid jitter keeps the lazy
  // wakes from re-converging into the convoy the token exists to break.
  return suspicion * (16 + (static_cast<std::uint64_t>(pid) & 15));
}

void Facility::reap_dead_sender(detail::LnvcDesc& d, ProcessId pid) {
  for (shm::Offset off = d.connections.off; off != shm::kNullOffset;) {
    const auto* c = static_cast<const detail::Connection*>(arena_.raw(off));
    if (c->is_sender() && !process_alive(c->process_id)) {
      const ProcessId suspect = c->process_id;
      platform_->unlock(d.lock);
      reap_if_dead(pid, suspect);
      alock_lnvc(d, pid);
      return;
    }
    off = c->next;
  }
}

void Facility::probe_release(detail::LnvcDesc& d, ProcessId pid) {
  if (d.prober == static_cast<std::uint32_t>(pid) + 1) d.prober = 0;
}

void Facility::update_fast_state(detail::LnvcDesc& d) {
  // Descriptor lock held.  Every structural change a cached fast-path
  // validation depends on funnels through here: the epoch bump invalidates
  // every ProcSlot::fast_seen cache.
  const std::uint64_t old = d.fast_state.load(std::memory_order_relaxed);
  const bool eligible = header_->lockfree_fcfs != 0 && d.in_use != 0 &&
                        d.n_bcast == 0 && d.quota_blocks == 0 &&
                        d.quota_slabs == 0;
  const std::uint64_t epoch = (old >> 1) + 1;
  d.fast_state.store((epoch << 1) | (eligible ? 1 : 0),
                     std::memory_order_seq_cst);
  if ((old & 1) != 0 && !eligible) {
    // Eligibility dropped: parked receivers are waiting for fast-path
    // wakes that will no longer come.  Kick them all so they migrate to
    // the cond path (or observe close/destroy).
    rpark_wake(d, d.generation, /*all=*/true);
  } else if ((old & 1) == 0 && eligible) {
    // Eligibility rose: receivers blocked on the cond path would never be
    // notified by fast sends.  Wake them so they migrate to the park path.
    platform_->notify_all(d.cond);
  }
}

void Facility::rpark_wake(detail::LnvcDesc& d, std::uint32_t gen, bool all) {
  // Lock-free head-by-scan over the parked-receiver FIFO, mirroring the
  // quota park FIFO: wake the smallest live ticket (or everyone).  Waking
  // a process that already left (or died) is harmless — the epoch bump is
  // absorbed by its next prepare().
  if (d.rpark_waiters.load(std::memory_order_seq_cst) == 0) return;
  const auto id32 = static_cast<std::uint32_t>(&d - table());
  ProcessId best = kNoProcess;
  std::uint64_t best_ticket = 0;
  for (ProcessId p = 0; p < header_->max_processes; ++p) {
    detail::ProcSlot& q = pslot(p);
    if (q.rpark_active.load(std::memory_order_seq_cst) == 0) continue;
    if (q.rpark_lnvc.load(std::memory_order_relaxed) != id32 ||
        q.rpark_gen.load(std::memory_order_relaxed) != gen) {
      continue;
    }
    if (all) {
      platform_->unpark(q.park_node);
      header_->wakes.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const std::uint64_t t = q.rpark_ticket.load(std::memory_order_relaxed);
    if (best == kNoProcess || t < best_ticket) {
      best = p;
      best_ticket = t;
    }
  }
  if (!all && best != kNoProcess) {
    platform_->unpark(pslot(best).park_node);
    header_->wakes.fetch_add(1, std::memory_order_relaxed);
  }
}

void Facility::drain_injection(detail::LnvcDesc& d) {
  // Descriptor lock held.  Splice the injection stack into the FIFO in
  // push order.  The stack chain (inject_next) is left intact until the
  // cut at the end: a drainer dying mid-splice leaves every message still
  // reachable from inject_head, and repair_lnvc truncates the chain above
  // the already-settled suffix.
  const shm::Offset snap = d.inject_head.load(std::memory_order_seq_cst);
  if (snap == shm::kNullOffset) return;
  std::vector<detail::MsgHeader*> nodes;  // newest first
  for (shm::Offset at = snap; at != shm::kNullOffset;) {
    auto* m = static_cast<detail::MsgHeader*>(arena_.raw(at));
    nodes.push_back(m);
    at = m->inject_next;
  }
  for (std::size_t k = nodes.size(); k-- > 0;) {
    detail::MsgHeader* m = nodes[k];
    const shm::Offset off = arena_.ref_of(m).off;
    if (m->inject_gen != d.generation) {
      // Residual from a previous circuit on this slot: its push raced
      // destroy + reuse.  It must not enter this circuit's FIFO; park it
      // on the orphan list (linked via next_msg — it is in no FIFO) for
      // its sender's reconcile path or reaper.  Residuals predate every
      // current-generation push, so they form the deepest suffix and the
      // settled-suffix invariant holds.
      m->next_msg = d.orphan_head;
      d.orphan_head = off;
      continue;
    }
    // Publication receipt BEFORE the link: once inject_drained covers the
    // stamp, the sender's journal resolves as "delivered" — which is true
    // the instant we commit to splicing (a crash between receipt and link
    // leaves the message on the uncut stack, and the next drain finishes
    // the job).
    {
      detail::ProcSlot& sp = pslot(m->src_pid);
      std::uint64_t cur = sp.inject_drained.load(std::memory_order_relaxed);
      while (cur < m->inject_stamp &&
             !sp.inject_drained.compare_exchange_weak(
                 cur, m->inject_stamp, std::memory_order_acq_rel)) {
      }
    }
    // Assign exactly what a locked enqueue would have.
    m->next_msg = shm::kNullOffset;
    m->seq = d.seq_counter++;
    m->bcast_remaining.store(d.n_bcast, std::memory_order_relaxed);
    m->fcfs_consumed = (header_->reclaim_broadcast_only != 0 &&
                        d.n_fcfs == 0 && d.n_bcast > 0)
                           ? 1
                           : 0;
    m->pins = 0;
    if (d.msg_tail) {
      arena_.get(d.msg_tail)->next_msg = off;
    } else {
      d.msg_head = shm::Ref<detail::MsgHeader>{off};
    }
    d.msg_tail = shm::Ref<detail::MsgHeader>{off};
    if (m->fcfs_consumed == 0) {
      ++d.n_queued;
      if (!d.fcfs_head) d.fcfs_head = shm::Ref<detail::MsgHeader>{off};
    }
    if (d.n_bcast > 0) {
      // A BROADCAST receiver opened after this push (eligibility has
      // already dropped, but stacked messages predate the drain): at-tail
      // cursors now point here.
      shm::Offset c_off = d.connections.off;
      while (c_off != shm::kNullOffset) {
        auto* conn = static_cast<detail::Connection*>(arena_.raw(c_off));
        if (conn->is_bcast() && conn->bcast_head == shm::kNullOffset) {
          conn->bcast_head = off;
        }
        c_off = conn->next;
      }
    }
    if (d.quota_blocks != 0 || d.quota_slabs != 0) {
      // A quota set after the push raced it: charge the drained message so
      // the ledger stays an invariant of the FIFO (quota_release pays it
      // back when the message leaves).
      d.used_blocks += m->nblocks;
      if (d.used_blocks > d.hw_blocks) d.hw_blocks = d.used_blocks;
    }
    ++d.total_msgs;
    d.total_bytes += m->length;
  }
  // Cut the settled suffix off the stack.  New pushes may have prepended
  // above our snapshot; their links into the snapshot node are interior
  // and stable under the lock.
  shm::Offset expect = snap;
  if (!d.inject_head.compare_exchange_strong(expect, shm::kNullOffset,
                                             std::memory_order_seq_cst)) {
    shm::Offset at = expect;
    for (;;) {
      auto* n = static_cast<detail::MsgHeader*>(arena_.raw(at));
      if (n->inject_next == snap) {
        n->inject_next = shm::kNullOffset;
        break;
      }
      at = n->inject_next;
    }
  }
}

bool Facility::unlink_injected(detail::LnvcDesc& d, shm::Offset msg_off) {
  // Descriptor lock held.  The head entry may gain new pushes above it
  // concurrently, so removing the head is a CAS; interior links and the
  // orphan list only change under the lock.
  auto* m = static_cast<detail::MsgHeader*>(arena_.raw(msg_off));
  shm::Offset head = d.inject_head.load(std::memory_order_seq_cst);
  if (head == msg_off) {
    shm::Offset expect = msg_off;
    if (d.inject_head.compare_exchange_strong(expect, m->inject_next,
                                              std::memory_order_seq_cst)) {
      return true;
    }
    head = expect;  // a push landed above; fall through to interior unlink
  }
  for (shm::Offset at = head; at != shm::kNullOffset;) {
    auto* n = static_cast<detail::MsgHeader*>(arena_.raw(at));
    if (n->inject_next == msg_off) {
      n->inject_next = m->inject_next;
      return true;
    }
    at = n->inject_next;
  }
  for (shm::Offset* link = &d.orphan_head; *link != shm::kNullOffset;
       link = &static_cast<detail::MsgHeader*>(arena_.raw(*link))->next_msg) {
    if (*link == msg_off) {
      *link = m->next_msg;
      return true;
    }
  }
  return false;
}

bool Facility::fast_send(ProcessId pid, detail::LnvcDesc& d, LnvcId id,
                         std::span<const ConstBuffer> iov, std::size_t len,
                         std::uint64_t deadline_ns, Status* out) {
  detail::ProcSlot& ps = pslot(pid);
  if (ps.fast_lnvc != static_cast<std::uint32_t>(id) + 1) return false;
  const std::uint64_t fs = d.fast_state.load(std::memory_order_seq_cst);
  if (fs != ps.fast_seen || (fs & 1) == 0) {
    ps.fast_lnvc = 0;  // structure moved; the next locked send re-validates
    return false;
  }
  // The cached proof: when fast_state last equalled fast_seen under the
  // lock, this process held a send connection on this generation and the
  // circuit had no BROADCAST receivers and no quota.  Every structural
  // change bumps the (monotonic, ABA-free) epoch, so an equal word here
  // means all of that still holds.
  const std::size_t need = blocks_for(len, header_->block_payload);
  shm::Offset msg_off = shm::kNullOffset;
  shm::Offset chain = shm::kNullOffset;
  shm::Offset chain_tail = shm::kNullOffset;
  const Status alloc_status = alloc_message(pid, need, ps.node, &msg_off,
                                            &chain, &chain_tail, deadline_ns);
  if (alloc_status != Status::ok) {
    if (alloc_status == Status::timed_out) {
      header_->sends_timed_out.fetch_add(1, std::memory_order_relaxed);
    }
    reap_if_dead(pid, kNoProcess);
    *out = alloc_status;
    return true;
  }
  // Build the message exactly as the locked path would (chain only: the
  // fast path never carries slabs).
  auto* m = ::new (arena_.raw(msg_off)) detail::MsgHeader();
  m->length = static_cast<std::uint32_t>(len);
  m->nblocks = static_cast<std::uint32_t>(need);
  m->first_block = chain;
  m->last_block = chain_tail;
  m->flags = 0;
  m->next_msg = shm::kNullOffset;
  copy_to_chain(chain, iov, len);
  platform_->on_buffer_alloc(sizeof(detail::MsgHeader) +
                             need * (sizeof(detail::Block) +
                                     header_->block_payload));
  platform_->charge_copy_nodes(len, need, ps.node,
                               node_of_offset(m->first_block), ps.node);
  platform_->touch(len);
  // Claims (seq, bcast_remaining, fcfs_consumed) are assigned at drain
  // time by whoever holds the lock; until then the message carries its
  // crash-resolution provenance.
  m->pins = 0;
  m->src_pid = pid;
  m->inject_gen = ps.fast_gen;
  const std::uint64_t stamp = ++ps.inject_seq;
  m->inject_stamp = stamp;
  // Arm the journal at stage 2 (armed-for-inject): operands first, then
  // the stamp, then the stage store.  A reaper resolves stage 2 via the
  // stamp protocol — inject_drained >= stamp proves the push published and
  // drained; otherwise a stack/orphan walk under the lock answers
  // pushed-or-not (recovery.cpp).
  detail::GatherChain gc;
  gc.head = chain;
  gc.tail = chain_tail;
  gc.count = need;
  journal_enqueue(pid, id, ps.fast_gen, msg_off, gc);
  ps.j_inject_stamp = stamp;
  journal_stage(pid, 2);
  // Linearization point: publish onto the injection stack.
  shm::Offset top = d.inject_head.load(std::memory_order_relaxed);
  do {
    m->inject_next = top;
  } while (!d.inject_head.compare_exchange_weak(top, msg_off,
                                                std::memory_order_seq_cst,
                                                std::memory_order_relaxed));
  if (d.fast_state.load(std::memory_order_seq_cst) != fs) {
    // Rare: a structural change (close / destroy / quota / new BROADCAST
    // receiver) raced the push.  Settle under the lock.
    ps.fast_lnvc = 0;
    alock_lnvc(d, pid);
    if (d.in_use != 0 && d.generation == ps.fast_gen &&
        find_conn(d, pid, /*sender=*/true) != nullptr) {
      // Still connected: the push stands.  Drain now so claims and the
      // quota ledger settle under this lock before the journal clears.
      drain_injection(d);
      watch_fire_all(d, ~std::uint32_t{0});
      platform_->unlock(d.lock);
      journal_clear(pid);
      header_->sends.fetch_add(1, std::memory_order_relaxed);
      header_->bytes_sent.fetch_add(len, std::memory_order_relaxed);
      header_->lockfree_fast_sends.fetch_add(1, std::memory_order_relaxed);
      platform_->notify_all(d.cond);
      rpark_wake(d, ps.fast_gen, /*all=*/false);
      park_ripple(d);
      reap_if_dead(pid, kNoProcess);
      *out = Status::ok;
      return true;
    }
    // Our connection closed (or the circuit died) under the push.  The
    // message must not outlive it: unlink and roll back if it is still on
    // the stack or orphan list; if a drain beat us, the push linearized
    // before the close and the message was delivered (or destroyed with
    // the circuit) — either way it is no longer ours.
    const bool unlinked = unlink_injected(d, msg_off);
    platform_->unlock(d.lock);
    journal_clear(pid);
    if (unlinked) {
      m->next_msg = shm::kNullOffset;
      free_message(pid, m);
    }
    reap_if_dead(pid, kNoProcess);
    *out = Status::closed;
    return true;
  }
  journal_clear(pid);
  header_->sends.fetch_add(1, std::memory_order_relaxed);
  header_->bytes_sent.fetch_add(len, std::memory_order_relaxed);
  header_->lockfree_fast_sends.fetch_add(1, std::memory_order_relaxed);
  // Hand the baton to exactly one parked receiver.  The seq_cst CAS above
  // and the seq_cst peek inside rpark_wake pair with the receiver's
  // register-then-recheck (Dekker): either we see its registration or it
  // sees our push.
  rpark_wake(d, ps.fast_gen, /*all=*/false);
  // Multi-circuit waiters: the same Dekker pairing against watch_arm's
  // increment-then-recheck.  Nobody armed (the common case) costs this
  // one load; otherwise fire under the lock the watches live under.
  if (d.armed.load(std::memory_order_seq_cst) != 0) {
    alock_lnvc(d, pid);
    watch_fire_all(d, ~std::uint32_t{0});
    platform_->unlock(d.lock);
  }
  reap_if_dead(pid, kNoProcess);
  *out = Status::ok;
  return true;
}

Status Facility::quota_admit(ProcessId pid, detail::LnvcDesc& d, LnvcId id,
                             std::uint32_t need_blocks,
                             std::uint32_t need_slabs,
                             std::uint64_t deadline_ns) {
  // Descriptor lock held.  Unlimited circuits skip the ledger entirely —
  // the pre-quota fast path is one pair of loads.
  if (d.quota_blocks == 0 && d.quota_slabs == 0) return Status::ok;
  const std::uint32_t generation = d.generation;
  const auto fits = [&d, need_blocks, need_slabs]() noexcept {
    return (d.quota_blocks == 0 ||
            d.used_blocks + need_blocks <= d.quota_blocks) &&
           (d.quota_slabs == 0 || d.used_slabs + need_slabs <= d.quota_slabs);
  };
  detail::ProcSlot& ps = pslot(pid);
  bool parked = false;
  std::uint64_t ticket = 0;
  // Head = the smallest ticket among LIVE parked members of this circuit.
  // A scan beats a served-ticket cursor here: when a parked process dies
  // and is reaped (its membership flag cleared), the next ticket becomes
  // head with no cursor to repair — the queue cannot wedge on the dead.
  const auto is_head = [&]() {
    for (ProcessId p = 0; p < header_->max_processes; ++p) {
      if (p == pid) continue;
      const detail::ProcSlot& q = pslot(p);
      if (q.park_active.load(std::memory_order_acquire) != 0 &&
          q.park_lnvc == static_cast<std::uint32_t>(id) &&
          q.park_gen == generation && q.park_ticket < ticket) {
        return false;
      }
    }
    return true;
  };
  // Leave the park FIFO (lock held); the caller ripples park_cond once
  // unlocked so the next ticket re-checks.
  const auto unpark = [&]() {
    ps.park_active.store(0, std::memory_order_release);
    d.park_waiters.fetch_sub(1, std::memory_order_acq_rel);
    parked = false;
  };
  for (;;) {
    // Admission is FIFO: an arrival may only pass when nobody is parked
    // ahead of it, and a parked sender only when it reaches the head.
    if (fits() &&
        (parked ? is_head()
                : d.park_waiters.load(std::memory_order_relaxed) == 0)) {
      break;
    }
    if (static_cast<AdmissionPolicy>(d.policy) != AdmissionPolicy::block) {
      // shed_newest / fail_fast never park — and a mid-park policy switch
      // (set_admission while senders wait) evicts anyone already parked:
      // leaving the membership flag set on a live process would wedge the
      // FIFO for the circuit's lifetime.  The caller ripples park_cond so
      // the next ticket re-checks, and maps the refusal per policy.
      if (parked) unpark();
      return Status::rejected;
    }
    // Deadline before ticket: an already-expired deadline (the timeout-0
    // poll) returns without ever joining the FIFO or counting a park.
    const std::uint64_t now = platform_->now_ns();
    if (deadline_ns != kNoDeadline && now >= deadline_ns) {
      if (parked) unpark();
      return Status::timed_out;
    }
    if (!parked) {
      ticket = d.park_next_ticket++;
      d.park_waiters.fetch_add(1, std::memory_order_acq_rel);
      ps.park_lnvc = static_cast<std::uint32_t>(id);
      ps.park_gen = generation;
      ps.park_ticket = ticket;
      ps.park_active.store(1, std::memory_order_release);
      parked = true;
      header_->quota_parks.fetch_add(1, std::memory_order_relaxed);
    }
    // Sleep bounded by the deadline and the suspicion threshold, so a dead
    // head (or a dead receiver that will never drain the quota) cannot
    // wedge the queue: an un-notified expiry probes and reaps.  Only the
    // elected prober keeps the tight period (see probe_claim) — a deeply
    // parked FIFO probing in unison would convoy on the descriptor lock.
    const std::uint64_t suspicion = header_->suspicion_ns;
    const bool prober = suspicion != 0 && probe_claim(d, pid);
    bool notified = false;
    const ProcessId dead =
        await_for(d.lock, d.park_cond, pid, deadline_ns,
                  probe_wait_ns(pid, suspicion, prober), &notified);
    probe_release(d, pid);
    if (dead != kNoProcess) repair_lnvc(d);
    if (d.in_use == 0 || d.generation != generation) {
      // The circuit died while we were parked; destroy already reset the
      // park counters and the ledger, so only our membership flag remains.
      ps.park_active.store(0, std::memory_order_release);
      return Status::closed;
    }
    if (find_conn(d, pid, /*sender=*/true) == nullptr) {
      unpark();
      return Status::closed;
    }
    if (!notified && suspicion != 0) {
      // Liveness sweep: reap dead connection holders (a dead receiver can
      // never drain the quota) and dead parked peers (a dead head blocks
      // everyone behind it until its membership flag clears).
      ProcessId suspect = kNoProcess;
      shm::Offset c_off = d.connections.off;
      while (c_off != shm::kNullOffset) {
        auto* sc = static_cast<detail::Connection*>(arena_.raw(c_off));
        if (sc->process_id != pid && !process_alive(sc->process_id)) {
          suspect = sc->process_id;
          break;
        }
        c_off = sc->next;
      }
      if (suspect == kNoProcess) {
        for (ProcessId p = 0; p < header_->max_processes; ++p) {
          detail::ProcSlot& q = pslot(p);
          if (p != pid &&
              q.park_active.load(std::memory_order_acquire) != 0 &&
              q.park_lnvc == static_cast<std::uint32_t>(id) &&
              q.park_gen == generation && !process_alive(p)) {
            suspect = p;
            break;
          }
        }
      }
      if (suspect != kNoProcess) {
        platform_->unlock(d.lock);
        reap_if_dead(pid, suspect);
        alock_lnvc(d, pid);
        if (d.in_use == 0 || d.generation != generation) {
          ps.park_active.store(0, std::memory_order_release);
          return Status::closed;
        }
      } else if (d.n_fcfs == 0 && d.n_bcast == 0 && !fits()) {
        // Quota full and no receiver exists to drain it: parking any
        // longer waits on a peer that is not there (the quota-park
        // analogue of the exhaustion monitor's verdict).
        unpark();
        header_->peer_failures.fetch_add(1, std::memory_order_relaxed);
        return Status::peer_failed;
      }
    }
  }
  if (parked) unpark();
  // Admitted: charge the ledger and arm the reservation journal before
  // the lock drops, so a death between here and the enqueue commit is
  // refunded by the reaper (operands first, q_active last).
  d.used_blocks += need_blocks;
  d.used_slabs += need_slabs;
  if (d.used_blocks > d.hw_blocks) d.hw_blocks = d.used_blocks;
  if (d.used_slabs > d.hw_slabs) d.hw_slabs = d.used_slabs;
  ps.q_lnvc = static_cast<std::uint32_t>(id);
  ps.q_gen = generation;
  ps.q_blocks = need_blocks;
  ps.q_slabs = need_slabs;
  ps.q_active.store(1, std::memory_order_release);
  return Status::ok;
}

Status Facility::send(ProcessId pid, LnvcId id, const void* data,
                      std::size_t len, std::uint64_t timeout_ns) {
  const ConstBuffer one{data, len};
  return send_impl(pid, id, std::span<const ConstBuffer>(&one, 1), len,
                   platform_->deadline_after(timeout_ns));
}

Status Facility::send_v(ProcessId pid, LnvcId id,
                        std::span<const ConstBuffer> iov,
                        std::uint64_t timeout_ns) {
  std::size_t total = 0;
  for (const ConstBuffer& b : iov) total += b.len;
  return send_impl(pid, id, iov, total, platform_->deadline_after(timeout_ns));
}

Status Facility::admission_refused(ProcessId pid, detail::LnvcDesc& d,
                                   Status admit) {
  const auto policy = static_cast<AdmissionPolicy>(d.policy);
  platform_->unlock(d.lock);
  park_ripple(d);
  reap_if_dead(pid, kNoProcess);
  if (admit == Status::rejected) {
    if (policy == AdmissionPolicy::shed_newest) {
      // Shed: the newest message (this one) is silently dropped; the
      // sender observes success, the counter observes the loss.
      header_->sends_shed.fetch_add(1, std::memory_order_relaxed);
      return Status::ok;
    }
    header_->sends_rejected.fetch_add(1, std::memory_order_relaxed);
    return Status::rejected;
  }
  if (admit == Status::timed_out) {
    header_->sends_timed_out.fetch_add(1, std::memory_order_relaxed);
  }
  return admit;
}

Status Facility::send_impl(ProcessId pid, LnvcId id,
                           std::span<const ConstBuffer> iov, std::size_t len,
                           std::uint64_t deadline_ns) {
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr || pid >= header_->max_processes ||
      len > kMaxMessageBytes) {
    return Status::invalid_argument;
  }
  for (const ConstBuffer& b : iov) {
    if (b.data == nullptr && b.len > 0) return Status::invalid_argument;
  }
  platform_->charge_send_fixed();

  // The slab-versus-chain choice depends only on the length and the pool
  // geometry, so the admission cost is known before taking any lock.
  const bool want_slab = header_->slab_threshold != 0 &&
                         len >= header_->slab_threshold &&
                         len <= header_->slab_bytes;
  const std::size_t need_chain = blocks_for(len, header_->block_payload);

  // Two-tier delivery (DESIGN.md §12): when this sender's cached locked
  // validation still covers the circuit, publish with one CAS and touch no
  // lock at all.  Slab messages stay on the locked path (the extent pick
  // wants the connection list).
  if (header_->lockfree_fcfs != 0 && !want_slab) {
    Status fast = Status::ok;
    if (fast_send(pid, *d, id, iov, len, deadline_ns, &fast)) return fast;
  }

  // Validate the connection before paying for allocation and copy-in.
  alock_lnvc(*d, pid);
  if (d->in_use == 0) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, kNoProcess);
    return Status::no_such_lnvc;
  }
  const std::uint32_t generation = d->generation;
  if (find_conn(*d, pid, /*sender=*/true) == nullptr) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, kNoProcess);
    return Status::not_connected;
  }
  // Admission control: charge this message against the circuit's quota (a
  // no-op on unlimited circuits).  quota_admit may drop and retake the
  // lock while parked; on ok the state has been re-validated under the
  // re-taken lock, so the node pick below still sees a consistent list.
  {
    const Status admit = quota_admit(
        pid, *d, id, want_slab ? 0 : static_cast<std::uint32_t>(need_chain),
        want_slab ? 1 : 0, deadline_ns);
    if (admit != Status::ok) return admission_refused(pid, *d, admit);
  }
  // Pick the memory node for the message body while the descriptor lock
  // pins the connection list: an FCFS message is consumed by exactly one
  // receiver, so placing it on that receiver's node turns the expensive
  // remote leg into the cheap one (DESIGN.md §10).  BROADCAST fan-out has
  // no single best home; it stays sender-local, as does everything when
  // the placement knob is off or the machine has one node.
  std::uint32_t target_node = pslot(pid).node;
  if (header_->numa_nodes > 1 && header_->numa_prefer_receiver != 0) {
    shm::Offset c_off = d->connections.off;
    while (c_off != shm::kNullOffset) {
      auto* conn = static_cast<detail::Connection*>(arena_.raw(c_off));
      if (conn->is_fcfs()) {
        target_node = pslot(conn->process_id).node;
        break;
      }
      c_off = conn->next;
    }
  }
  platform_->unlock(d->lock);

  // Large messages go into one contiguous slab extent when the pool has
  // one to spare; everything else (and slab-pool exhaustion) takes the
  // paper's block chain.
  shm::Offset extent = shm::kNullOffset;
  if (want_slab) {
    extent = slab_alloc(pid, target_node);
    if (extent == shm::kNullOffset) {
      header_->slab_fallbacks.fetch_add(1, std::memory_order_relaxed);
      // The admission charge reserved a slab; the fallback consumes chain
      // blocks instead.  Convert the reservation under the lock — refund
      // the slab, re-admit for the chain (which may park again).
      if (pslot(pid).q_active.load(std::memory_order_acquire) != 0) {
        alock_lnvc(*d, pid);
        if (d->in_use == 0 || d->generation != generation ||
            find_conn(*d, pid, /*sender=*/true) == nullptr) {
          if (d->in_use != 0 && d->generation == generation) {
            quota_refund(pid, *d);
          } else {
            // Destroy already reset the ledger; only disarm the journal.
            pslot(pid).q_active.store(0, std::memory_order_release);
          }
          platform_->unlock(d->lock);
          park_ripple(*d);
          reap_if_dead(pid, kNoProcess);
          return Status::closed;
        }
        quota_refund(pid, *d);
        const Status admit =
            quota_admit(pid, *d, id, static_cast<std::uint32_t>(need_chain),
                        0, deadline_ns);
        if (admit != Status::ok) return admission_refused(pid, *d, admit);
        platform_->unlock(d->lock);
        park_ripple(*d);
      }
    }
  }
  const bool slab = extent != shm::kNullOffset;

  // Allocate a header plus the block chain from the sharded pool: own
  // magazine first, then the home shard, stealing and raiding before the
  // monitor-disciplined exhaustion wait (pool.cpp).  On success the gather
  // journal record stays armed — the nodes are in our hands until the
  // enqueue record supersedes it below.  A slab message needs no chain.
  const std::size_t need = slab ? 0 : need_chain;
  shm::Offset msg_off = shm::kNullOffset;
  shm::Offset chain = shm::kNullOffset;
  shm::Offset chain_tail = shm::kNullOffset;
  const Status alloc_status = alloc_message(pid, need, target_node, &msg_off,
                                            &chain, &chain_tail, deadline_ns);
  if (alloc_status != Status::ok) {
    if (slab) slab_free(pid, extent);
    // Undo the admission charge: the message never reached the FIFO.
    if (pslot(pid).q_active.load(std::memory_order_acquire) != 0) {
      alock_lnvc(*d, pid);
      if (d->in_use != 0 && d->generation == generation) {
        quota_refund(pid, *d);
      } else {
        pslot(pid).q_active.store(0, std::memory_order_release);
      }
      platform_->unlock(d->lock);
      park_ripple(*d);
    }
    if (alloc_status == Status::timed_out) {
      header_->sends_timed_out.fetch_add(1, std::memory_order_relaxed);
    }
    reap_if_dead(pid, kNoProcess);
    return alloc_status;
  }

  // Build the message outside any LNVC lock: copy the send buffer(s) into
  // the slab or the block chain (paper §3.1).
  auto* m = ::new (arena_.raw(msg_off)) detail::MsgHeader();
  m->length = static_cast<std::uint32_t>(len);
  m->nblocks = static_cast<std::uint32_t>(need);
  m->first_block = slab ? extent : chain;
  m->last_block = slab ? extent : chain_tail;
  m->flags = slab ? detail::MsgHeader::kSlab : 0;
  m->next_msg = shm::kNullOffset;
  if (slab) {
    auto* dst = static_cast<std::byte*>(arena_.raw(extent));
    for (const ConstBuffer& io : iov) {
      std::memcpy(dst, io.data, io.len);
      dst += io.len;
    }
  } else {
    copy_to_chain(chain, iov, len);
  }
  const std::size_t footprint =
      sizeof(detail::MsgHeader) +
      (slab ? static_cast<std::size_t>(header_->slab_bytes)
            : need * (sizeof(detail::Block) + header_->block_payload));
  platform_->on_buffer_alloc(footprint);
  // A slab fill is one contiguous bulk transfer; a chain pays per block.
  // The fill reads the sender-local buffer and writes wherever the body
  // landed — remote when placement chose the receiver's node.
  {
    const std::uint32_t my_node = pslot(pid).node;
    platform_->charge_copy_nodes(len, slab ? 0 : need, my_node,
                                 node_of_offset(m->first_block), my_node);
  }
  platform_->touch(len);

  // Swap the gather record for an enqueue record (same operands, so a
  // death on either side of the store resolves identically), then link
  // under the LNVC lock.  ProcSlot::slab rides along untouched: it keeps
  // covering the extent until the stage-1 commit below.
  detail::GatherChain gc;
  gc.head = chain;
  gc.tail = chain_tail;
  gc.count = need;
  journal_enqueue(pid, id, generation, msg_off, gc);
  alock_lnvc(*d, pid);
  if (d->in_use == 0 || d->generation != generation ||
      find_conn(*d, pid, /*sender=*/true) == nullptr) {
    // Undo the admission charge first: same circuit, refund the ledger;
    // recycled slot, the ledger was reset with the old circuit and the
    // journal just disarms.
    if (d->in_use != 0 && d->generation == generation) {
      quota_refund(pid, *d);
    } else {
      pslot(pid).q_active.store(0, std::memory_order_release);
    }
    platform_->unlock(d->lock);
    park_ripple(*d);
    // The LNVC died (or our connection was closed) during the copy.  The
    // stage-0 enqueue record hands off to free_message's own record in
    // the same inter-sim-point span.
    journal_clear(pid);
    free_message(pid, m);
    reap_if_dead(pid, kNoProcess);
    return Status::closed;
  }
  // Per-sender FIFO: any of our own earlier fast pushes still on the
  // injection stack must enter the FIFO before this locked message.
  if (header_->lockfree_fcfs != 0) drain_injection(*d);
  m->seq = d->seq_counter++;
  // Delivery claims (design §3 of DESIGN.md): every BROADCAST receiver
  // connected now must read it; the FCFS sub-stream keeps a claim unless
  // the reclaim_broadcast_only option applies.
  m->bcast_remaining.store(d->n_bcast, std::memory_order_relaxed);
  m->fcfs_consumed = (header_->reclaim_broadcast_only != 0 &&
                      d->n_fcfs == 0 && d->n_bcast > 0)
                         ? 1
                         : 0;
  m->pins = 0;

  if (d->msg_tail) {
    arena_.get(d->msg_tail)->next_msg = msg_off;
  } else {
    d->msg_head = shm::Ref<detail::MsgHeader>{msg_off};
  }
  d->msg_tail = shm::Ref<detail::MsgHeader>{msg_off};

  // Receivers whose head pointer was "at the tail" now point here.
  if (m->fcfs_consumed == 0) {
    ++d->n_queued;
    if (!d->fcfs_head) d->fcfs_head = shm::Ref<detail::MsgHeader>{msg_off};
  }
  shm::Offset c_off = d->connections.off;
  while (c_off != shm::kNullOffset) {
    auto* conn = static_cast<detail::Connection*>(arena_.raw(c_off));
    if (conn->is_bcast() && conn->bcast_head == shm::kNullOffset) {
      conn->bcast_head = msg_off;
    }
    c_off = conn->next;
  }
  // Linked: mark the record stage 1 in the same inter-sim-point span as
  // the link itself, so a reaper never rolls back a reachable message.
  // The slab operand hands off to the FIFO in the same span: from here on
  // the message (reachable, stage 1) owns the extent — and the quota
  // charge transfers from the reservation journal to the queued message
  // (quota_release pays it back when the message leaves the FIFO).
  journal_stage(pid, 1);
  pslot(pid).slab = shm::kNullOffset;
  pslot(pid).q_active.store(0, std::memory_order_release);
  ++d->total_msgs;
  d->total_bytes += len;
  // Fire the armed multi-circuit watches while the lock still orders us
  // against their arming.  After the stage-1 commit, not inside the link
  // walk above: waking is a platform call, and the link span has none.
  watch_fire_all(*d, ~std::uint32_t{0});
  // Fill (or invalidate) this sender's fast-path cache under the lock: the
  // fast_state word read here proves exactly what the fast path needs.
  if (header_->lockfree_fcfs != 0) {
    detail::ProcSlot& ps = pslot(pid);
    const std::uint64_t fsnow = d->fast_state.load(std::memory_order_relaxed);
    if (!slab && (fsnow & 1) != 0) {
      ps.fast_lnvc = static_cast<std::uint32_t>(id) + 1;
      ps.fast_gen = generation;
      ps.fast_seen = fsnow;
    } else if (ps.fast_lnvc == static_cast<std::uint32_t>(id) + 1) {
      ps.fast_lnvc = 0;
    }
  }
  // A message nobody will ever deliver (no receivers under the reclaim
  // option) is dropped immediately rather than leaked.
  if (m->fcfs_consumed != 0 &&
      m->bcast_remaining.load(std::memory_order_relaxed) == 0) {
    reclaim(pid, *d);
  }
  platform_->unlock(d->lock);
  journal_clear(pid);

  header_->sends.fetch_add(1, std::memory_order_relaxed);
  header_->bytes_sent.fetch_add(len, std::memory_order_relaxed);
  if (slab) header_->slab_sends.fetch_add(1, std::memory_order_relaxed);
  platform_->notify_all(d->cond);
  // Receivers parked on the lock-free claim path listen on their wait
  // nodes, not on d->cond; a locked send must promote one of them too.
  if (header_->lockfree_fcfs != 0) rpark_wake(*d, generation, /*all=*/false);
  // The undeliverable-reclaim above may have freed quota; pass the baton.
  park_ripple(*d);
  reap_if_dead(pid, kNoProcess);
  return Status::ok;
}

Status Facility::receive_any(ProcessId pid, std::span<const LnvcId> ids,
                             void* buf, std::size_t cap,
                             std::size_t* out_len, std::size_t* out_index,
                             std::uint64_t timeout_ns) {
  if (ids.empty() || out_len == nullptr || out_index == nullptr) {
    return Status::invalid_argument;
  }
  const std::uint64_t deadline_ns = platform_->deadline_after(timeout_ns);
  if (ids.size() == 1) {
    *out_index = 0;
    platform_->charge_recv_fixed();
    return receive_impl(pid, ids[0], buf, cap, out_len, deadline_ns);
  }
  if (pid >= header_->max_processes) return Status::invalid_argument;
  for (const LnvcId id : ids) {
    if (slot(id) == nullptr) return Status::invalid_argument;
  }
  // The watch protocol of pollset.cpp over this process's implicit ready
  // set: every listed connection is watched (member bit), and a watched
  // circuit is armed, marked ready, or being revalidated right here.
  detail::ReadySet& rs = any_set(pid);
  const detail::ReadyBits b = ready_bits(rs);
  detail::AnyMemo& memo = (*any_memo_)[pid];
  const auto bit = [](std::uint32_t s) { return std::uint64_t{1} << (s & 63); };
  // Stop watching `s`; the epoch bump expires every memo's verdict.
  const auto unwatch = [&](std::uint32_t s) {
    b.member[s >> 6].fetch_and(~bit(s), std::memory_order_relaxed);
    rs.epoch.fetch_add(1, std::memory_order_seq_cst);
  };
  // Revalidate e's slot under its lock: deliverable now (*ready, and
  // marked so the next pass looks again: level-triggered), or armed for
  // the next event, and e's orphan verdict refreshed.  A missing circuit
  // or connection is reported exactly as a receive would report it, and
  // the slot stops being watched.
  const auto revalidate = [&](detail::AnyMemo::Entry& e,
                              bool* ready) -> Status {
    const std::uint32_t s = e.slot1 - 1;
    detail::LnvcDesc& d = table()[s];
    platform_->charge_recv_fixed();
    alock_lnvc(d, pid);
    header_->any_rescans.fetch_add(1, std::memory_order_relaxed);
    detail::Connection* c =
        d.in_use != 0 ? find_conn(d, pid, /*sender=*/false) : nullptr;
    if (c == nullptr) {
      const Status st =
          d.in_use == 0 ? Status::no_such_lnvc : Status::not_connected;
      platform_->unlock(d.lock);
      unwatch(s);
      reap_if_dead(pid, kNoProcess);
      return st;
    }
    *ready = conn_ready(d, *c, /*pulses=*/false) ||
             watch_arm(d, *c, detail::Connection::kWatchAny, /*pulses=*/false);
    const bool orphaned =
        !*ready && d.n_senders == 0 && d.last_sender_died != 0;
    platform_->unlock(d.lock);
    memo.orphaned -= e.orphaned ? 1 : 0;
    memo.orphaned += orphaned ? 1 : 0;
    e.orphaned = orphaned;
    if (*ready) detail::mark_ready(b, s);
    return Status::ok;
  };

  // Arming pass, skipped while the memo proves every listed circuit is
  // already watched: same list, and no member bit cleared since.  It
  // revalidates (and arms) every listed circuit, which also gives each
  // its orphan verdict.
  const std::uint64_t epoch = rs.epoch.load(std::memory_order_seq_cst);
  if (memo.epoch != epoch || memo.ids.size() != ids.size() ||
      !std::equal(ids.begin(), ids.end(), memo.ids.begin())) {
    memo.epoch = ~std::uint64_t{0};
    memo.ids.assign(ids.begin(), ids.end());
    memo.table.assign(std::bit_ceil(2 * ids.size()), {});
    memo.distinct = 0;
    memo.orphaned = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto s = static_cast<std::uint32_t>(ids[i]);
      detail::AnyMemo::Entry& e = memo_entry(memo.table, s);
      if (e.slot1 != 0) continue;  // listed twice: the first index answers
      e.slot1 = s + 1;
      e.index = static_cast<std::uint32_t>(i);
      ++memo.distinct;
      b.member[s >> 6].fetch_or(bit(s), std::memory_order_relaxed);
      bool ready = false;
      const Status st = revalidate(e, &ready);
      if (st != Status::ok) return st;
    }
    memo.epoch = epoch;
  }

  for (;;) {
    // Serve ready circuits in slot rotation from the persisted cursor.
    std::uint32_t s = 0;
    while (pop_ready(b, rs.cursor.load(std::memory_order_relaxed), &s)) {
      if ((b.member[s >> 6].load(std::memory_order_relaxed) & bit(s)) == 0) {
        continue;  // a mark for a circuit no longer watched
      }
      detail::AnyMemo::Entry& e = memo_entry(memo.table, s);
      if (e.slot1 == 0) {
        unwatch(s);  // watched for an earlier list, dropped from this one
        continue;
      }
      bool ready = false;
      const Status st = revalidate(e, &ready);
      if (st != Status::ok) return st;
      if (!ready) continue;
      // A poll: the claim pays the fixed receive path as a receive does.
      platform_->charge_recv_fixed();
      const Status rst =
          receive_impl(pid, ids[e.index], buf, cap, out_len, /*deadline=*/0);
      if (rst == Status::ok || rst == Status::truncated) {
        *out_index = e.index;
        rs.cursor.store(s + 1, std::memory_order_relaxed);
        return rst;
      }
      // Another receiver won the race (nothing left, or left orphaned):
      // the mark brings us back to re-arm, or to the orphan verdict.
      if (rst != Status::timed_out && rst != Status::lnvc_orphaned) {
        return rst;
      }
    }
    // A circuit idle with its last sender dead can never deliver again.
    // Once every listed circuit was last found so, confirm it under the
    // locks (a sender may have opened since): blocking would hang forever.
    if (memo.orphaned == memo.distinct) {
      for (detail::AnyMemo::Entry& e : memo.table) {
        if (e.slot1 == 0) continue;
        bool ready = false;
        const Status st = revalidate(e, &ready);
        if (st != Status::ok) return st;
      }
      if (memo.orphaned == memo.distinct) {
        header_->orphaned_receives.fetch_add(1, std::memory_order_relaxed);
        reap_if_dead(pid, kNoProcess);
        return Status::lnvc_orphaned;
      }
      continue;
    }
    // The cursor keeps whatever the last delivery left: a timeout must not
    // re-bias the rotation.
    if (deadline_ns != kNoDeadline && platform_->now_ns() >= deadline_ns) {
      reap_if_dead(pid, kNoProcess);
      return Status::timed_out;
    }
    // Reap first whatever a seizure above found dead: its reap may orphan
    // or fire a listed circuit.
    reap_if_dead(pid, kNoProcess);
    park_on_set(pid, b, deadline_ns);
  }
}

Status Facility::claim_message(ProcessId pid, LnvcId id,
                               std::uint64_t deadline,
                               detail::LnvcDesc** out_d,
                               detail::MsgHeader** out_m, bool* out_bcast,
                               std::uint32_t* out_gen) {
  detail::LnvcDesc* d = slot(id);
  *out_d = nullptr;
  *out_m = nullptr;
  if (d == nullptr || pid >= header_->max_processes) {
    return Status::invalid_argument;
  }
  *out_d = d;

  alock_lnvc(*d, pid);
  if (d->in_use == 0) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, kNoProcess);
    return Status::no_such_lnvc;
  }
  const std::uint32_t generation = d->generation;
  detail::MsgHeader* m = nullptr;
  bool bcast = false;
  bool waited = false;
  bool parked_woken = false;
  for (;;) {
    // Lock-free sends park their messages on the injection stack; make
    // them deliverable before probing the heads.
    if (header_->lockfree_fcfs != 0) drain_injection(*d);
    detail::Connection* conn = find_conn(*d, pid, /*sender=*/false);
    if (conn == nullptr) {
      platform_->unlock(d->lock);
      reap_if_dead(pid, kNoProcess);
      // A connection that existed when we blocked and is gone now was
      // closed under us; report that as closed, not a caller error.
      return waited ? Status::closed : Status::not_connected;
    }
    if (conn->is_fcfs()) {
      if (d->fcfs_head) {
        // Claim the oldest unconsumed message for this FCFS receiver.
        m = arena_.get(d->fcfs_head);
        m->fcfs_consumed = 1;
        // Advance to the next *unconsumed* message, not blindly to
        // next_msg: under reclaim_broadcast_only a message enqueued while
        // the circuit had no FCFS receiver is born consumed, and parking
        // the cursor on it would let reclaim() free the message under the
        // cursor — the next claim would then deliver recycled storage.
        shm::Offset n_off = m->next_msg;
        while (n_off != shm::kNullOffset) {
          const auto* n =
              static_cast<const detail::MsgHeader*>(arena_.raw(n_off));
          if (n->fcfs_consumed == 0) break;
          n_off = n->next_msg;
        }
        d->fcfs_head = shm::Ref<detail::MsgHeader>{n_off};
        --d->n_queued;
        bcast = false;
      }
    } else {
      if (conn->bcast_head != shm::kNullOffset) {
        m = static_cast<detail::MsgHeader*>(arena_.raw(conn->bcast_head));
        conn->bcast_head = m->next_msg;
        bcast = true;
      }
    }
    if (m != nullptr) break;
    if (parked_woken) {
      // Woken from a park but another claimant got there first.
      header_->spurious_wakes.fetch_add(1, std::memory_order_relaxed);
      parked_woken = false;
    }
    if (d->n_senders == 0 && d->last_sender_died != 0) {
      // Nothing deliverable, no sender left, and the last one died rather
      // than closing: nobody will ever send here again.  Checked before
      // the deadline, so a poll reports it too.
      platform_->unlock(d->lock);
      header_->orphaned_receives.fetch_add(1, std::memory_order_relaxed);
      reap_if_dead(pid, kNoProcess);
      return Status::lnvc_orphaned;
    }
    if (deadline != kNoDeadline && platform_->now_ns() >= deadline) {
      platform_->unlock(d->lock);
      reap_if_dead(pid, kNoProcess);
      return Status::timed_out;
    }
    waited = true;
    // Every wait is bounded by the caller's deadline and by the suspicion
    // threshold: a dead sender (or a lost transition) must not block us
    // forever — an un-woken expiry probes and self-heals below.
    const std::uint64_t suspicion = header_->suspicion_ns;
    bool woken = true;
    const bool use_park =
        header_->lockfree_fcfs != 0 && conn->is_fcfs() &&
        (d->fast_state.load(std::memory_order_relaxed) & 1) != 0;
    if (use_park) {
      // Fast-eligible circuit: sleep on our wait node instead of d->cond,
      // so a lock-free sender can hand off without ever taking the lock.
      detail::ProcSlot& ps = pslot(pid);
      // Epoch snapshot BEFORE publishing park intent: any waker that sees
      // our registration bumps the epoch, which park() then observes.
      const std::uint32_t epoch = sync::Parker::prepare(ps.park_node);
      ps.rpark_lnvc.store(static_cast<std::uint32_t>(id),
                          std::memory_order_relaxed);
      ps.rpark_gen.store(generation, std::memory_order_relaxed);
      ps.rpark_ticket.store(d->rpark_next_ticket++,
                            std::memory_order_relaxed);
      d->rpark_waiters.fetch_add(1, std::memory_order_seq_cst);
      ps.rpark_active.store(1, std::memory_order_seq_cst);
      platform_->unlock(d->lock);
      header_->parks.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t park_deadline = deadline;
      if (suspicion != 0) {
        const std::uint64_t cap_ns = platform_->now_ns() + suspicion;
        if (cap_ns < park_deadline) park_deadline = cap_ns;
      }
      // Dekker re-check against a push racing our registration: the
      // sender's seq_cst CAS either precedes our seq_cst store above (this
      // load sees the message) or follows it (the sender's rpark peek sees
      // us and wakes).
      if (d->inject_head.load(std::memory_order_seq_cst) ==
          shm::kNullOffset) {
        woken = platform_->park(ps.park_node, epoch, park_deadline,
                                header_->park_spin_ns);
      }
      ps.rpark_active.store(0, std::memory_order_seq_cst);
      d->rpark_waiters.fetch_sub(1, std::memory_order_seq_cst);
      parked_woken = woken;
      alock_lnvc(*d, pid);
    } else {
      // Only the elected prober keeps the tight probe period (see
      // probe_claim).
      const bool prober = suspicion != 0 && probe_claim(*d, pid);
      const ProcessId dead =
          await_for(d->lock, d->cond, pid, deadline,
                    probe_wait_ns(pid, suspicion, prober), &woken);
      probe_release(*d, pid);
      if (dead != kNoProcess) repair_lnvc(*d);
    }
    if (!woken) {
      if (platform_->now_ns() >= deadline) {
        platform_->unlock(d->lock);
        reap_if_dead(pid, kNoProcess);
        return Status::timed_out;
      }
      // A probe expiry: reap the first dead sender ourselves rather than
      // wait for an external reaper; the loop re-checks the orphan
      // condition with the repaired state.
      if (suspicion != 0) reap_dead_sender(*d, pid);
    }
    platform_->charge_check();
    if (d->in_use == 0 || d->generation != generation) {
      platform_->unlock(d->lock);
      reap_if_dead(pid, kNoProcess);
      return Status::closed;
    }
  }
  // Baton pass: if more messages are deliverable and more receivers are
  // parked, the next claimant can start now instead of on the next send —
  // one wake per successful claim, wakes ≈ claims under load.
  if (header_->lockfree_fcfs != 0 && !bcast && d->fcfs_head &&
      d->rpark_waiters.load(std::memory_order_seq_cst) > 0) {
    rpark_wake(*d, generation, /*all=*/false);
  }
  // Claimed: hand the message (and the lock) back to the caller, which
  // pins it and journals its own covering record before unlocking.
  *out_m = m;
  *out_bcast = bcast;
  *out_gen = generation;
  return Status::ok;
}

void Facility::unpin(ProcessId pid, detail::LnvcDesc& d, detail::MsgHeader* m,
                     std::uint32_t claim_gen, bool bcast) {
  // Caller holds the descriptor slot's lock and has already cleared the
  // record (journal / view slot) covering this pin, in this same store
  // span.
  if (d.in_use != 0 && d.generation == claim_gen) {
    --m->pins;
    if (bcast) m->bcast_remaining.fetch_sub(1, std::memory_order_acq_rel);
    reclaim(pid, d);
  } else {
    // The circuit died under us.  destroy_lnvc detaches pinned messages
    // instead of freeing them, so the payload stayed valid for our copy or
    // view; the last pinner disposes of it.
    --m->pins;
    if (m->pins == 0 && (m->flags & detail::MsgHeader::kDetached) != 0) {
      free_message(pid, m);
    }
  }
}

Status Facility::receive_impl(ProcessId pid, LnvcId id, void* buf,
                              std::size_t cap, std::size_t* out_len,
                              std::uint64_t deadline_ns) {
  if (out_len == nullptr || (buf == nullptr && cap > 0)) {
    return Status::invalid_argument;
  }
  *out_len = 0;
  detail::LnvcDesc* d = nullptr;
  detail::MsgHeader* m = nullptr;
  bool bcast = false;
  std::uint32_t generation = 0;
  const Status claim =
      claim_message(pid, id, deadline_ns, &d, &m, &bcast, &generation);
  if (claim != Status::ok) return claim;

  // Pin the message so reclaim leaves it alone, then copy outside the lock
  // — this is what lets BROADCAST receivers copy concurrently (the paper's
  // explanation of Figure 5's scaling).  The copy-out record covers the
  // pin (and the BROADCAST claim) while we hold no lock.
  ++m->pins;
  journal_copy_out(pid, id, generation, arena_.ref_of(m).off, bcast);
  platform_->unlock(d->lock);

  const std::size_t want = std::min<std::size_t>(m->length, cap);
  auto* dst = static_cast<std::byte*>(buf);
  std::size_t copied = 0;
  if ((m->flags & detail::MsgHeader::kSlab) != 0) {
    std::memcpy(dst, arena_.raw(m->first_block), want);
    copied = want;
    // One contiguous bulk transfer, read from the body's node.
    platform_->charge_copy_nodes(m->length, 0, node_of_offset(m->first_block),
                                 pslot(pid).node, pslot(pid).node);
  } else {
    for_each_run(m->first_block, want, [&](shm::Offset p, std::size_t n) {
      std::memcpy(dst + copied, arena_.raw(p), n);
      copied += n;
    });
    platform_->charge_copy_nodes(m->length, m->nblocks,
                                 node_of_offset(m->first_block),
                                 pslot(pid).node, pslot(pid).node);
  }
  platform_->touch(m->length);
  const Status status = m->length > cap ? Status::truncated : Status::ok;
  *out_len = copied;

  alock_lnvc(*d, pid);
  journal_clear(pid);
  unpin(pid, *d, m, generation, bcast);
  platform_->unlock(d->lock);
  // unpin may have reclaimed (quota_release): wake any parked sender.
  park_ripple(*d);

  header_->receives.fetch_add(1, std::memory_order_relaxed);
  header_->bytes_delivered.fetch_add(copied, std::memory_order_relaxed);
  reap_if_dead(pid, kNoProcess);
  return status;
}

Status Facility::receive_view_impl(ProcessId pid, LnvcId id, MsgView* out,
                                   std::uint64_t deadline_ns) {
  if (out == nullptr || pid >= header_->max_processes) {
    return Status::invalid_argument;
  }
  out->spans.clear();
  out->slot = -1;
  out->length = 0;
  out->msg = shm::kNullOffset;
  out->seq = 0;
  // Reserve a view-table slot before claiming: failing after the claim
  // would mean un-claiming, which FCFS cannot undo exactly.  The CAS keeps
  // two threads sharing one ProcessId from arming the same slot; a
  // reserved slot holds no pin, so a death here costs a reaper one store.
  const int vslot = view_reserve(pid);
  if (vslot < 0) return Status::table_full;

  detail::LnvcDesc* d = nullptr;
  detail::MsgHeader* m = nullptr;
  bool bcast = false;
  std::uint32_t generation = 0;
  const Status claim =
      claim_message(pid, id, deadline_ns, &d, &m, &bcast, &generation);
  if (claim != Status::ok) {
    view_cancel(pid, vslot);
    return claim;
  }

  // Pin in place; the view-table record covers the pin (and the BROADCAST
  // claim) until release_view, exactly as the copy-out journal record
  // covers a copying receiver — reap resolves either kind.
  ++m->pins;
  detail::ProcSlot& ps = pslot(pid);
  detail::ViewSlot& v = ps.views[vslot];
  const std::uint32_t seq =
      ps.view_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  v.lnvc_id = static_cast<std::uint32_t>(id);
  v.lnvc_gen = generation;
  v.bcast = bcast ? 1 : 0;
  v.seq = seq;
  v.msg = arena_.ref_of(m).off;
  v.active.store(detail::ViewSlot::kArmed,
                 std::memory_order_release);  // commit point
  platform_->unlock(d->lock);

  out->length = m->length;
  out->id = id;
  out->generation = generation;
  out->msg = v.msg;
  out->seq = seq;
  out->bcast = bcast;
  out->slab = (m->flags & detail::MsgHeader::kSlab) != 0;
  out->slot = vslot;
  // Spans are arena-relative: a fork'd or attached receiver whose mapping
  // landed at a different base materializes them against its own mapping
  // (resolve/materialize) and reads the same bytes.
  if (out->slab) {
    out->spans.push_back(
        ViewSpan{shm::Ref<const std::byte>{m->first_block}, m->length});
  } else {
    // One span per block, as the paper's chain presents it.
    out->spans.reserve(m->nblocks);
    const std::size_t per = header_->block_payload;
    for_each_run(m->first_block, m->length, [&](shm::Offset p, std::size_t n) {
      for (; n > 0; p += per) {
        const std::size_t chunk = std::min(per, n);
        out->spans.push_back(ViewSpan{shm::Ref<const std::byte>{p}, chunk});
        n -= chunk;
      }
    });
  }
  // No payload bytes cross the bus: the receiver reads in place.  Charge
  // only the per-fragment bookkeeping; the pages still count against the
  // reader's working set.
  platform_->charge_view(m->length, m->nblocks);
  platform_->touch(m->length);

  header_->receives.fetch_add(1, std::memory_order_relaxed);
  header_->bytes_delivered.fetch_add(m->length, std::memory_order_relaxed);
  header_->views.fetch_add(1, std::memory_order_relaxed);
  header_->view_bytes.fetch_add(m->length, std::memory_order_relaxed);
  reap_if_dead(pid, kNoProcess);
  return Status::ok;
}

Status Facility::receive_view(ProcessId pid, LnvcId id, MsgView* out,
                              std::uint64_t timeout_ns) {
  platform_->charge_recv_fixed();
  return receive_view_impl(pid, id, out,
                           platform_->deadline_after(timeout_ns));
}

Status Facility::release_view(ProcessId pid, MsgView* view) {
  if (view == nullptr || pid >= header_->max_processes || !view->valid() ||
      view->slot >= static_cast<int>(detail::kMaxViews)) {
    return Status::invalid_argument;
  }
  detail::LnvcDesc* d = slot(view->id);
  if (d == nullptr) return Status::invalid_argument;
  detail::ViewSlot& v = pslot(pid).views[view->slot];
  // The descriptor slot's lock outlives the circuit (slots are never
  // unmapped), so locking is safe even after close/destroy; unpin sorts
  // out whether the message is still queued or was detached to us.
  // Validation happens UNDER the lock, and the arm sequence must match:
  // a stale handle — released once already, its slot since re-armed, even
  // for a recycled message landing at the same offset — is a clean
  // invalid_argument instead of a double unpin of someone else's view.
  alock_lnvc(*d, pid);
  if (v.active.load(std::memory_order_acquire) != detail::ViewSlot::kArmed ||
      v.msg != view->msg || v.seq != view->seq) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, kNoProcess);
    return Status::invalid_argument;
  }
  auto* m = static_cast<detail::MsgHeader*>(arena_.raw(v.msg));
  const std::uint32_t claim_gen = v.lnvc_gen;
  const bool bcast = v.bcast != 0;
  v.active.store(detail::ViewSlot::kIdle,
                 std::memory_order_release);  // clear first
  v.msg = shm::kNullOffset;
  unpin(pid, *d, m, claim_gen, bcast);
  platform_->unlock(d->lock);
  park_ripple(*d);
  view->slot = -1;
  view->spans.clear();
  view->msg = shm::kNullOffset;
  view->seq = 0;
  reap_if_dead(pid, kNoProcess);
  return Status::ok;
}

int Facility::view_reserve(ProcessId pid) {
  detail::ProcSlot& ps = pslot(pid);
  for (int i = 0; i < static_cast<int>(detail::kMaxViews); ++i) {
    std::uint32_t idle = detail::ViewSlot::kIdle;
    if (ps.views[i].active.compare_exchange_strong(
            idle, detail::ViewSlot::kReserved, std::memory_order_acq_rel,
            std::memory_order_relaxed)) {
      return i;
    }
  }
  return -1;
}

void Facility::view_cancel(ProcessId pid, int slot) {
  pslot(pid).views[slot].active.store(detail::ViewSlot::kIdle,
                                      std::memory_order_release);
}

ConstBuffer Facility::resolve(const ViewSpan& span) const noexcept {
  return ConstBuffer{arena_.resolve(span.data), span.len};
}

std::vector<ConstBuffer> Facility::materialize(const MsgView& view) const {
  std::vector<ConstBuffer> out;
  out.reserve(view.spans.size());
  for (const ViewSpan& s : view.spans) out.push_back(resolve(s));
  return out;
}

std::size_t Facility::copy_view(const MsgView& view, void* dst,
                                std::size_t cap) const {
  auto* out = static_cast<std::byte*>(dst);
  std::size_t at = 0;
  for (const ViewSpan& s : view.spans) {
    if (at >= cap) break;
    const std::size_t n = std::min(s.len, cap - at);
    std::memcpy(out + at, arena_.resolve(s.data), n);
    at += n;
  }
  return at;
}

Status Facility::receive(ProcessId pid, LnvcId id, void* buf, std::size_t cap,
                         std::size_t* out_len, std::uint64_t timeout_ns) {
  // Charge the fixed receive path before fixing the deadline: the timeout
  // bounds the wait, not the modelled fixed cost (simulator time).
  platform_->charge_recv_fixed();
  return receive_impl(pid, id, buf, cap, out_len,
                      platform_->deadline_after(timeout_ns));
}

Status Facility::check(ProcessId pid, LnvcId id, bool* out) {
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr || out == nullptr || pid >= header_->max_processes) {
    return Status::invalid_argument;
  }
  *out = false;
  platform_->charge_check();
  alock_lnvc(*d, pid);
  if (d->in_use == 0) {
    platform_->unlock(d->lock);
    return Status::no_such_lnvc;
  }
  detail::Connection* conn = find_conn(*d, pid, /*sender=*/false);
  if (conn == nullptr) {
    platform_->unlock(d->lock);
    return Status::not_connected;
  }
  // Advisory for FCFS: another receiver may take the message first (§2).
  // Stable for broadcast: only this receiver advances its private head.
  *out = conn_ready(*d, *conn, /*pulses=*/false);
  platform_->unlock(d->lock);
  reap_if_dead(pid, kNoProcess);
  return Status::ok;
}

}  // namespace mpf
