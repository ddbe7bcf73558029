// Process-failure detection and recovery.
//
// The paper's MPF assumes cooperating processes never die inside the
// facility; on a real multiprocessor (and in the fault-injecting
// simulator) they do.  This file adds the three mechanisms DESIGN.md §8
// describes:
//
//   * robust locks: every facility lock is acquired tagged with the
//     owner's ProcessId (alock / alock_lnvc / await); a waiter stuck past
//     the suspicion threshold probes the holder's liveness and seizes the
//     lock from a dead holder, repairing the protected structure;
//   * an intent journal: each process records what it is in the middle of
//     (ProcSlot) so a reaper can roll the half-done operation forward or
//     back without losing a block;
//   * reap(): the recovery sweep that resolves a dead process's journal,
//     closes its connections with the paper's last-connection semantics,
//     returns its magazine, drops its broadcast claims, repairs waiter
//     counters, and wakes blocked peers.
//
// Crash-atomicity reasoning: under the simulator, kills land only at
// platform calls (sim points), so every run of plain stores between two
// platform calls is atomic with respect to injected deaths.  The journal
// discipline below therefore colocates each record mutation in the same
// inter-sim-point span as the structural mutation it describes.  Natively
// (SIGKILL) the same discipline makes the windows a handful of
// instructions wide — best-effort, as for any robust-mutex design.
#include <cerrno>
#include <csignal>
#include <cstring>

#include "mpf/core/facility.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define MPF_HAVE_KILL 1
#else
#define MPF_HAVE_KILL 0
#endif

namespace mpf {

namespace {

/// Dead pids noticed while holding locks (seizures deep inside an
/// operation cannot reap on the spot: the seizer's own journal is armed
/// and reap() needs to take locks of its own).  Drained by reap_if_dead()
/// at operation boundaries.  Per-thread, so concurrent facility users do
/// not serialize on a shared pending set.
constexpr unsigned kMaxPendingDead = 8;
thread_local ProcessId tl_pending_dead[kMaxPendingDead];
thread_local unsigned tl_n_pending_dead = 0;

void note_pending_dead(ProcessId pid) {
  for (unsigned i = 0; i < tl_n_pending_dead; ++i) {
    if (tl_pending_dead[i] == pid) return;
  }
  // On overflow the pid is dropped; the next waiter to suspect it will
  // note it again.
  if (tl_n_pending_dead < kMaxPendingDead) {
    tl_pending_dead[tl_n_pending_dead++] = pid;
  }
}

[[nodiscard]] std::uint32_t our_os_pid() noexcept {
#if MPF_HAVE_KILL
  return static_cast<std::uint32_t>(::getpid());
#else
  return 0;
#endif
}

}  // namespace

detail::ProcSlot* Facility::procs() const noexcept {
  return static_cast<detail::ProcSlot*>(arena_.raw(header_->procs));
}

detail::ProcSlot& Facility::pslot(ProcessId pid) const noexcept {
  return procs()[pid];
}

void Facility::register_process(ProcessId pid) {
  if (pid >= header_->max_processes) return;
  detail::ProcSlot& ps = pslot(pid);
  if (ps.state.load(std::memory_order_acquire) == detail::ProcSlot::kLive) {
    return;
  }
  for (;;) {
    std::uint32_t st = ps.state.load(std::memory_order_acquire);
    if (st == detail::ProcSlot::kLive || st == detail::ProcSlot::kDead) {
      // kDead with the process clearly executing means a false declaration
      // is in flight; the probe path re-checks liveness, so leave it to
      // reap() to sort out rather than fight the state machine here.
      return;
    }
    ps.os_pid = our_os_pid();
    if (ps.state.compare_exchange_weak(st, detail::ProcSlot::kLive,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return;
    }
  }
}

void Facility::declare_dead(ProcessId pid) {
  if (pid >= header_->max_processes) return;
  detail::ProcSlot& ps = pslot(pid);
  std::uint32_t st = ps.state.load(std::memory_order_acquire);
  while (st == detail::ProcSlot::kLive) {
    if (ps.state.compare_exchange_weak(st, detail::ProcSlot::kDead,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return;
    }
  }
}

bool Facility::process_alive(ProcessId pid) const {
  if (pid >= header_->max_processes) return false;
  const detail::ProcSlot& ps = pslot(pid);
  const std::uint32_t st = ps.state.load(std::memory_order_acquire);
  if (st == detail::ProcSlot::kDead || st == detail::ProcSlot::kReaped) {
    return false;
  }
  if (!platform_->is_alive(pid)) return false;
#if MPF_HAVE_KILL
  // fork()ed participants: a recorded OS pid that no longer exists is a
  // dead process.  Same-process participants (threads) share our pid, so
  // this never fires for them.
  if (st == detail::ProcSlot::kLive && ps.os_pid != 0 &&
      ps.os_pid != our_os_pid()) {
    if (::kill(static_cast<pid_t>(ps.os_pid), 0) != 0 && errno == ESRCH) {
      return false;
    }
  }
#endif
  return true;
}

bool Facility::probe_alive(void* ctx, std::uint32_t holder_tag) {
  auto* f = static_cast<Facility*>(ctx);
  f->header_->suspicions.fetch_add(1, std::memory_order_relaxed);
  if (holder_tag < 2) {
    // Anonymous holders (introspection paths, setup code) are never
    // seized: we cannot name a process to verify.
    f->header_->false_suspicions.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  const ProcessId holder = sync::SpinLock::pid_of(holder_tag);
  if (f->process_alive(holder)) {
    f->header_->false_suspicions.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  f->declare_dead(holder);
  return false;
}

RobustOp Facility::make_robust(ProcessId pid) const {
  RobustOp op;
  op.tag = sync::SpinLock::tag_for(pid);
  op.alive = &Facility::probe_alive;
  op.ctx = const_cast<Facility*>(this);
  op.suspicion_ns = header_->suspicion_ns;
  op.spin_ns = header_->park_spin_ns;
  return op;
}

ProcessId Facility::alock(sync::SpinLock& cell, ProcessId pid) {
  RobustOp op = make_robust(pid);
  platform_->lock_robust(cell, op);
  if (!op.seized) return kNoProcess;
  header_->seizures.fetch_add(1, std::memory_order_relaxed);
  const ProcessId dead = sync::SpinLock::pid_of(op.seized_from);
  note_pending_dead(dead);
  return dead;
}

ProcessId Facility::alock_lnvc(detail::LnvcDesc& d, ProcessId pid) {
  const ProcessId dead = alock(d.lock, pid);
  if (dead != kNoProcess) repair_lnvc(d);
  return dead;
}

ProcessId Facility::await_for(sync::SpinLock& m, sync::EventCount& c,
                              ProcessId pid, std::uint64_t deadline_ns,
                              std::uint64_t probe_ns, bool* notified) {
  std::uint64_t wait_ns = probe_ns != 0 ? probe_ns : kNoDeadline;
  if (deadline_ns != kNoDeadline) {
    const std::uint64_t now = platform_->now_ns();
    const std::uint64_t left = deadline_ns > now ? deadline_ns - now : 0;
    if (left < wait_ns) wait_ns = left;
  }
  RobustOp op = make_robust(pid);
  *notified = platform_->wait_for(m, c, wait_ns, &op);
  if (!op.seized) return kNoProcess;
  header_->seizures.fetch_add(1, std::memory_order_relaxed);
  const ProcessId dead = sync::SpinLock::pid_of(op.seized_from);
  note_pending_dead(dead);
  return dead;
}

void Facility::repair_lnvc(detail::LnvcDesc& d) {
  if (header_->lockfree_fcfs != 0) {
    // The dead holder may have been mid-drain: nodes it already settled —
    // spliced into the FIFO or diverted to the orphan list — form the
    // deepest suffix of the injection chain (drains work bottom-up), with
    // the cut still pending.  Truncate the chain above the first settled
    // node so the next drain cannot splice one twice.  Runs before the
    // in_use check on purpose: a stack can carry residue for a dead slot.
    const shm::Offset snap = d.inject_head.load(std::memory_order_seq_cst);
    if (snap != shm::kNullOffset) {
      std::vector<shm::Offset> settled;
      if (d.in_use != 0) {
        for (shm::Offset off = d.msg_head.off; off != shm::kNullOffset;) {
          settled.push_back(off);
          off = static_cast<const detail::MsgHeader*>(arena_.raw(off))
                    ->next_msg;
        }
      }
      for (shm::Offset off = d.orphan_head; off != shm::kNullOffset;) {
        settled.push_back(off);
        off = static_cast<const detail::MsgHeader*>(arena_.raw(off))->next_msg;
      }
      auto is_settled = [&settled](shm::Offset off) {
        for (const shm::Offset s : settled) {
          if (s == off) return true;
        }
        return false;
      };
      shm::Offset prev = shm::kNullOffset;
      shm::Offset first_settled = shm::kNullOffset;
      for (shm::Offset at = snap; at != shm::kNullOffset;) {
        if (is_settled(at)) {
          first_settled = at;
          break;
        }
        prev = at;
        at = static_cast<const detail::MsgHeader*>(arena_.raw(at))
                 ->inject_next;
      }
      if (first_settled != shm::kNullOffset) {
        if (prev != shm::kNullOffset) {
          static_cast<detail::MsgHeader*>(arena_.raw(prev))->inject_next =
              shm::kNullOffset;
        } else {
          // The whole visible chain is settled; cut at the head.  A lost
          // CAS means fresh pushes stacked above — cut below the newest
          // unsettled node instead.
          shm::Offset expect = first_settled;
          if (!d.inject_head.compare_exchange_strong(
                  expect, shm::kNullOffset, std::memory_order_seq_cst)) {
            for (shm::Offset at = expect; at != shm::kNullOffset;) {
              auto* m = static_cast<detail::MsgHeader*>(arena_.raw(at));
              if (m->inject_next == first_settled) {
                m->inject_next = shm::kNullOffset;
                break;
              }
              at = m->inject_next;
            }
          }
        }
      }
    }
  }
  // The holder died somewhere inside its critical section.  Every queue
  // mutation keeps msg_head and the per-message links authoritative (a
  // half-linked tail message is reachable from the head before the tail
  // pointer moves), so recomputing the derived fields from a head walk
  // restores the invariants whatever the interruption point.
  if (d.in_use == 0) return;
  shm::Offset off = d.msg_head.off;
  shm::Offset last = shm::kNullOffset;
  shm::Offset first_unconsumed = shm::kNullOffset;
  std::uint32_t unconsumed = 0;
  while (off != shm::kNullOffset) {
    const auto* m = static_cast<const detail::MsgHeader*>(arena_.raw(off));
    if (m->fcfs_consumed == 0) {
      if (first_unconsumed == shm::kNullOffset) first_unconsumed = off;
      ++unconsumed;
    }
    last = off;
    off = m->next_msg;
  }
  d.msg_tail = shm::Ref<detail::MsgHeader>{last};
  d.fcfs_head = shm::Ref<detail::MsgHeader>{first_unconsumed};
  d.n_queued = unconsumed;
  // Watches: the holder may have linked a message without firing them, or
  // died between a watch bit and the count.  Fire every armed watch (a
  // spurious fire costs one revalidation) and restart the count at zero.
  for (shm::Offset c_off = d.connections.off; c_off != shm::kNullOffset;) {
    auto* c = static_cast<detail::Connection*>(arena_.raw(c_off));
    watch_fire(d, *c, ~std::uint32_t{0});
    c_off = c->next;
  }
  d.armed.store(0, std::memory_order_seq_cst);
  // The quota ledger is derived state too: recompute it from the FIFO
  // (each queued message carries its own cost) plus every armed
  // reservation journal on this circuit and generation.  Journals arm and
  // disarm only under this descriptor's lock, which we hold.
  if (d.quota_blocks != 0 || d.quota_slabs != 0) {
    std::uint32_t used_blocks = 0;
    std::uint32_t used_slabs = 0;
    for (off = d.msg_head.off; off != shm::kNullOffset;) {
      const auto* m = static_cast<const detail::MsgHeader*>(arena_.raw(off));
      if ((m->flags & detail::MsgHeader::kSlab) != 0) {
        ++used_slabs;
      } else {
        used_blocks += m->nblocks;
      }
      off = m->next_msg;
    }
    const auto id = static_cast<std::uint32_t>(&d - table());
    for (ProcessId p = 0; p < header_->max_processes; ++p) {
      const detail::ProcSlot& q = pslot(p);
      if (q.q_active.load(std::memory_order_acquire) != 0 &&
          q.q_lnvc == id && q.q_gen == d.generation) {
        used_blocks += q.q_blocks;
        used_slabs += q.q_slabs;
      }
    }
    d.used_blocks = used_blocks;
    d.used_slabs = used_slabs;
    if (used_blocks > d.hw_blocks) d.hw_blocks = used_blocks;
    if (used_slabs > d.hw_slabs) d.hw_slabs = used_slabs;
  }
}

void Facility::resolve_journal(ProcessId reaper, detail::ProcSlot& ps,
                               ProcessId pid) {
  // Headers go back to the dead process's home shard, blocks to the
  // shards that carved them (free_chain); the record's own operands
  // are the cursor.
  const std::uint32_t home_idx = home_shard(pid);
  detail::PoolShard& home = shards()[home_idx];
  shm::Offset no_msg = shm::kNullOffset;

  // Nested free_message record first: its message was already detached
  // from every other structure (including a release_chains cursor, which
  // advances past a message before freeing it).
  const std::uint32_t fm = ps.fm_stage.load(std::memory_order_acquire);
  if (fm != 0) {
    if (fm == 1) {
      if (ps.fm_slab != 0) {
        // fm_head is one contiguous slab extent, not a block chain.  It
        // goes back to the sub-pool that carved it (FreeList::push is
        // internally locked, so the reaper needs no pool lock here).
        slab_pools()[node_of_offset(ps.fm_head)].slabs.push(arena_,
                                                            ps.fm_head);
      } else if (ps.fm_count > 0) {
        header_->reclaimed_blocks.fetch_add(ps.fm_count,
                                            std::memory_order_relaxed);
        free_chain(reaper, home_idx, ps.fm_head, ps.fm_count, no_msg, true);
      }
    }
    if (ps.fm_msg != shm::kNullOffset) home.msgs.push(arena_, ps.fm_msg);
    ps.fm_stage.store(0, std::memory_order_release);
    ps.fm_msg = ps.fm_head = ps.fm_tail = shm::kNullOffset;
    ps.fm_count = 0;
    ps.fm_slab = 0;
  }

  const auto op =
      static_cast<detail::JournalOp>(ps.op.load(std::memory_order_acquire));
  switch (op) {
    case detail::JournalOp::none:
      break;

    case detail::JournalOp::gather: {
      // Roll back: every gathered (and refill-parked) node returns to the
      // pools.
      const std::uint64_t blocks = ps.chain_count + ps.refill_count;
      free_chain(reaper, home_idx, ps.chain_head, ps.chain_count, ps.msg,
                 true);
      free_chain(reaper, home_idx, ps.refill_head, ps.refill_count, no_msg,
                 true);
      while (ps.refill_msgs != shm::kNullOffset) {
        const shm::Offset next =
            *static_cast<shm::Offset*>(arena_.raw(ps.refill_msgs));
        home.msgs.push(arena_, ps.refill_msgs);
        ps.refill_msgs = next;
      }
      if (blocks > 0) {
        header_->reclaimed_blocks.fetch_add(blocks,
                                            std::memory_order_relaxed);
      }
      break;
    }

    case detail::JournalOp::enqueue: {
      bool rollback = ps.stage == 0;
      if (ps.stage == 2) {
        // Armed fast push (lockfree_fcfs).  The receipt counter decides:
        // a drain CAS-maxes inject_drained past the armed stamp the
        // moment it commits to splicing, so a covered stamp means
        // delivered (even if the drainer then crashed before linking —
        // the message stayed on the uncut stack and the next drain
        // finished the splice).  Uncovered, the message is either still
        // on the stack / orphan list (published, undrained: unlink and
        // roll back) or nowhere (died before the CAS: the operands still
        // describe it).
        if (ps.inject_drained.load(std::memory_order_acquire) <
            ps.j_inject_stamp) {
          detail::LnvcDesc* d = slot(static_cast<LnvcId>(ps.lnvc_id));
          if (d != nullptr) {
            alock_lnvc(*d, reaper);
            // A drain may have raced us to the receipt before we locked.
            if (ps.inject_drained.load(std::memory_order_acquire) <
                ps.j_inject_stamp) {
              unlink_injected(*d, ps.msg);
              rollback = true;
            }
            platform_->unlock(d->lock);
          } else {
            rollback = true;
          }
        }
      }
      if (rollback) {
        // The built message is unreachable to every receiver: its blocks
        // and header roll back.
        header_->reclaimed_blocks.fetch_add(ps.chain_count,
                                            std::memory_order_relaxed);
        free_chain(reaper, home_idx, ps.chain_head, ps.chain_count, ps.msg,
                   true);
      }
      // Stage 1: linked — the message was delivered to the FIFO; the next
      // locker's repair_lnvc() already made the queue well-formed.
      break;
    }

    case detail::JournalOp::copy_out: {
      detail::LnvcDesc* d = slot(static_cast<LnvcId>(ps.lnvc_id));
      if (d != nullptr) {
        const ProcessId dd = alock_lnvc(*d, reaper);
        (void)dd;
        if (d->in_use != 0 && d->generation == ps.lnvc_gen) {
          // Release the dead receiver's pin (and BROADCAST claim) if the
          // message is still in the FIFO, then let reclamation advance.
          shm::Offset off = d->msg_head.off;
          while (off != shm::kNullOffset && off != ps.msg) {
            off = static_cast<detail::MsgHeader*>(arena_.raw(off))->next_msg;
          }
          if (off == ps.msg && off != shm::kNullOffset) {
            auto* m = static_cast<detail::MsgHeader*>(arena_.raw(off));
            if (m->pins > 0) --m->pins;
            if (ps.stage == 1) {
              m->bcast_remaining.fetch_sub(1, std::memory_order_acq_rel);
            }
            reclaim(reaper, *d);
          }
        } else if (ps.msg != shm::kNullOffset) {
          // The circuit was destroyed under the pin: destroy_lnvc detached
          // the pinned message to its pinners.  Drop the dead copier's pin
          // and free on last-out.
          auto* m = static_cast<detail::MsgHeader*>(arena_.raw(ps.msg));
          if ((m->flags & detail::MsgHeader::kDetached) != 0) {
            if (m->pins > 0) --m->pins;
            if (m->pins == 0) free_message(reaper, m);
          }
        }
        platform_->unlock(d->lock);
      }
      break;
    }

    case detail::JournalOp::release_chains: {
      // Finish the dead process's destroy walk from its cursor.  The chain
      // was detached from the LNVC slot before the walk began, so nobody
      // else can reach these messages.
      shm::Offset off = ps.msg;
      std::uint64_t blocks = 0;
      while (off != shm::kNullOffset) {
        auto* m = static_cast<detail::MsgHeader*>(arena_.raw(off));
        const shm::Offset next = m->next_msg;
        if (m->pins > 0 ||
            (m->flags & detail::MsgHeader::kDetached) != 0) {
          // A view/copy holder still pins this message: hand it to its
          // pinners (the destroy-time detach protocol) instead of freeing
          // storage out from under them.  The last pinner frees it.
          m->flags |= detail::MsgHeader::kDetached;
          ps.msg = next;
          m->next_msg = shm::kNullOffset;
          off = next;
          continue;
        }
        if ((m->flags & detail::MsgHeader::kSlab) != 0) {
          slab_pools()[node_of_offset(m->first_block)].slabs.push(
              arena_, m->first_block);
          home.msgs.push(arena_, off);
        } else {
          blocks += m->nblocks;
          shm::Offset head = m->first_block;
          std::uint32_t count = m->nblocks;
          shm::Offset msg = off;
          free_chain(reaper, home_idx, head, count, msg, true);
        }
        off = next;
        ps.msg = next;
      }
      if (blocks > 0) {
        header_->reclaimed_blocks.fetch_add(blocks,
                                            std::memory_order_relaxed);
      }
      break;
    }
  }
  // Quota-reservation journal: refund an armed admission charge unless
  // the enqueue committed the message into the FIFO (stage 1), in which
  // case the linked message owns the charge (quota_release pays it back
  // when the message leaves the queue) and the journal only disarms.
  // Both the refund and the disarm happen under the descriptor lock so a
  // concurrent repair_lnvc recompute never sees a refunded-but-armed
  // journal (which would double-count the charge).
  if (ps.q_active.load(std::memory_order_acquire) != 0) {
    const bool message_kept =
        op == detail::JournalOp::enqueue && ps.stage == 1;
    detail::LnvcDesc* qd = slot(static_cast<LnvcId>(ps.q_lnvc));
    if (qd != nullptr) {
      alock_lnvc(*qd, reaper);
      if (!message_kept && qd->in_use != 0 && qd->generation == ps.q_gen) {
        qd->used_blocks = qd->used_blocks >= ps.q_blocks
                              ? qd->used_blocks - ps.q_blocks
                              : 0;
        qd->used_slabs =
            qd->used_slabs >= ps.q_slabs ? qd->used_slabs - ps.q_slabs : 0;
      }
      ps.q_active.store(0, std::memory_order_release);
      platform_->unlock(qd->lock);
      park_ripple(*qd);
    } else {
      ps.q_active.store(0, std::memory_order_release);
    }
  }
  // Slab extent in hand (standalone operand: armed by slab_alloc, cleared
  // only when ownership transfers to a FIFO or back to the pool): roll it
  // back.  An enqueue that reached stage 1 already cleared it in the same
  // span as the stage store, so this never double-frees a linked slab.
  if (ps.slab != shm::kNullOffset) {
    slab_pools()[node_of_offset(ps.slab)].slabs.push(arena_, ps.slab);
    ps.slab = shm::kNullOffset;
  }
  ps.op.store(static_cast<std::uint32_t>(detail::JournalOp::none),
              std::memory_order_release);
  ps.stage = 0;
  ps.chain_head = ps.chain_tail = ps.msg = shm::kNullOffset;
  ps.chain_count = 0;
  ps.refill_head = ps.refill_tail = ps.refill_msgs = shm::kNullOffset;
  ps.refill_count = ps.refill_msg_count = 0;
}

Status Facility::reap(ProcessId reaper, ProcessId pid) {
  if (pid >= header_->max_processes || reaper >= header_->max_processes ||
      reaper == pid) {
    return Status::invalid_argument;
  }
  register_process(reaper);
  detail::ProcSlot& ps = pslot(pid);
  std::uint32_t st = ps.state.load(std::memory_order_acquire);
  if (st == detail::ProcSlot::kFree || st == detail::ProcSlot::kReaped) {
    return Status::ok;  // never participated, or already swept
  }
  if (st == detail::ProcSlot::kLive) {
    if (process_alive(pid)) return Status::invalid_argument;
    declare_dead(pid);
  }
  // Claim: exactly one reaper performs the sweep.
  std::uint32_t expected = detail::ProcSlot::kDead;
  if (!ps.state.compare_exchange_strong(expected, detail::ProcSlot::kReaped,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    return Status::ok;  // lost the race; the winner finishes
  }
  ps.journal_resolved = 0;
  ps.swept_by.store(reaper + 1, std::memory_order_release);
  sweep(reaper, pid);
  return Status::ok;
}

void Facility::sweep(ProcessId reaper, ProcessId pid) {
  detail::ProcSlot& ps = pslot(pid);
  // 1. Roll the half-done operation forward or back (once: a resumed
  //    sweep skips it).  Every later step re-runs safely: each one's
  //    effect and its progress land in the same critical section.
  if (ps.journal_resolved == 0) {
    resolve_journal(reaper, ps, pid);
    ps.journal_resolved = 1;
  }

  // 1b. Drop the dead process's held message views: each holds one pin
  //     (plus a BROADCAST claim) on a message its circuit still owns — or,
  //     if the circuit died first, on one detached to its pinners.
  for (std::uint32_t vi = 0; vi < detail::kMaxViews; ++vi) {
    detail::ViewSlot& v = ps.views[vi];
    const std::uint32_t vstate = v.active.load(std::memory_order_acquire);
    if (vstate == detail::ViewSlot::kIdle) continue;
    detail::LnvcDesc* vd = slot(static_cast<LnvcId>(v.lnvc_id));
    const shm::Offset m_off = v.msg;
    if (vstate == detail::ViewSlot::kReserved || vd == nullptr ||
        m_off == shm::kNullOffset) {
      // A reservation holds no pin (the process died between reserving the
      // slot and committing the claim): just return the slot.
      v.active.store(detail::ViewSlot::kIdle, std::memory_order_release);
      continue;
    }
    alock_lnvc(*vd, reaper);
    auto* vm = static_cast<detail::MsgHeader*>(arena_.raw(m_off));
    const std::uint32_t vgen = v.lnvc_gen;
    const bool vbcast = v.bcast != 0;
    v.active.store(detail::ViewSlot::kIdle, std::memory_order_release);
    v.msg = shm::kNullOffset;
    unpin(reaper, *vd, vm, vgen, vbcast);
    platform_->unlock(vd->lock);
  }

  // 2. Close every connection the dead process held, with the paper's
  //    last-connection-destroys semantics.  Opens serialize per name
  //    bucket now, not on the registry lock, so this loop takes only the
  //    per-descriptor locks — and re-enters through the owning bucket when
  //    a removal leaves the circuit empty (destroy_lnvc unlinks the name
  //    chain, and bucket -> descriptor is the lock order).
  std::uint64_t closed = 0;
  detail::LnvcDesc* t = table();
  for (std::uint32_t i = 0; i < header_->max_lnvcs; ++i) {
    detail::LnvcDesc& d = t[i];
    alock_lnvc(d, reaper);
    if (d.in_use == 0) {
      platform_->unlock(d.lock);
      continue;
    }
    bool removed = false;
    shm::Offset* link = &d.connections.off;
    while (*link != shm::kNullOffset) {
      auto* conn = static_cast<detail::Connection*>(arena_.raw(*link));
      if (conn->process_id != pid) {
        link = &conn->next;
        continue;
      }
      // Its watches point at the dead process's own ready set (reset
      // below) or its poll set (destroyed below): drop them silently.
      watch_disarm(d, *conn, ~std::uint32_t{0});
      if (conn->is_bcast()) {
        // Unread claims of the dead receiver release, as if it had closed.
        shm::Offset m_off = conn->bcast_head;
        while (m_off != shm::kNullOffset) {
          auto* m = static_cast<detail::MsgHeader*>(arena_.raw(m_off));
          m->bcast_remaining.fetch_sub(1, std::memory_order_acq_rel);
          m_off = m->next_msg;
        }
        --d.n_bcast;
      } else if (conn->is_fcfs()) {
        --d.n_fcfs;
      } else {
        --d.n_senders;
        if (d.n_senders == 0) d.last_sender_died = 1;
      }
      const shm::Offset conn_off = *link;
      *link = conn->next;
      header_->conn_list.push(arena_, conn_off);
      removed = true;
      ++closed;
    }
    if (removed) {
      if (d.n_senders + d.n_fcfs + d.n_bcast == 0) {
        // Last connection gone: destroy, which requires the owning bucket
        // locked first.  Drop the descriptor lock, re-enter in bucket ->
        // descriptor order, and re-check — a racing open may have attached
        // a new connection in the window (then the circuit lives on).
        platform_->unlock(d.lock);
        ProcessId bdead = kNoProcess;
        detail::DirBucket& b = lock_bucket_of(d, reaper, &bdead);
        if (d.in_use != 0 && d.n_senders + d.n_fcfs + d.n_bcast == 0) {
          destroy_lnvc(reaper, d);
        }
        platform_->unlock(d.lock);
        platform_->unlock(b.lock);
        continue;
      }
      reclaim(reaper, d);
      // The reaped connection invalidates cached fast-path validations
      // (a departed BROADCAST receiver may even restore eligibility).
      update_fast_state(d);
      // Blocked receivers must reconsider: their sender may be gone
      // (lnvc_orphaned) or a released claim may have freed a message.
      platform_->notify_all(d.cond);
      if (d.last_sender_died != 0) watch_fire_all(d, ~std::uint32_t{0});
      if (header_->lockfree_fcfs != 0) {
        rpark_wake(d, d.generation, /*all=*/true);
      }
    }
    platform_->unlock(d.lock);
  }
  if (closed > 0) {
    header_->reaped_connections.fetch_add(closed, std::memory_order_relaxed);
  }

  // 2b. Descriptor slots the dead process claimed but never committed
  //     (free_pop -> crash before in_use = 1, or destroy -> crash before
  //     free_push): relist them.  Under lnvc_free_lock so the sweep is
  //     atomic with free_pop's exhaustion rebuild — the slot is relisted
  //     exactly once.
  {
    (void)alock(header_->lnvc_free_lock, reaper);
    for (std::uint32_t i = 0; i < header_->max_lnvcs; ++i) {
      detail::LnvcDesc& d = t[i];
      if (d.free_state.load(std::memory_order_acquire) ==
              detail::LnvcDesc::kClaimed &&
          d.free_claimant == pid) {
        d.free_next = header_->lnvc_free_head;
        d.free_state.store(detail::LnvcDesc::kFreeListed,
                           std::memory_order_relaxed);
        header_->lnvc_free_head = i + 1;
      }
    }
    platform_->unlock(header_->lnvc_free_lock);
  }

  // 2c. Poll sets: destroy the ones the dead process owned (detaching
  //     members and waking any waiter), and clear its waiter registration
  //     anywhere else so senders stop unparking a corpse.
  {
    detail::PollSet* ptab = pollset_table();
    for (std::uint32_t i = 0; i < header_->max_pollsets; ++i) {
      detail::PollSet& p = ptab[i];
      alock(p.lock, reaper);
      if (p.in_use != 0 && p.owner_pid == pid) {
        pollset_destroy_locked(reaper, p);  // unlocks
        continue;
      }
      std::uint32_t w = pid + 1;
      p.waiter_pid.compare_exchange_strong(w, 0, std::memory_order_seq_cst);
      platform_->unlock(p.lock);
    }
  }

  // 3. Return the dead process's magazine to the pools, inside the
  //    magazine's critical section (the reaper's pushes take no platform
  //    lock), so the magazine is never empty while its nodes are in hand.
  detail::ProcCache& cache = caches()[pid];
  alock(cache.lock, reaper);
  shm::Offset bh = cache.block_head;
  std::uint32_t bn = cache.block_count.load(std::memory_order_relaxed);
  header_->reclaimed_blocks.fetch_add(bn, std::memory_order_relaxed);
  shm::Offset no_msg = shm::kNullOffset;
  free_chain(reaper, home_shard(pid), bh, bn, no_msg, true);
  cache.block_head = cache.block_tail = shm::kNullOffset;
  cache.block_count.store(0, std::memory_order_relaxed);
  detail::PoolShard& home = shards()[home_shard(pid)];
  for (shm::Offset mh = cache.msg_head; mh != shm::kNullOffset;) {
    const shm::Offset next = *static_cast<shm::Offset*>(arena_.raw(mh));
    home.msgs.push(arena_, mh);
    mh = next;
  }
  cache.msg_head = shm::kNullOffset;
  cache.msg_count.store(0, std::memory_order_relaxed);
  platform_->unlock(cache.lock);

  // 4. Repair monitor membership the death leaked, then wake everyone who
  //    might have been waiting on the dead process.  Its receive_any set
  //    is watched by nothing now (every connection closed above); clear it
  //    for the pid's next incarnation.
  reset_ready_set(any_set(pid));
  if (ps.in_exhaustion.exchange(0, std::memory_order_acq_rel) != 0) {
    header_->exhaustion_waiters.fetch_sub(1, std::memory_order_acq_rel);
  }
  if (ps.park_active.exchange(0, std::memory_order_acq_rel) != 0) {
    // Died parked in a quota FIFO: clearing the membership flag above
    // already promoted the next ticket (head is chosen by scanning live
    // members); drop the waiter count and wake the queue.
    detail::LnvcDesc* pd = slot(static_cast<LnvcId>(ps.park_lnvc));
    if (pd != nullptr) {
      alock_lnvc(*pd, reaper);
      if (pd->in_use != 0 && pd->generation == ps.park_gen &&
          pd->park_waiters.load(std::memory_order_acquire) > 0) {
        pd->park_waiters.fetch_sub(1, std::memory_order_acq_rel);
      }
      platform_->unlock(pd->lock);
      park_ripple(*pd);
    }
  }
  if (ps.rpark_active.exchange(0, std::memory_order_acq_rel) != 0) {
    // Died parked on a lock-free FCFS claim.  Clearing the membership
    // flag removes the corpse from every head-by-scan; the waiter count
    // it contributed must follow, and if a sender's single wake landed on
    // the corpse, the baton passes to the next live claimant here.
    detail::LnvcDesc* rd = slot(static_cast<LnvcId>(
        ps.rpark_lnvc.load(std::memory_order_relaxed)));
    if (rd != nullptr) {
      alock_lnvc(*rd, reaper);
      if (rd->rpark_waiters.load(std::memory_order_acquire) > 0) {
        rd->rpark_waiters.fetch_sub(1, std::memory_order_acq_rel);
      }
      if (rd->in_use != 0) {
        if (header_->lockfree_fcfs != 0) drain_injection(*rd);
        if (rd->fcfs_head &&
            rd->rpark_waiters.load(std::memory_order_seq_cst) > 0) {
          rpark_wake(*rd, rd->generation, /*all=*/false);
        }
      }
      platform_->unlock(rd->lock);
    }
  }
  alock(header_->blocks_lock, reaper);
  platform_->unlock(header_->blocks_lock);
  platform_->notify_all(header_->blocks_cond);

  header_->reaps.fetch_add(1, std::memory_order_relaxed);
  ps.swept_by.store(0, std::memory_order_release);
  // Sweeps this process was running when it died: nobody else resumes
  // them, since their victims are already claimed.
  for (ProcessId q = 0; q < header_->max_processes; ++q) {
    std::uint32_t by = pid + 1;
    if (q != pid && pslot(q).swept_by.compare_exchange_strong(
                        by, reaper + 1, std::memory_order_acq_rel)) {
      sweep(reaper, q);
    }
  }
}

void Facility::reap_if_dead(ProcessId reaper, ProcessId dead) {
  if (dead != kNoProcess) note_pending_dead(dead);
  // Reaping may itself seize locks from further dead processes (noted into
  // the pending set), so drain until quiet.  Termination: each pid is
  // reaped at most once (the kReaped state machine).
  while (tl_n_pending_dead > 0) {
    const ProcessId victim = tl_pending_dead[--tl_n_pending_dead];
    if (victim != reaper) reap(reaper, victim);
  }
}

bool Facility::no_live_receiver(ProcessId self) {
  detail::LnvcDesc* t = table();
  for (std::uint32_t i = 0; i < header_->max_lnvcs; ++i) {
    detail::LnvcDesc& d = t[i];
    alock_lnvc(d, self);
    bool found = false;
    if (d.in_use != 0) {
      shm::Offset off = d.connections.off;
      while (off != shm::kNullOffset) {
        const auto* conn =
            static_cast<const detail::Connection*>(arena_.raw(off));
        if (!conn->is_sender() &&
            (conn->process_id == self || process_alive(conn->process_id))) {
          found = true;
          break;
        }
        off = conn->next;
      }
    }
    platform_->unlock(d.lock);
    if (found) return false;
  }
  return true;
}

BlockAudit Facility::block_audit() const {
  auto* self = const_cast<Facility*>(this);
  BlockAudit a;
  a.blocks_total = header_->blocks_total;
  a.slabs_total = header_->slabs_total;
  const detail::SlabPool* sp = slab_pools();
  for (std::uint32_t nd = 0; nd < header_->numa_nodes; ++nd) {
    a.slabs_free += sp[nd].slabs.available();
  }
  const detail::PoolShard* sh = shards();
  for (std::uint32_t i = 0; i < header_->n_shards; ++i) {
    a.blocks_free += sh[i].blocks.available();
  }
  const detail::ProcCache* pc = caches();
  for (std::uint32_t p = 0; p < header_->max_processes; ++p) {
    a.blocks_cached += pc[p].block_count.load(std::memory_order_relaxed);
  }
  detail::LnvcDesc* t = table();
  // Messages sitting on injection stacks / orphan lists: counted as queued
  // here, and remembered so an armed stage-2 enqueue journal naming one of
  // them contributes nothing (the storage is already on the books).
  std::vector<shm::Offset> injected;
  for (std::uint32_t i = 0; i < header_->max_lnvcs; ++i) {
    detail::LnvcDesc& d = t[i];
    self->platform_->lock(d.lock);
    std::vector<shm::Offset> in_fifo;
    if (d.in_use != 0) {
      shm::Offset off = d.msg_head.off;
      while (off != shm::kNullOffset) {
        const auto* m =
            static_cast<const detail::MsgHeader*>(arena_.raw(off));
        if ((m->flags & detail::MsgHeader::kSlab) != 0) {
          ++a.slabs_queued;
        }
        a.blocks_queued += m->nblocks;
        if (header_->lockfree_fcfs != 0) in_fifo.push_back(off);
        off = m->next_msg;
      }
    }
    if (header_->lockfree_fcfs != 0) {
      for (shm::Offset off = d.orphan_head; off != shm::kNullOffset;) {
        const auto* m =
            static_cast<const detail::MsgHeader*>(arena_.raw(off));
        a.blocks_queued += m->nblocks;
        injected.push_back(off);
        off = m->next_msg;
      }
      for (shm::Offset off = d.inject_head.load(std::memory_order_seq_cst);
           off != shm::kNullOffset;) {
        const auto* m =
            static_cast<const detail::MsgHeader*>(arena_.raw(off));
        injected.push_back(off);
        // A node both on the chain and in the FIFO (drainer died between
        // splice and cut) is already counted by the FIFO walk above.
        bool spliced = false;
        for (const shm::Offset s : in_fifo) {
          if (s == off) {
            spliced = true;
            break;
          }
        }
        if (!spliced) a.blocks_queued += m->nblocks;
        off = m->inject_next;
      }
    }
    self->platform_->unlock(d.lock);
  }
  // Detached messages live outside every FIFO, owned only by their
  // pinners; count each exactly once via the records that pin it (a
  // broadcast message may be pinned by several holders).
  std::vector<shm::Offset> seen_detached;
  auto note_detached = [&](shm::Offset off) {
    if (off == shm::kNullOffset) return;
    const auto* m = static_cast<const detail::MsgHeader*>(arena_.raw(off));
    if ((m->flags & detail::MsgHeader::kDetached) == 0) return;
    for (const shm::Offset s : seen_detached) {
      if (s == off) return;
    }
    seen_detached.push_back(off);
    if ((m->flags & detail::MsgHeader::kSlab) != 0) {
      ++a.slabs_journaled;
    } else {
      a.blocks_journaled += m->nblocks;
    }
  };
  for (std::uint32_t p = 0; p < header_->max_processes; ++p) {
    const detail::ProcSlot& ps = pslot(p);
    if (ps.fm_stage.load(std::memory_order_acquire) == 1) {
      if (ps.fm_slab != 0) {
        ++a.slabs_journaled;
      } else {
        a.blocks_journaled += ps.fm_count;
      }
    }
    // Standalone slab operand: an extent in hand between slab_alloc and
    // the ownership hand-off (FIFO link or slab_free).
    if (ps.slab != shm::kNullOffset) ++a.slabs_journaled;
    for (std::uint32_t vi = 0; vi < detail::kMaxViews; ++vi) {
      const detail::ViewSlot& v = ps.views[vi];
      // Reserved slots hold no pin and no resources; only armed views
      // count toward the journaled column.
      if (v.active.load(std::memory_order_acquire) ==
          detail::ViewSlot::kArmed) {
        note_detached(v.msg);
      }
    }
    switch (static_cast<detail::JournalOp>(
        ps.op.load(std::memory_order_acquire))) {
      case detail::JournalOp::none:
        break;
      case detail::JournalOp::gather:
        a.blocks_journaled += ps.chain_count + ps.refill_count;
        break;
      case detail::JournalOp::enqueue:
        // Stage 1 means the message is linked and counted as queued.
        // (A stage-0 slab message's extent is counted via ps.slab.)
        if (ps.stage == 0) {
          a.blocks_journaled += ps.chain_count;
        } else if (ps.stage == 2 &&
                   ps.inject_drained.load(std::memory_order_acquire) <
                       ps.j_inject_stamp) {
          // Armed fast push, receipt not issued: on a stack or orphan
          // list it is already counted as queued; otherwise the process
          // holds a fully built message that never published.
          bool on_stack = false;
          for (const shm::Offset s : injected) {
            if (s == ps.msg) {
              on_stack = true;
              break;
            }
          }
          if (!on_stack) a.blocks_journaled += ps.chain_count;
        }
        break;
      case detail::JournalOp::copy_out:
        // An in-FIFO pinned message is counted as queued; a detached one
        // is owned by its pinners and counted here.
        note_detached(ps.msg);
        break;
      case detail::JournalOp::release_chains: {
        shm::Offset off = ps.msg;
        while (off != shm::kNullOffset) {
          const auto* m =
              static_cast<const detail::MsgHeader*>(arena_.raw(off));
          if (m->pins > 0 ||
              (m->flags & detail::MsgHeader::kDetached) != 0) {
            // Counted via the pinners' view/copy_out records.
            off = m->next_msg;
            continue;
          }
          if ((m->flags & detail::MsgHeader::kSlab) != 0) {
            ++a.slabs_journaled;
          } else {
            a.blocks_journaled += m->nblocks;
          }
          off = m->next_msg;
        }
        break;
      }
    }
  }
  return a;
}

std::vector<OrphanInfo> Facility::orphan_infos() const {
  auto* self = const_cast<Facility*>(this);
  std::vector<OrphanInfo> infos;
  const std::uint32_t n = header_->max_processes;
  std::vector<std::uint32_t> conns(n, 0);
  detail::LnvcDesc* t = table();
  for (std::uint32_t i = 0; i < header_->max_lnvcs; ++i) {
    detail::LnvcDesc& d = t[i];
    self->platform_->lock(d.lock);
    if (d.in_use != 0) {
      shm::Offset off = d.connections.off;
      while (off != shm::kNullOffset) {
        const auto* conn =
            static_cast<const detail::Connection*>(arena_.raw(off));
        if (conn->process_id < n) ++conns[conn->process_id];
        off = conn->next;
      }
    }
    self->platform_->unlock(d.lock);
  }
  for (std::uint32_t p = 0; p < n; ++p) {
    const detail::ProcSlot& ps = pslot(p);
    const std::uint32_t st = ps.state.load(std::memory_order_acquire);
    if (st == detail::ProcSlot::kFree && conns[p] == 0) continue;
    OrphanInfo o;
    o.pid = p;
    o.os_pid = ps.os_pid;
    o.node = ps.node;
    o.state = st;
    o.os_alive = process_alive(p);
    o.connections = conns[p];
    o.magazine_blocks =
        caches()[p].block_count.load(std::memory_order_relaxed);
    o.journal_op = ps.op.load(std::memory_order_acquire);
    for (std::uint32_t vi = 0; vi < detail::kMaxViews; ++vi) {
      if (ps.views[vi].active.load(std::memory_order_acquire) ==
          detail::ViewSlot::kArmed) {
        ++o.views;
      }
    }
    infos.push_back(o);
  }
  return infos;
}

std::uint64_t Facility::suspicion_ns() const noexcept {
  return header_->suspicion_ns;
}

// --- intent-journal arm/disarm helpers ---------------------------------
//
// Discipline: operand fields first, the commit point (`op` / `fm_stage`)
// last with release ordering; the commit point is cleared first when
// disarming.  Callers place each helper in the same inter-sim-point span
// as the mutation it describes.

void Facility::journal_gather(ProcessId pid, const detail::GatherChain& chain,
                              shm::Offset msg) {
  detail::ProcSlot& ps = pslot(pid);
  ps.chain_head = chain.head;
  ps.chain_tail = chain.tail;
  ps.chain_count = static_cast<std::uint32_t>(chain.count);
  ps.msg = msg;
  ps.refill_head = ps.refill_tail = ps.refill_msgs = shm::kNullOffset;
  ps.refill_count = ps.refill_msg_count = 0;
  ps.stage = 0;
  ps.op.store(static_cast<std::uint32_t>(detail::JournalOp::gather),
              std::memory_order_release);
}

void Facility::journal_enqueue(ProcessId pid, LnvcId id, std::uint32_t gen,
                               shm::Offset msg,
                               const detail::GatherChain& chain) {
  detail::ProcSlot& ps = pslot(pid);
  ps.lnvc_id = static_cast<std::uint32_t>(id);
  ps.lnvc_gen = gen;
  ps.msg = msg;
  ps.chain_head = chain.head;
  ps.chain_tail = chain.tail;
  ps.chain_count = static_cast<std::uint32_t>(chain.count);
  ps.stage = 0;
  ps.op.store(static_cast<std::uint32_t>(detail::JournalOp::enqueue),
              std::memory_order_release);
}

void Facility::journal_copy_out(ProcessId pid, LnvcId id, std::uint32_t gen,
                                shm::Offset msg, bool bcast) {
  detail::ProcSlot& ps = pslot(pid);
  ps.lnvc_id = static_cast<std::uint32_t>(id);
  ps.lnvc_gen = gen;
  ps.msg = msg;
  ps.chain_head = ps.chain_tail = shm::kNullOffset;
  ps.chain_count = 0;
  ps.stage = bcast ? 1 : 0;
  ps.op.store(static_cast<std::uint32_t>(detail::JournalOp::copy_out),
              std::memory_order_release);
}

void Facility::journal_release_chains(ProcessId pid, detail::LnvcDesc& d,
                                      shm::Offset first_msg) {
  detail::ProcSlot& ps = pslot(pid);
  ps.lnvc_id = static_cast<std::uint32_t>(&d - table());
  ps.lnvc_gen = d.generation;
  ps.msg = first_msg;  // the walk cursor
  ps.chain_head = ps.chain_tail = shm::kNullOffset;
  ps.chain_count = 0;
  ps.stage = 0;
  ps.op.store(static_cast<std::uint32_t>(detail::JournalOp::release_chains),
              std::memory_order_release);
}

void Facility::journal_stage(ProcessId pid, std::uint32_t stage) {
  pslot(pid).stage = stage;
}

void Facility::journal_clear(ProcessId pid) {
  detail::ProcSlot& ps = pslot(pid);
  ps.op.store(static_cast<std::uint32_t>(detail::JournalOp::none),
              std::memory_order_release);
  ps.stage = 0;
  ps.chain_head = ps.chain_tail = ps.msg = shm::kNullOffset;
  ps.chain_count = 0;
  ps.refill_head = ps.refill_tail = ps.refill_msgs = shm::kNullOffset;
  ps.refill_count = ps.refill_msg_count = 0;
}

void Facility::journal_free_arm(ProcessId pid, shm::Offset msg,
                                shm::Offset head, shm::Offset tail,
                                std::uint32_t count) {
  detail::ProcSlot& ps = pslot(pid);
  ps.fm_msg = msg;
  ps.fm_head = head;
  ps.fm_tail = tail;
  ps.fm_count = count;
  ps.fm_slab = 0;
  ps.fm_stage.store(count > 0 ? 1 : 2, std::memory_order_release);
}

void Facility::journal_free_blocks_done(ProcessId pid) {
  detail::ProcSlot& ps = pslot(pid);
  ps.fm_head = ps.fm_tail = shm::kNullOffset;
  ps.fm_count = 0;
  ps.fm_stage.store(2, std::memory_order_release);
}

void Facility::journal_free_clear(ProcessId pid) {
  detail::ProcSlot& ps = pslot(pid);
  ps.fm_stage.store(0, std::memory_order_release);
  ps.fm_msg = ps.fm_head = ps.fm_tail = shm::kNullOffset;
  ps.fm_count = 0;
  ps.fm_slab = 0;
}

}  // namespace mpf
