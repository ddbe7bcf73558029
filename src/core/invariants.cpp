// Invariant oracle (DESIGN.md §13): every global invariant the facility's
// correctness argument rests on, checked against a live arena.
//
// The checks mirror the authoritative recomputations recovery already
// performs — repair_lnvc's head-walk for (msg_tail, fcfs_head, n_queued)
// and the quota ledger, block_audit for conservation — plus the structural
// facts no repair path recomputes because they are never supposed to break
// (chain shapes, sequence monotonicity, connection counts, park membership
// vs. waiter counters, view/pin pairing).
//
// Locking: one descriptor lock at a time, exactly like block_audit.  The
// quota journals, park membership and connection lists of a circuit are
// all mutated under its descriptor lock, so each per-circuit snapshot is
// internally consistent even on a live arena.  Cross-circuit facts
// (conservation, quiescence of process slots) are only exact when the
// caller guarantees quiescence.
#include "mpf/core/invariants.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mpf/shm/arena.hpp"

namespace mpf {

namespace {

/// Blocks a chain message of `len` bytes occupies (mirror of the sender's
/// sizing in lnvc.cpp).
std::size_t blocks_needed(std::size_t len, std::uint32_t payload) {
  return payload == 0 ? 0 : (len + payload - 1) / payload;
}

std::string format_u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

const char* invariant_name(Invariant c) noexcept {
  switch (c) {
    case Invariant::conservation:
      return "conservation";
    case Invariant::fifo:
      return "fifo";
    case Invariant::ledger:
      return "ledger";
    case Invariant::parking:
      return "parking";
    case Invariant::views:
      return "views";
    case Invariant::quiescence:
      return "quiescence";
    case Invariant::directory:
      return "directory";
    case Invariant::watches:
      return "watches";
  }
  return "unknown";
}

std::string InvariantReport::summary() const {
  std::string out;
  for (const InvariantViolation& v : violations) {
    out += invariant_name(v.cls);
    if (v.id != kInvalidLnvc) {
      out += " lnvc=";
      out += format_u64(v.id);
    }
    if (v.pid != ~ProcessId{0}) {
      out += " pid=";
      out += format_u64(v.pid);
    }
    out += ": ";
    out += v.detail;
    out += '\n';
  }
  return out;
}

detail::FacilityHeader& InvariantOracle::header(const Facility& f) {
  return *f.header_;
}

detail::LnvcDesc& InvariantOracle::lnvc(const Facility& f, LnvcId id) {
  return f.table()[id];
}

detail::ProcSlot& InvariantOracle::proc(const Facility& f, ProcessId pid) {
  return f.pslot(pid);
}

detail::PoolShard& InvariantOracle::shard(const Facility& f,
                                          std::uint32_t index) {
  return f.shards()[index];
}

shm::Arena& InvariantOracle::arena(const Facility& f) {
  return const_cast<Facility&>(f).arena_;
}

detail::MsgHeader* InvariantOracle::msg_at(const Facility& f,
                                           shm::Offset off) {
  return off == shm::kNullOffset
             ? nullptr
             : static_cast<detail::MsgHeader*>(f.arena_.raw(off));
}

namespace {

/// Snapshot of one FIFO-linked message, taken under the descriptor lock.
struct MsgSnap {
  shm::Offset off = shm::kNullOffset;
  std::uint32_t nblocks = 0;
  std::uint32_t flags = 0;
  std::uint32_t pins = 0;
  std::uint32_t fcfs_consumed = 0;
  std::uint32_t bcast_remaining = 0;
  std::uint64_t seq = 0;
  std::uint32_t length = 0;
  /// Broadcast claims still owed per the receivers' cursors.
  std::uint32_t expected_bcast = 0;
  LnvcId id = kInvalidLnvc;
  std::uint32_t gen = 0;
};

/// A live receive connection's watch state, taken under its circuit's lock.
struct WatchSnap {
  std::uint32_t armed = 0;
  std::uint32_t pollset = 0;
};

struct Checker {
  const Facility& f;
  detail::FacilityHeader& h;
  bool quiescent;
  InvariantReport rep;
  /// Every message linked into a live FIFO (offset -> snapshot index).
  std::unordered_map<shm::Offset, std::size_t> fifo_index;
  std::vector<MsgSnap> msgs;
  /// Receive connections by (slot << 32 | pid), and how many connections
  /// claim each poll set (by index + 1).
  std::unordered_map<std::uint64_t, WatchSnap> watches;
  std::unordered_map<std::uint32_t, std::uint32_t> enrolled_in;

  void fail(Invariant cls, LnvcId id, ProcessId pid, std::string detail) {
    rep.violations.push_back(InvariantViolation{cls, id, pid,
                                                std::move(detail)});
  }
  void fail(Invariant cls, LnvcId id, std::string detail) {
    fail(cls, id, ~ProcessId{0}, std::move(detail));
  }
  void fail_global(Invariant cls, std::string detail) {
    fail(cls, kInvalidLnvc, ~ProcessId{0}, std::move(detail));
  }
};

}  // namespace

InvariantReport InvariantOracle::check(const Facility& f, bool quiescent) {
  auto* self = const_cast<Facility*>(&f);
  detail::FacilityHeader& h = *f.header_;
  Checker c{f, h, quiescent, {}, {}, {}, {}, {}};
  c.rep.quiescent = quiescent;

  const std::uint64_t msg_cap = h.msgs_total + 2;  // cycle guard
  detail::LnvcDesc* table = f.table();
  // A block reachable from a FIFO, a magazine or a journal is not free:
  // walk `count` links (stopping where they leave every shard's range)
  // and read each block's bit in its owner's map.  Exact under the lock
  // that owns the chain: its blocks left the pool before they entered it.
  const auto expect_taken = [&](shm::Offset b, std::uint64_t count,
                                LnvcId id, ProcessId pid, const char* where) {
    const detail::PoolShard* sh = f.shards();
    for (std::uint64_t i = 0; i < count && i <= h.blocks_total; ++i) {
      const std::uint32_t s = f.owner_shard(b);
      const shm::RunAllocator& runs = sh[s].blocks;
      if (!runs.contains(b) || (b - runs.base()) % runs.node_bytes() != 0) {
        return;
      }
      if (runs.is_free(f.arena_, runs.index_of(b))) {
        c.fail(Invariant::conservation, id, pid,
               std::string("block ") + format_u64(runs.index_of(b)) +
                   " of shard " + format_u64(s) + " is free but reachable "
                   "from " + where);
        return;
      }
      b = static_cast<const detail::Block*>(f.arena_.raw(b))->next;
    }
  };
  std::unordered_map<std::string, LnvcId> names;

  for (std::uint32_t uid = 0; uid < h.max_lnvcs; ++uid) {
    const auto id = static_cast<LnvcId>(uid);
    detail::LnvcDesc& d = table[id];
    self->platform_->lock(d.lock);
    if (d.in_use == 0) {
      if (h.lockfree_fcfs == 0 &&
          d.inject_head.load(std::memory_order_seq_cst) != shm::kNullOffset) {
        c.fail(Invariant::fifo, id,
               "injection stack non-empty with lockfree_fcfs off");
      }
      self->platform_->unlock(d.lock);
      continue;
    }
    ++c.rep.circuits_checked;

    // Name: NUL-terminated, non-empty, unique among live circuits.
    if (std::memchr(d.name, 0, detail::kNameMax + 1) == nullptr) {
      c.fail(Invariant::fifo, id, "name not NUL-terminated");
    } else if (d.name[0] == '\0') {
      c.fail(Invariant::fifo, id, "live circuit with empty name");
    } else {
      auto [it, fresh] = names.emplace(d.name, id);
      if (!fresh) {
        c.fail(Invariant::fifo, id,
               std::string("duplicate live name '") + d.name +
                   "' (also lnvc " + format_u64(it->second) + ")");
      }
    }

    // --- FIFO walk: chain shapes, seq order, derived fields -------------
    const std::size_t first_snap = c.msgs.size();
    std::uint64_t walked = 0;
    shm::Offset last = shm::kNullOffset;
    shm::Offset first_unconsumed = shm::kNullOffset;
    std::uint32_t unconsumed = 0;
    std::uint64_t prev_seq = 0;
    bool have_prev_seq = false;
    std::uint32_t fifo_blocks = 0;
    std::uint32_t fifo_slabs = 0;
    for (shm::Offset off = d.msg_head.off; off != shm::kNullOffset;) {
      if (++walked > msg_cap) {
        c.fail(Invariant::fifo, id, "FIFO walk exceeds msgs_total (cycle)");
        break;
      }
      auto* m = static_cast<detail::MsgHeader*>(f.arena_.raw(off));
      MsgSnap s;
      s.off = off;
      s.nblocks = m->nblocks;
      s.flags = m->flags;
      s.pins = m->pins;
      s.fcfs_consumed = m->fcfs_consumed;
      s.bcast_remaining = m->bcast_remaining.load(std::memory_order_acquire);
      s.seq = m->seq;
      s.length = m->length;
      s.id = id;
      s.gen = d.generation;
      c.fifo_index.emplace(off, c.msgs.size());
      c.msgs.push_back(s);
      ++c.rep.messages_checked;

      if ((m->flags & detail::MsgHeader::kDetached) != 0) {
        c.fail(Invariant::views, id,
               "detached message still linked in FIFO (seq " +
                   format_u64(m->seq) + ")");
      }
      if ((m->flags & detail::MsgHeader::kSlab) != 0) {
        ++fifo_slabs;
        if (m->nblocks != 0) {
          c.fail(Invariant::fifo, id,
                 "slab message with nblocks=" + format_u64(m->nblocks));
        }
        if (m->first_block == shm::kNullOffset ||
            m->first_block != m->last_block) {
          c.fail(Invariant::fifo, id, "slab message chain pointers broken");
        }
        if (h.slab_bytes != 0 && m->length > h.slab_bytes) {
          c.fail(Invariant::fifo, id,
                 "slab message longer than an extent (len " +
                     format_u64(m->length) + ")");
        }
      } else {
        fifo_blocks += m->nblocks;
        const std::size_t need = blocks_needed(m->length, h.block_payload);
        if (m->nblocks != need) {
          c.fail(Invariant::fifo, id,
                 "chain message len " + format_u64(m->length) + " has " +
                     format_u64(m->nblocks) + " blocks, expected " +
                     format_u64(need));
        }
        // Walk the chain exactly nblocks links; the last must be
        // last_block and the links must not run out early.
        shm::Offset b = m->first_block;
        std::uint32_t n = 0;
        while (b != shm::kNullOffset && n < m->nblocks) {
          ++n;
          if (n == m->nblocks) break;
          b = static_cast<const detail::Block*>(f.arena_.raw(b))->next;
        }
        if (n != m->nblocks) {
          c.fail(Invariant::fifo, id,
                 "block chain shorter than nblocks (seq " +
                     format_u64(m->seq) + ")");
        } else if (m->nblocks > 0 && b != m->last_block) {
          c.fail(Invariant::fifo, id,
                 "last_block does not terminate the chain (seq " +
                     format_u64(m->seq) + ")");
        }
        if (m->nblocks == 0 && m->first_block != shm::kNullOffset) {
          c.fail(Invariant::fifo, id, "empty message with a block chain");
        }
        expect_taken(m->first_block, n, id, ~ProcessId{0}, "its FIFO");
      }
      if (have_prev_seq && m->seq <= prev_seq) {
        c.fail(Invariant::fifo, id,
               "sequence not strictly increasing (" + format_u64(prev_seq) +
                   " then " + format_u64(m->seq) + ")");
      }
      prev_seq = m->seq;
      have_prev_seq = true;
      if (m->seq >= d.seq_counter) {
        c.fail(Invariant::fifo, id,
               "message seq " + format_u64(m->seq) +
                   " >= seq_counter " + format_u64(d.seq_counter));
      }
      if (m->fcfs_consumed == 0) {
        if (first_unconsumed == shm::kNullOffset) first_unconsumed = off;
        ++unconsumed;
      }
      last = off;
      off = m->next_msg;
    }
    if (d.msg_tail.off != last) {
      c.fail(Invariant::fifo, id,
             "msg_tail " + format_u64(d.msg_tail.off) +
                 " != last FIFO message " + format_u64(last));
    }
    if (d.fcfs_head.off != first_unconsumed) {
      c.fail(Invariant::fifo, id,
             "fcfs_head " + format_u64(d.fcfs_head.off) +
                 " != first unconsumed message " +
                 format_u64(first_unconsumed));
    }
    if (d.n_queued != unconsumed) {
      c.fail(Invariant::fifo, id,
             "n_queued " + format_u64(d.n_queued) + " != " +
                 format_u64(unconsumed) + " unconsumed messages");
    }

    // --- connection list: counts, duplicates, broadcast cursors ---------
    std::uint32_t senders = 0, fcfs = 0, bcast = 0;
    std::uint64_t conn_walked = 0;
    const std::uint64_t conn_cap =
        static_cast<std::uint64_t>(h.max_processes) * 2 + 2;
    std::unordered_set<std::uint64_t> conn_seen;  // pid * 2 + is_sender
    std::uint32_t armed_watches = 0;
    for (shm::Offset off = d.connections.off; off != shm::kNullOffset;) {
      if (++conn_walked > conn_cap) {
        c.fail(Invariant::fifo, id, "connection list cycle");
        break;
      }
      auto* conn = static_cast<detail::Connection*>(f.arena_.raw(off));
      if (conn->process_id >= h.max_processes) {
        c.fail(Invariant::fifo, id, conn->process_id,
               "connection with out-of-range pid");
        off = conn->next;
        continue;
      }
      const std::uint64_t key =
          static_cast<std::uint64_t>(conn->process_id) * 2 +
          (conn->is_sender() ? 1 : 0);
      if (!conn_seen.insert(key).second) {
        c.fail(Invariant::fifo, id, conn->process_id,
               conn->is_sender() ? "duplicate send connection"
                                 : "duplicate receive connection");
      }
      // Watches: receive connections only, known bits, poll watch only in
      // a poll set, and at rest only for live processes.
      constexpr std::uint32_t kWatchBits =
          detail::Connection::kWatchAny | detail::Connection::kWatchPoll;
      armed_watches += static_cast<std::uint32_t>(std::popcount(conn->armed));
      if (conn->pollset != 0) ++c.enrolled_in[conn->pollset];
      if ((conn->is_sender() && (conn->armed | conn->pollset) != 0) ||
          (conn->armed & ~kWatchBits) != 0 ||
          ((conn->armed & detail::Connection::kWatchPoll) != 0 &&
           conn->pollset == 0)) {
        c.fail(Invariant::watches, id, conn->process_id,
               "malformed watch (armed " + format_u64(conn->armed) +
                   ", pollset " + format_u64(conn->pollset) + ")");
      }
      if (quiescent && conn->armed != 0 &&
          f.pslot(conn->process_id).state.load(std::memory_order_acquire) !=
              detail::ProcSlot::kLive) {
        c.fail(Invariant::watches, id, conn->process_id,
               "watch armed for a process that is not live");
      }
      // Any event that makes a connection deliverable fires its watches,
      // so at rest an armed connection has nothing to deliver.
      bool pulse = false;
      for (const auto& p : d.pulses) pulse = pulse || p.count != 0;
      if (quiescent && conn->armed != 0 &&
          (d.inject_head.load(std::memory_order_acquire) != shm::kNullOffset ||
           (conn->is_fcfs() ? d.fcfs_head.off : conn->bcast_head) !=
               shm::kNullOffset ||
           (pulse && (conn->armed & detail::Connection::kWatchPoll) != 0))) {
        c.fail(Invariant::watches, id, conn->process_id,
               "watch still armed on a deliverable connection (lost wake)");
      }
      if (!conn->is_sender()) {
        c.watches[std::uint64_t{uid} << 32 | conn->process_id] =
            WatchSnap{conn->armed, conn->pollset};
      }
      if (conn->is_sender()) {
        ++senders;
        if (conn->bcast_head != shm::kNullOffset) {
          c.fail(Invariant::views, id, conn->process_id,
                 "send connection with a broadcast cursor");
        }
      } else if (conn->is_fcfs()) {
        ++fcfs;
      } else if (conn->is_bcast()) {
        ++bcast;
        if (conn->bcast_head != shm::kNullOffset) {
          auto it = c.fifo_index.find(conn->bcast_head);
          if (it == c.fifo_index.end() || it->second < first_snap) {
            c.fail(Invariant::views, id, conn->process_id,
                   "broadcast cursor points outside the FIFO");
          } else {
            // Everything from the cursor to the tail is still owed to
            // this receiver.
            for (std::size_t i = it->second; i < c.msgs.size(); ++i) {
              ++c.msgs[i].expected_bcast;
            }
          }
        }
      } else {
        c.fail(Invariant::fifo, id, conn->process_id,
               "connection with unknown kind " + format_u64(conn->kind));
      }
      off = conn->next;
    }
    if (d.n_senders != senders || d.n_fcfs != fcfs || d.n_bcast != bcast) {
      c.fail(Invariant::fifo, id,
             "connection counts (" + format_u64(d.n_senders) + "s/" +
                 format_u64(d.n_fcfs) + "f/" + format_u64(d.n_bcast) +
                 "b) != list (" + format_u64(senders) + "s/" +
                 format_u64(fcfs) + "f/" + format_u64(bcast) + "b)");
    }
    if (d.n_senders > 0 && d.last_sender_died != 0) {
      c.fail(Invariant::fifo, id,
             "last_sender_died set while senders are connected");
    }

    // --- watches: armed count vs. armed connection watches --------------
    if (d.armed.load(std::memory_order_acquire) != armed_watches) {
      c.fail(Invariant::watches, id,
             "armed count " +
                 format_u64(d.armed.load(std::memory_order_relaxed)) + " != " +
                 format_u64(armed_watches) + " armed connection watches");
    }

    // --- broadcast remaining vs. cursors (lower bound; exact at rest
    // once armed views are folded in, below) -----------------------------
    for (std::size_t i = first_snap; i < c.msgs.size(); ++i) {
      if (c.msgs[i].bcast_remaining < c.msgs[i].expected_bcast) {
        c.fail(Invariant::views, id,
               "bcast_remaining " + format_u64(c.msgs[i].bcast_remaining) +
                   " < " + format_u64(c.msgs[i].expected_bcast) +
                   " cursors owed (seq " + format_u64(c.msgs[i].seq) + ")");
      }
    }

    // --- injection stack / orphan list (lock-free tier) -----------------
    if (h.lockfree_fcfs == 0) {
      if (d.inject_head.load(std::memory_order_seq_cst) != shm::kNullOffset ||
          d.orphan_head != shm::kNullOffset) {
        c.fail(Invariant::fifo, id,
               "injection state non-empty with lockfree_fcfs off");
      }
    } else {
      std::uint64_t stack_walked = 0;
      for (shm::Offset off = d.inject_head.load(std::memory_order_seq_cst);
           off != shm::kNullOffset;) {
        if (++stack_walked > msg_cap) {
          c.fail(Invariant::fifo, id, "injection stack cycle");
          break;
        }
        const auto* m =
            static_cast<const detail::MsgHeader*>(f.arena_.raw(off));
        if (m->src_pid >= h.max_processes) {
          c.fail(Invariant::fifo, id, "injected message with bad src_pid");
          break;
        }
        off = m->inject_next;
      }
      std::uint64_t orphan_walked = 0;
      for (shm::Offset off = d.orphan_head; off != shm::kNullOffset;) {
        if (++orphan_walked > msg_cap) {
          c.fail(Invariant::fifo, id, "orphan list cycle");
          break;
        }
        off = static_cast<const detail::MsgHeader*>(f.arena_.raw(off))
                  ->next_msg;
      }
    }

    // --- quota ledger ----------------------------------------------------
    // Messages enqueued while the circuit was unlimited carry no charge
    // and set_admission never recharges, so the recomputed cost is an
    // upper bound, not an equality (repair_lnvc resets used to exactly
    // this bound).  Armed reservation journals (charges whose message is
    // not linked yet) are part of the bound; they arm/disarm only under
    // this descriptor lock.
    std::uint32_t journaled_blocks = 0;
    std::uint32_t journaled_slabs = 0;
    std::uint32_t parked_senders = 0;
    std::uint32_t parked_receivers = 0;
    for (ProcessId p = 0; p < h.max_processes; ++p) {
      detail::ProcSlot& ps = f.pslot(p);
      if (ps.q_active.load(std::memory_order_acquire) != 0 &&
          ps.q_lnvc == uid && ps.q_gen == d.generation) {
        journaled_blocks += ps.q_blocks;
        journaled_slabs += ps.q_slabs;
      }
      if (ps.park_active.load(std::memory_order_acquire) != 0 &&
          ps.park_lnvc == uid && ps.park_gen == d.generation) {
        ++parked_senders;
        if (ps.park_ticket >= d.park_next_ticket) {
          c.fail(Invariant::parking, id, p,
                 "park ticket " + format_u64(ps.park_ticket) +
                     " >= park_next_ticket " +
                     format_u64(d.park_next_ticket));
        }
      }
      if (ps.rpark_active.load(std::memory_order_seq_cst) != 0 &&
          ps.rpark_lnvc.load(std::memory_order_relaxed) == uid &&
          ps.rpark_gen.load(std::memory_order_relaxed) == d.generation) {
        ++parked_receivers;
        if (ps.rpark_ticket.load(std::memory_order_relaxed) >=
            d.rpark_next_ticket) {
          c.fail(Invariant::parking, id, p, "rpark ticket out of range");
        }
      }
    }
    if (d.used_blocks > fifo_blocks + journaled_blocks) {
      c.fail(Invariant::ledger, id,
             "used_blocks " + format_u64(d.used_blocks) + " > " +
                 format_u64(fifo_blocks) + " queued + " +
                 format_u64(journaled_blocks) + " journaled");
    }
    if (d.used_slabs > fifo_slabs + journaled_slabs) {
      c.fail(Invariant::ledger, id,
             "used_slabs " + format_u64(d.used_slabs) + " > " +
                 format_u64(fifo_slabs) + " queued + " +
                 format_u64(journaled_slabs) + " journaled");
    }
    if (d.hw_blocks < d.used_blocks || d.hw_slabs < d.used_slabs) {
      c.fail(Invariant::ledger, id, "high-water mark below used");
    }

    // --- park/rpark: counters vs. membership -----------------------------
    // A waiter decrements the counter after clearing its membership flag,
    // so live the counter is an upper bound; at rest both must be zero.
    const std::uint32_t pw = d.park_waiters.load(std::memory_order_seq_cst);
    const std::uint32_t rw = d.rpark_waiters.load(std::memory_order_seq_cst);
    if (pw < parked_senders) {
      c.fail(Invariant::parking, id,
             "park_waiters " + format_u64(pw) + " < " +
                 format_u64(parked_senders) + " parked members");
    }
    if (rw < parked_receivers) {
      c.fail(Invariant::parking, id,
             "rpark_waiters " + format_u64(rw) + " < " +
                 format_u64(parked_receivers) + " parked members");
    }
    if (quiescent) {
      if (parked_senders != 0 || pw != 0) {
        c.fail(Invariant::parking, id,
               "parked senders at quiescence (" +
                   format_u64(parked_senders) + " members, waiters " +
                   format_u64(pw) + ")");
      }
      if (parked_receivers != 0 || rw != 0) {
        c.fail(Invariant::parking, id,
               "parked receivers at quiescence (" +
                   format_u64(parked_receivers) + " members, waiters " +
                   format_u64(rw) + ")");
      }
    }
    self->platform_->unlock(d.lock);
  }

  // --- view tables: pins and broadcast claims --------------------------
  // Armed views are published with release stores and only the owner (or
  // its reaper) disarms them; the per-message comparison is exact only at
  // rest, when no claim or release is mid-flight.
  std::unordered_map<shm::Offset, std::uint32_t> view_pins;
  std::unordered_map<shm::Offset, std::uint32_t> view_bcast;
  for (ProcessId p = 0; p < h.max_processes; ++p) {
    detail::ProcSlot& ps = f.pslot(p);
    for (std::uint32_t vi = 0; vi < detail::kMaxViews; ++vi) {
      const detail::ViewSlot& v = ps.views[vi];
      if (v.active.load(std::memory_order_acquire) !=
          detail::ViewSlot::kArmed) {
        continue;
      }
      if (v.msg == shm::kNullOffset || v.lnvc_id >= h.max_lnvcs) {
        c.fail(Invariant::views, kInvalidLnvc, p,
               "armed view slot with invalid operands");
        continue;
      }
      ++view_pins[v.msg];
      if (v.bcast != 0) ++view_bcast[v.msg];
      if (quiescent) {
        auto it = c.fifo_index.find(v.msg);
        const auto* m =
            static_cast<const detail::MsgHeader*>(f.arena_.raw(v.msg));
        const bool detached =
            (m->flags & detail::MsgHeader::kDetached) != 0;
        if (it == c.fifo_index.end() && !detached) {
          c.fail(Invariant::views, v.lnvc_id, p,
                 "armed view names a message in no FIFO and not detached");
        } else if (it != c.fifo_index.end() &&
                   static_cast<std::uint32_t>(c.msgs[it->second].id) !=
                       v.lnvc_id) {
          c.fail(Invariant::views, v.lnvc_id, p,
                 "armed view names a message queued on lnvc " +
                     format_u64(c.msgs[it->second].id));
        }
        if (detached && m->pins == 0) {
          c.fail(Invariant::views, v.lnvc_id, p,
                 "detached message with zero pins");
        }
      }
    }
  }
  if (quiescent) {
    // With no copy-out in flight, every pin is an armed view and every
    // outstanding broadcast claim is a cursor or a held broadcast view.
    for (const MsgSnap& s : c.msgs) {
      auto it = view_pins.find(s.off);
      const std::uint32_t pinned =
          it == view_pins.end() ? 0 : it->second;
      if (s.pins != pinned) {
        c.fail(Invariant::views, s.id,
               "message seq " + format_u64(s.seq) + " has pins " +
                   format_u64(s.pins) + " but " + format_u64(pinned) +
                   " armed views");
      }
      auto bit = view_bcast.find(s.off);
      const std::uint32_t bviews =
          bit == view_bcast.end() ? 0 : bit->second;
      if (s.bcast_remaining != s.expected_bcast + bviews) {
        c.fail(Invariant::views, s.id,
               "message seq " + format_u64(s.seq) + " bcast_remaining " +
                   format_u64(s.bcast_remaining) + " != " +
                   format_u64(s.expected_bcast) + " cursors + " +
                   format_u64(bviews) + " held broadcast views");
      }
    }
  }

  // --- process-slot quiescence -----------------------------------------
  if (quiescent) {
    for (ProcessId p = 0; p < h.max_processes; ++p) {
      detail::ProcSlot& ps = f.pslot(p);
      const std::uint32_t st = ps.state.load(std::memory_order_acquire);
      if (st == detail::ProcSlot::kDead) {
        c.fail(Invariant::quiescence, kInvalidLnvc, p,
               "dead process not reaped");
      }
      if (ps.op.load(std::memory_order_acquire) !=
          static_cast<std::uint32_t>(detail::JournalOp::none)) {
        c.fail(Invariant::quiescence, kInvalidLnvc, p,
               "armed intent journal (op " +
                   format_u64(ps.op.load(std::memory_order_relaxed)) + ")");
      }
      if (ps.fm_stage.load(std::memory_order_acquire) != 0) {
        c.fail(Invariant::quiescence, kInvalidLnvc, p,
               "armed free_message record");
      }
      if (ps.q_active.load(std::memory_order_acquire) != 0) {
        c.fail(Invariant::quiescence, kInvalidLnvc, p,
               "armed quota reservation journal");
      }
      if (ps.slab != shm::kNullOffset) {
        c.fail(Invariant::quiescence, kInvalidLnvc, p,
               "slab extent still journaled in hand");
      }
      if (ps.refill_count != 0 || ps.refill_msg_count != 0) {
        c.fail(Invariant::quiescence, kInvalidLnvc, p,
               "refill batch still in the hand-off window");
      }
      if (ps.park_active.load(std::memory_order_acquire) != 0 ||
          ps.rpark_active.load(std::memory_order_acquire) != 0) {
        c.fail(Invariant::quiescence, kInvalidLnvc, p,
               "process still parked");
      }
      if (ps.in_exhaustion.load(std::memory_order_acquire) != 0) {
        c.fail(Invariant::quiescence, kInvalidLnvc, p,
               "process still registered on a monitor");
      }
    }
    if (h.exhaustion_waiters.load(std::memory_order_acquire) != 0) {
      c.fail_global(Invariant::quiescence,
                    "exhaustion_waiters non-zero at rest");
    }
  }

  // --- name directory / descriptor freelist / pollsets ------------------
  // Structural facts hold on a live arena (each walk under its owning
  // lock); the slot-conservation equality is only exact at rest, where no
  // open/close can hold a slot in the transient kClaimed state.
  {
    const std::uint32_t slot_cap = h.max_lnvcs + 2;  // cycle guard
    std::unordered_set<std::uint32_t> chained;
    auto* buckets = static_cast<detail::DirBucket*>(f.arena_.raw(h.dir));
    for (std::uint32_t b = 0; b < h.dir_n_buckets; ++b) {
      detail::DirBucket& bk = buckets[b];
      self->platform_->lock(bk.lock);
      std::uint32_t walked = 0;
      for (std::uint32_t cur = bk.head; cur != 0;) {
        if (++walked > slot_cap) {
          c.fail_global(Invariant::directory,
                        "bucket " + format_u64(b) +
                            " chain exceeds max_lnvcs (cycle)");
          break;
        }
        const std::uint32_t slot = cur - 1;
        if (slot >= h.max_lnvcs) {
          c.fail_global(Invariant::directory,
                        "bucket " + format_u64(b) +
                            " chains out-of-range slot " + format_u64(slot));
          break;
        }
        detail::LnvcDesc& d = table[slot];
        if (!chained.insert(slot).second) {
          c.fail(Invariant::directory, static_cast<LnvcId>(slot),
                 "descriptor chained twice in the directory");
        }
        if (d.free_state.load(std::memory_order_acquire) !=
            detail::LnvcDesc::kSlotLive) {
          c.fail(Invariant::directory, static_cast<LnvcId>(slot),
                 "chained descriptor not kSlotLive");
        }
        if (d.in_use == 0) {
          c.fail(Invariant::directory, static_cast<LnvcId>(slot),
                 "chained descriptor not in_use");
        }
        const std::uint64_t hash =
            d.name_hash.load(std::memory_order_relaxed);
        if ((static_cast<std::uint32_t>(hash) & h.dir_mask) != b) {
          c.fail(Invariant::directory, static_cast<LnvcId>(slot),
                 "descriptor chained in bucket " + format_u64(b) +
                     " but hashes to bucket " +
                     format_u64(static_cast<std::uint32_t>(hash) &
                                h.dir_mask));
        }
        cur = d.dir_next;
      }
      self->platform_->unlock(bk.lock);
    }

    // Freelist: states and shape always; conservation only at rest.
    self->platform_->lock(h.lnvc_free_lock);
    std::uint32_t freelisted = 0, walked = 0;
    bool free_ok = true;
    for (std::uint32_t cur = h.lnvc_free_head; cur != 0;) {
      if (++walked > slot_cap) {
        c.fail_global(Invariant::directory,
                      "freelist exceeds max_lnvcs (cycle)");
        free_ok = false;
        break;
      }
      const std::uint32_t slot = cur - 1;
      if (slot >= h.max_lnvcs) {
        c.fail_global(Invariant::directory,
                      "freelist links out-of-range slot " + format_u64(slot));
        free_ok = false;
        break;
      }
      detail::LnvcDesc& d = table[slot];
      if (d.free_state.load(std::memory_order_acquire) !=
          detail::LnvcDesc::kFreeListed) {
        c.fail(Invariant::directory, static_cast<LnvcId>(slot),
               "freelisted descriptor not kFreeListed");
      }
      if (d.in_use != 0) {
        c.fail(Invariant::directory, static_cast<LnvcId>(slot),
               "freelisted descriptor still in_use");
      }
      if (chained.count(slot) != 0) {
        c.fail(Invariant::directory, static_cast<LnvcId>(slot),
               "descriptor on the freelist and in a directory chain");
      }
      ++freelisted;
      cur = d.free_next;
    }
    self->platform_->unlock(h.lnvc_free_lock);

    std::uint32_t live = 0, claimed = 0;
    for (std::uint32_t uid = 0; uid < h.max_lnvcs; ++uid) {
      switch (table[uid].free_state.load(std::memory_order_acquire)) {
        case detail::LnvcDesc::kSlotLive:
          ++live;
          if (chained.count(uid) == 0) {
            c.fail(Invariant::directory, static_cast<LnvcId>(uid),
                   "live descriptor missing from every directory chain");
          }
          break;
        case detail::LnvcDesc::kClaimed:
          ++claimed;
          break;
        default:
          break;
      }
    }
    if (quiescent && free_ok) {
      if (claimed != 0) {
        c.fail_global(Invariant::directory,
                      format_u64(claimed) +
                          " descriptor slots kClaimed at rest");
      }
      if (freelisted + live + claimed != h.max_lnvcs) {
        c.fail_global(Invariant::directory,
                      "slot conservation: " + format_u64(freelisted) +
                          " freelisted + " + format_u64(live) + " live + " +
                          format_u64(claimed) + " claimed != " +
                          format_u64(h.max_lnvcs));
      }
    }

  }

  // --- ready sets: poll sets and receive_any sets ------------------------
  // At rest (no waiter mid-pop or mid-revalidation): ready words are
  // visible through the summary level, every watched live connection is
  // armed or marked (no lost wake), and a process that left watches
  // nothing.
  if (quiescent) {
    // Returns how many watched slots hold a live watching connection.
    const auto check_set = [&](const detail::ReadySet& rs, ProcessId owner,
                               std::uint32_t bit, std::uint32_t psi1,
                               const std::string& what) {
      const detail::ReadyBits b = f.ready_bits(rs);
      std::uint32_t live = 0;
      for (std::uint32_t w = 0; w < h.ready_words; ++w) {
        const std::uint64_t ready = b.ready[w].load(std::memory_order_acquire);
        std::uint64_t m = b.member[w].load(std::memory_order_acquire);
        if (ready != 0 && ((b.summary[w >> 6].load(std::memory_order_acquire) >>
                            (w & 63)) & 1) == 0) {
          c.fail_global(Invariant::watches, what + " ready word " +
                                                format_u64(w) +
                                                " hidden from the summary");
        }
        for (; m != 0; m &= m - 1) {
          const std::uint32_t s =
              w * 64 + static_cast<std::uint32_t>(std::countr_zero(m));
          const auto it =
              c.watches.find(static_cast<std::uint64_t>(s) << 32 | owner);
          if (it == c.watches.end()) continue;  // closed: dropped lazily
          if (psi1 != 0 && it->second.pollset != psi1) continue;
          ++live;
          if ((it->second.armed & bit) == 0 && ((ready >> (s & 63)) & 1) == 0) {
            c.fail(Invariant::watches, static_cast<LnvcId>(s), owner,
                   what + " watches the circuit, but it is neither armed "
                          "nor marked ready (lost wake)");
          }
        }
      }
      return live;
    };
    const auto has_members = [&](const detail::ReadySet& rs) {
      const detail::ReadyBits b = f.ready_bits(rs);
      for (std::uint32_t w = 0; w < h.ready_words; ++w) {
        if (b.member[w].load(std::memory_order_acquire) != 0) return true;
      }
      return false;
    };
    for (ProcessId p = 0; p < h.max_processes; ++p) {
      const std::string what = "receive_any set of pid " + format_u64(p);
      check_set(f.any_set(p), p, detail::Connection::kWatchAny, 0, what);
      if (f.pslot(p).state.load(std::memory_order_acquire) !=
              detail::ProcSlot::kLive &&
          has_members(f.any_set(p))) {
        c.fail(Invariant::watches, kInvalidLnvc, p,
               what + " still watches circuits after the process left");
      }
    }
    // Every connection enrolled in a poll set is one of its owner's
    // member slots: an enrolled connection missing from the member bitmap
    // would have its marks skipped.
    auto* psets = static_cast<detail::PollSet*>(f.arena_.raw(h.pollsets));
    for (std::uint32_t p = 0; p < h.max_pollsets; ++p) {
      detail::PollSet& ps = psets[p];
      const std::string what = "pollset " + format_u64(p);
      self->platform_->lock(ps.lock);
      const std::uint32_t listed =
          ps.in_use == 0 ? 0
                         : check_set(ps.rs, ps.owner_pid,
                                     detail::Connection::kWatchPoll, p + 1,
                                     what);
      if (listed != c.enrolled_in[p + 1]) {
        c.fail_global(Invariant::watches,
                      what + " lists " + format_u64(listed) + " of the " +
                          format_u64(c.enrolled_in[p + 1]) +
                          " connections enrolled in it");
      }
      if (ps.in_use == 0 && (ps.waiter_pid.load(std::memory_order_acquire) !=
                                 0 ||
                             has_members(ps.rs))) {
        c.fail_global(Invariant::watches,
                      what + " not in_use but has a waiter or members");
      }
      self->platform_->unlock(ps.lock);
    }
  }

  // --- block pool maps ----------------------------------------------------
  // Each shard's bitmap agrees with its free count, stays inside its range,
  // and every free block's link names its address successor (the
  // seam-link invariant); then no magazine or journal chain holds a block
  // the maps call free.
  for (std::uint32_t i = 0; i < h.n_shards; ++i) {
    detail::PoolShard& s = f.shards()[i];
    const shm::RunAllocator& runs = s.blocks;
    const std::string what = "shard " + format_u64(i);
    self->platform_->lock(s.lock);
    std::uint64_t free_bits = 0;
    std::uint64_t bad_links = 0;
    std::uint64_t first_bad = 0;
    for (std::size_t w = 0; w < runs.words(); ++w) {
      std::uint64_t bits = runs.word(f.arena_, w);
      free_bits += static_cast<std::uint64_t>(std::popcount(bits));
      for (; bits != 0; bits &= bits - 1) {
        const std::size_t b = w * 64 + static_cast<std::size_t>(
                                           std::countr_zero(bits));
        if (b >= runs.capacity()) {
          c.fail_global(Invariant::conservation,
                        what + ": free bit " + format_u64(b) +
                            " outside its " + format_u64(runs.capacity()) +
                            "-block range");
          break;
        }
        if (*static_cast<const shm::Offset*>(f.arena_.raw(runs.node(b))) !=
            runs.node(b + 1)) {
          if (bad_links++ == 0) first_bad = b;
        }
      }
    }
    if (free_bits != runs.available()) {
      c.fail_global(Invariant::conservation,
                    what + ": " + format_u64(free_bits) +
                        " free bits but available() = " +
                        format_u64(runs.available()));
    }
    if (bad_links != 0) {
      c.fail_global(Invariant::conservation,
                    what + ": " + format_u64(bad_links) +
                        " free blocks whose link does not name their "
                        "successor (first: block " +
                        format_u64(first_bad) + ")");
    }
    self->platform_->unlock(s.lock);
  }
  // --- block geometry ---------------------------------------------------
  // Each shard's payload array holds block_payload bytes per block, lies
  // inside the arena's carved bytes, and overlaps no other carve the
  // oracle can name: any shard's link range or payload array, or a slab
  // sub-pool's range.  (Fixed at create; no lock needed.)
  {
    struct Carve {
      shm::Offset lo, hi;
      std::string what;
    };
    std::vector<Carve> carves;
    for (std::uint32_t i = 0; i < h.n_shards; ++i) {
      const shm::RunAllocator& runs = f.shards()[i].blocks;
      const std::string shard = "shard " + format_u64(i);
      carves.push_back({runs.base(), runs.end(), shard + "'s link range"});
      carves.push_back({runs.payload_base(), runs.payload_end(),
                        shard + "'s payload array"});
    }
    for (std::uint32_t nd = 0; nd < h.numa_nodes; ++nd) {
      const detail::SlabPool& sp = f.slab_pools()[nd];
      carves.push_back({sp.range_lo, sp.range_hi,
                        "node " + format_u64(nd) + "'s slab range"});
    }
    for (std::uint32_t i = 0; i < h.n_shards; ++i) {
      const shm::RunAllocator& runs = f.shards()[i].blocks;
      if (runs.capacity() == 0) continue;
      const shm::Offset lo = runs.payload_base();
      const shm::Offset hi = runs.payload_end();
      const std::string what = "shard " + format_u64(i) + ": payload array [" +
                               format_u64(lo) + ", " + format_u64(hi) + ")";
      if (runs.payload_bytes() != h.block_payload) {
        c.fail_global(Invariant::conservation,
                      what + " holds " + format_u64(runs.payload_bytes()) +
                          " bytes per block, not " +
                          format_u64(h.block_payload));
      }
      if (lo < sizeof(shm::ArenaHeader) || hi > f.arena_.used()) {
        c.fail_global(Invariant::conservation,
                      what + " lies outside the arena's " +
                          format_u64(f.arena_.used()) + " carved bytes");
      }
      for (std::size_t k = 0; k < carves.size(); ++k) {
        const Carve& o = carves[k];
        if (k == 2 * i + 1 || o.lo == o.hi) continue;  // itself; empty
        if (lo < o.hi && o.lo < hi) {
          c.fail_global(Invariant::conservation,
                        what + " overlaps " + o.what + " [" +
                            format_u64(o.lo) + ", " + format_u64(o.hi) + ")");
        }
      }
    }
  }
  for (ProcessId p = 0; p < h.max_processes; ++p) {
    detail::ProcCache& cache = f.caches()[p];
    self->platform_->lock(cache.lock);
    expect_taken(cache.block_head,
                 cache.block_count.load(std::memory_order_relaxed),
                 kInvalidLnvc, p, "its magazine");
    self->platform_->unlock(cache.lock);
    // Journals are exact only at rest or under the simulator (every
    // record names a walkable chain at each suspension point).
    const detail::ProcSlot& ps = f.pslot(p);
    const auto op =
        static_cast<detail::JournalOp>(ps.op.load(std::memory_order_acquire));
    if (op == detail::JournalOp::gather ||
        (op == detail::JournalOp::enqueue && ps.stage == 0)) {
      expect_taken(ps.chain_head, ps.chain_count, kInvalidLnvc, p,
                   "its gather/enqueue journal");
    }
    if (op == detail::JournalOp::gather) {
      expect_taken(ps.refill_head, ps.refill_count, kInvalidLnvc, p,
                   "its refill journal");
    }
    if (ps.fm_stage.load(std::memory_order_acquire) == 1 && ps.fm_slab == 0) {
      expect_taken(ps.fm_head, ps.fm_count, kInvalidLnvc, p,
                   "its free_message journal");
    }
  }

  // --- conservation -----------------------------------------------------
  const BlockAudit audit = f.block_audit();
  if (!audit.consistent()) {
    c.fail_global(
        Invariant::conservation,
        "block ledger: free " + format_u64(audit.blocks_free) + " + cached " +
            format_u64(audit.blocks_cached) + " + queued " +
            format_u64(audit.blocks_queued) + " + journaled " +
            format_u64(audit.blocks_journaled) + " != total " +
            format_u64(audit.blocks_total) + "; slab ledger: free " +
            format_u64(audit.slabs_free) + " + queued " +
            format_u64(audit.slabs_queued) + " + journaled " +
            format_u64(audit.slabs_journaled) + " != total " +
            format_u64(audit.slabs_total));
  }
  if (quiescent && audit.in_flight() != 0) {
    c.fail_global(Invariant::conservation,
                  format_u64(audit.in_flight()) +
                      " blocks in flight at rest (none attributable to a "
                      "pool, FIFO, or journal)");
  }

  return c.rep;
}

}  // namespace mpf
