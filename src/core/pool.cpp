// Sharded block-pool allocator with per-process magazine caches.
//
// The original MPF design funnels every message allocation and free
// through one global free-list lock — the paper's own scaling analysis
// (§4, Figures 4-6) blames exactly this kind of cross-circuit lock
// serialization for its knees.  This file replaces that funnel:
//
//   * the block and message-header pools are split across N PoolShards,
//     each with its own platform-mediated lock (so the simulator models
//     each shard as an independent virtual-time lock resource);
//   * every process fronts its home shard (pid mod N) with a bounded
//     magazine (ProcCache) of blocks + headers, refilled and flushed in
//     batches, so the steady send/receive cycle touches no shared lock;
//   * each shard's blocks are one carved range under a run allocator
//     (free bitmap, seam links), so chains come out as a few address-
//     ordered runs, and every freed stretch goes back to the shard that
//     carved it (free_chain, the one block-free path);
//   * a shard that runs dry steals from its siblings, and a starving
//     sender raids peer magazines, so no block is ever stranded;
//   * true pool exhaustion keeps the paper's monitor discipline: the
//     sender registers as an exhaustion waiter under blocks_lock and
//     sleeps on blocks_cond (BlockPolicy::wait) or fails immediately
//     (BlockPolicy::fail).  Frees ripple the monitor only while someone
//     is registered, so the common path pays one atomic load.
//
// Lock order: blocks_lock (exhaustion monitor, outermost, only on the
// starvation path) > exactly one of {shard lock, cache lock} at a time.
// Shard and cache locks are never nested inside one another, and the
// free-path monitor ripple acquires blocks_lock only after every pool
// lock has been released, so the order is acyclic.
//
// Visibility of the waiter/free race: a waiter increments
// exhaustion_waiters *before* sweeping every shard and magazine; a freer
// pushes under one of those same locks *before* loading the counter.
// Whichever lock cell they share orders the two, so either the sweep sees
// the freed nodes or the freer sees the waiter and notifies.
#include "mpf/core/facility.hpp"

#include <algorithm>

namespace mpf {

namespace {

using Chain = detail::GatherChain;

shm::Offset& link_of(shm::Arena& arena, shm::Offset node) noexcept {
  return *static_cast<shm::Offset*>(arena.raw(node));
}

void append(shm::Arena& arena, Chain& chain, shm::Offset head,
            shm::Offset tail, std::size_t count) noexcept {
  if (count == 0) return;
  if (chain.tail == shm::kNullOffset) {
    chain.head = head;
  } else {
    link_of(arena, chain.tail) = head;
  }
  chain.tail = tail;
  chain.count += count;
}

}  // namespace

detail::PoolShard* Facility::shards() const noexcept {
  return static_cast<detail::PoolShard*>(arena_.raw(header_->shards));
}

detail::ProcCache* Facility::caches() const noexcept {
  return static_cast<detail::ProcCache*>(arena_.raw(header_->caches));
}

detail::SlabPool* Facility::slab_pools() const noexcept {
  return static_cast<detail::SlabPool*>(arena_.raw(header_->slab_pools));
}

detail::NodeStats* Facility::node_stats() const noexcept {
  return static_cast<detail::NodeStats*>(arena_.raw(header_->node_stats));
}

std::uint32_t Facility::home_shard(ProcessId pid) const noexcept {
  return pid & header_->shard_mask;
}

std::uint32_t Facility::node_of_offset(shm::Offset off) const noexcept {
  if (header_->numa_nodes <= 1) return 0;
  const detail::SlabPool* sp = slab_pools();
  for (std::uint32_t nd = 0; nd < header_->numa_nodes; ++nd) {
    if (off >= sp[nd].range_lo && off < sp[nd].range_hi) return nd;
  }
  return owner_shard(off) & header_->node_mask;
}

std::uint32_t Facility::owner_shard(shm::Offset block) const noexcept {
  const detail::PoolShard* sh = shards();
  for (std::uint32_t i = 0; i < header_->n_shards; ++i) {
    if (sh[i].blocks.contains(block)) return i;
  }
  return 0;
}

void Facility::lock_shard(detail::PoolShard& s, ProcessId pid) {
  const std::uint64_t t0 = platform_->now_ns();
  alock(s.lock, pid);
  const std::uint64_t t1 = platform_->now_ns();
  s.lock_acquisitions.fetch_add(1, std::memory_order_relaxed);
  s.lock_wait_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
}

namespace {

/// Detach up to `want` blocks from the front of a magazine (caller holds
/// the cache lock).  Returns the detached sub-chain.
Chain cache_take_blocks(shm::Arena& arena, detail::ProcCache& c,
                        std::size_t want) noexcept {
  Chain taken;
  const std::uint32_t have = c.block_count.load(std::memory_order_relaxed);
  const std::size_t n = std::min<std::size_t>(have, want);
  if (n == 0) return taken;
  taken.head = c.block_head;
  shm::Offset last = taken.head;
  for (std::size_t i = 1; i < n; ++i) last = link_of(arena, last);
  taken.tail = last;
  taken.count = n;
  const std::uint32_t left = have - static_cast<std::uint32_t>(n);
  c.block_count.store(left, std::memory_order_relaxed);
  if (left == 0) {
    c.block_head = c.block_tail = shm::kNullOffset;
  } else {
    c.block_head = link_of(arena, last);
  }
  return taken;
}

/// Whether a magazine caches `blocks`-block chains: only chains it can
/// serve whole at least twice.  Larger ones gain nothing from it (a shard
/// pop is one critical section either way) and cost their runs: refills
/// and leftovers would splice magazine fragments into shard runs.
bool magazine_fits(const detail::ProcCache& c, std::size_t blocks) noexcept {
  return 2 * blocks <= c.block_cap;
}

/// Prepend a chain to a magazine (caller holds the cache lock).
void cache_put_blocks(shm::Arena& arena, detail::ProcCache& c,
                      shm::Offset head, shm::Offset tail,
                      std::size_t count) noexcept {
  if (count == 0) return;
  link_of(arena, tail) = c.block_head;
  const std::uint32_t have = c.block_count.load(std::memory_order_relaxed);
  if (have == 0) c.block_tail = tail;
  c.block_head = head;
  c.block_count.store(have + static_cast<std::uint32_t>(count),
                      std::memory_order_relaxed);
}

}  // namespace

/// One full acquisition sweep: magazine -> preferred shard (the home
/// shard with its node bits swapped to the target node, with batched
/// magazine refill when that is also the home shard) -> steal from
/// sibling shards, target-node shards first -> raid peer magazines.
/// Extends the partially gathered (msg, chain) in place; returns true
/// when both the header and all `need` blocks are in hand.
bool Facility::try_gather(ProcessId pid, std::size_t need,
                          std::uint32_t target_node, shm::Offset& msg,
                          Chain& chain) {
  detail::ProcCache& cache = caches()[pid];
  const bool caching = cache.block_cap > 0 || cache.msg_cap > 0;
  // Intent-journal mirror: the caller armed a gather record; every pop
  // below updates the record *inside* the same critical section, so a
  // death at any suspension point leaves the record exactly describing
  // what has left the pools.
  detail::ProcSlot& ps = pslot(pid);
  const auto mirror = [&]() {
    ps.chain_head = chain.head;
    ps.chain_tail = chain.tail;
    ps.chain_count = static_cast<std::uint32_t>(chain.count);
    ps.msg = msg;
  };

  // Phase 1: our own magazine.  Blocks come from it only when it covers
  // the whole remaining need, so a leftover never splices a stray run in
  // front of a shard run (peeked unlocked, re-checked under the lock).
  if (caching && (msg == shm::kNullOffset || chain.count < need)) {
    const std::size_t want = need - chain.count;
    const bool fits =
        want > 0 && cache.block_count.load(std::memory_order_relaxed) >= want;
    if (fits || (msg == shm::kNullOffset &&
                 cache.msg_count.load(std::memory_order_relaxed) > 0)) {
      alock(cache.lock, pid);
      if (msg == shm::kNullOffset &&
          cache.msg_count.load(std::memory_order_relaxed) > 0) {
        msg = cache.msg_head;
        cache.msg_head = link_of(arena_, msg);
        cache.msg_count.fetch_sub(1, std::memory_order_relaxed);
      }
      if (want > 0 && cache.block_count.load(std::memory_order_relaxed) >= want) {
        const Chain got = cache_take_blocks(arena_, cache, want);
        append(arena_, chain, got.head, got.tail, got.count);
      }
      mirror();
      platform_->unlock(cache.lock);
    }
    const bool done = msg != shm::kNullOffset && chain.count >= need;
    if (done) {
      cache.hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    cache.misses.fetch_add(1, std::memory_order_relaxed);
  }

  // Phase 2: the preferred shard — the home shard with its node bits
  // swapped to the target node, so blocks come from the node the copy-out
  // will read them on.  Grab a magazine refill in the same critical
  // section (only when the preferred shard is the home shard: the
  // magazine holds *our* node's blocks) so the next sends are pure cache
  // hits (for chains the magazine caches at all).
  const std::uint32_t home = home_shard(pid);
  const std::uint32_t target = target_node & header_->node_mask;
  const std::uint32_t pref = (home & ~header_->node_mask) | target;
  detail::PoolShard& hs = shards()[pref];
  const std::uint64_t taken_before = chain.count;
  Chain refill;
  shm::Offset refill_msgs = shm::kNullOffset;
  std::size_t refill_msg_count = 0;
  {
    lock_shard(hs, pid);
    if (msg == shm::kNullOffset) msg = hs.msgs.pop(arena_);
    if (chain.count < need) {
      std::size_t got = 0;
      shm::Offset tail = shm::kNullOffset;
      const shm::Offset head =
          hs.blocks.pop_chain(arena_, need - chain.count, got, &tail);
      append(arena_, chain, head, tail, got);
    }
    if (caching && pref == home && msg != shm::kNullOffset &&
        chain.count >= need && magazine_fits(cache, need)) {
      // Refill: take up to half the shard's surplus, bounded by the cap.
      const std::uint32_t cached =
          cache.block_count.load(std::memory_order_relaxed);
      const std::size_t room =
          cache.block_cap > cached ? cache.block_cap - cached : 0;
      const std::size_t batch =
          std::min<std::size_t>(room, hs.blocks.available() / 2);
      if (batch > 0) {
        std::size_t got = 0;
        shm::Offset tail = shm::kNullOffset;
        refill.head = hs.blocks.pop_chain(arena_, batch, got, &tail);
        refill.tail = tail;
        refill.count = got;
      }
      while (refill_msg_count +
                     cache.msg_count.load(std::memory_order_relaxed) <
                 cache.msg_cap &&
             hs.msgs.available() > 1) {
        const shm::Offset m = hs.msgs.pop(arena_);
        if (m == shm::kNullOffset) break;
        link_of(arena_, m) = refill_msgs;
        refill_msgs = m;
        ++refill_msg_count;
      }
      if (refill.count > 0 || refill_msg_count > 0) {
        hs.refills.fetch_add(1, std::memory_order_relaxed);
      }
    }
    mirror();
    // The refill batch is in our hands until it lands in the magazine;
    // journal it through the handoff window.
    ps.refill_head = refill.head;
    ps.refill_tail = refill.tail;
    ps.refill_count = static_cast<std::uint32_t>(refill.count);
    ps.refill_msgs = refill_msgs;
    ps.refill_msg_count = static_cast<std::uint32_t>(refill_msg_count);
    platform_->unlock(hs.lock);
  }
  if (chain.count > taken_before) {
    detail::NodeStats& stats = node_stats()[target];
    if (pslot(pid).node == target) {
      stats.local_pops.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats.remote_pops.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (refill.count > 0 || refill_msg_count > 0) {
    alock(cache.lock, pid);
    cache_put_blocks(arena_, cache, refill.head, refill.tail, refill.count);
    while (refill_msgs != shm::kNullOffset) {
      const shm::Offset next = link_of(arena_, refill_msgs);
      link_of(arena_, refill_msgs) = cache.msg_head;
      cache.msg_head = refill_msgs;
      cache.msg_count.fetch_add(1, std::memory_order_relaxed);
      refill_msgs = next;
    }
    ps.refill_head = ps.refill_tail = ps.refill_msgs = shm::kNullOffset;
    ps.refill_count = ps.refill_msg_count = 0;
    platform_->unlock(cache.lock);
  }
  if (msg != shm::kNullOffset && chain.count >= need) return true;

  // Phase 3: steal from sibling shards (round robin from the preferred
  // shard's neighbour), visiting target-node shards first so the steal
  // path keeps placement local when any same-node shard has surplus; the
  // second pass crosses nodes.  With one node the first pass covers every
  // shard and the order is exactly the flat round robin.
  for (std::uint32_t pass = 0; pass < 2; ++pass) {
    for (std::uint32_t i = 1; i < header_->n_shards; ++i) {
      const std::uint32_t idx = (pref + i) & header_->shard_mask;
      const bool on_target = (idx & header_->node_mask) == target;
      if ((pass == 0) != on_target) continue;
      detail::PoolShard& v = shards()[idx];
      const bool want_msg = msg == shm::kNullOffset;
      const bool want_blocks = chain.count < need;
      // Unlocked peek; the authoritative check repeats under the lock.
      if (!(want_msg && v.msgs.available() > 0) &&
          !(want_blocks && v.blocks.available() > 0)) {
        continue;
      }
      lock_shard(v, pid);
      bool took = false;
      std::size_t got = 0;
      if (msg == shm::kNullOffset) {
        msg = v.msgs.pop(arena_);
        took = took || msg != shm::kNullOffset;
      }
      if (chain.count < need) {
        shm::Offset tail = shm::kNullOffset;
        const shm::Offset head =
            v.blocks.pop_chain(arena_, need - chain.count, got, &tail);
        append(arena_, chain, head, tail, got);
        took = took || got > 0;
      }
      mirror();
      if (took) v.steals.fetch_add(1, std::memory_order_relaxed);
      platform_->unlock(v.lock);
      if (got > 0) {
        const std::uint32_t src = idx & header_->node_mask;
        detail::NodeStats& stats = node_stats()[src];
        if (pslot(pid).node == src) {
          stats.local_pops.fetch_add(1, std::memory_order_relaxed);
        } else {
          stats.remote_pops.fetch_add(1, std::memory_order_relaxed);
        }
        if (!on_target) stats.steals.fetch_add(1, std::memory_order_relaxed);
      }
      if (msg != shm::kNullOffset && chain.count >= need) return true;
    }
  }

  // Phase 4: raid peer magazines.  Only reached when every shard is dry,
  // so semantics match the unsharded pool: blocks parked in caches are
  // still reachable before we declare exhaustion.
  for (std::uint32_t p = 0; p < header_->max_processes; ++p) {
    if (p == pid) continue;
    detail::ProcCache& peer = caches()[p];
    if (peer.block_cap == 0 && peer.msg_cap == 0) continue;
    const bool want_msg = msg == shm::kNullOffset;
    const bool want_blocks = chain.count < need;
    if (!(want_msg && peer.msg_count.load(std::memory_order_relaxed) > 0) &&
        !(want_blocks &&
          peer.block_count.load(std::memory_order_relaxed) > 0)) {
      continue;
    }
    alock(peer.lock, pid);
    bool took = false;
    if (msg == shm::kNullOffset &&
        peer.msg_count.load(std::memory_order_relaxed) > 0) {
      msg = peer.msg_head;
      peer.msg_head = link_of(arena_, msg);
      peer.msg_count.fetch_sub(1, std::memory_order_relaxed);
      took = true;
    }
    if (chain.count < need) {
      const Chain got = cache_take_blocks(arena_, peer, need - chain.count);
      append(arena_, chain, got.head, got.tail, got.count);
      took = took || got.count > 0;
    }
    mirror();
    if (took) peer.raids.fetch_add(1, std::memory_order_relaxed);
    platform_->unlock(peer.lock);
    if (msg != shm::kNullOffset && chain.count >= need) return true;
  }
  return msg != shm::kNullOffset && chain.count >= need;
}

/// Give a partial gather back to the pools so concurrent exhausted senders
/// cannot deadlock by hoarding fragments.  The journal operands are the
/// cursor: each critical section that returns nodes disarms them too, so
/// at no suspension point are the nodes both in a pool and journaled.
void Facility::return_gather(ProcessId pid, shm::Offset& msg, Chain& chain) {
  if (msg == shm::kNullOffset && chain.count == 0) return;
  detail::ProcSlot& ps = pslot(pid);
  free_chain(pid, home_shard(pid), ps.chain_head, ps.chain_count, ps.msg);
  ps.chain_tail = shm::kNullOffset;
  msg = shm::kNullOffset;
  chain = Chain{};
}

void Facility::free_chain(ProcessId pid, std::uint32_t home,
                          shm::Offset& head, std::uint32_t& count,
                          shm::Offset& msg, bool reaping) {
  while (count > 0 || msg != shm::kNullOffset) {
    const std::uint32_t idx = count > 0 ? owner_shard(head) : home;
    detail::PoolShard& s = shards()[idx];
    if (!reaping) lock_shard(s, pid);
    if (count > 0) {
      shm::Offset next = shm::kNullOffset;
      const std::size_t n = s.blocks.push_chain(arena_, head, count, next);
      // A link outside every shard's range (a corrupt record) ends the
      // walk instead of spinning on it; the oracle reports the loss.
      count = n == 0 ? 0 : count - static_cast<std::uint32_t>(n);
      head = count > 0 ? next : shm::kNullOffset;
      s.flushes.fetch_add(1, std::memory_order_relaxed);
    }
    if (count == 0 && msg != shm::kNullOffset) {
      s.msgs.push(arena_, msg);
      msg = shm::kNullOffset;
    }
    if (!reaping) platform_->unlock(s.lock);
  }
}

shm::Offset Facility::slab_alloc(ProcessId pid, std::uint32_t target_node) {
  // Arm an empty gather record so the extent is journaled the instant it
  // leaves the pool; alloc_message re-arms the same record for the header
  // gather without touching the slab operand.
  detail::GatherChain none;
  journal_gather(pid, none, shm::kNullOffset);
  detail::SlabPool* sp = slab_pools();
  const std::uint32_t target = target_node & header_->node_mask;
  shm::Offset extent = shm::kNullOffset;
  // Prefer the target node's sub-pool; when it is dry, steal round robin
  // from the other nodes' sub-pools (exhaustion beats remoteness).
  for (std::uint32_t i = 0;
       i < header_->numa_nodes && extent == shm::kNullOffset; ++i) {
    const std::uint32_t nd = (target + i) & header_->node_mask;
    detail::SlabPool& pool = sp[nd];
    // Unlocked peek on the steal legs; the pop is the authoritative check.
    if (i > 0 && pool.slabs.available() == 0) continue;
    alock(pool.lock, pid);
    extent = pool.slabs.pop(arena_);
    // Journal the extent inside the pop's critical section: at every
    // suspension point it is either in the pool or in the record.
    if (extent != shm::kNullOffset) pslot(pid).slab = extent;
    platform_->unlock(pool.lock);
    if (extent != shm::kNullOffset) {
      detail::NodeStats& stats = node_stats()[nd];
      if (pslot(pid).node == nd) {
        stats.local_pops.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats.remote_pops.fetch_add(1, std::memory_order_relaxed);
      }
      if (nd != target) stats.steals.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (extent == shm::kNullOffset) journal_clear(pid);
  return extent;
}

void Facility::slab_free(ProcessId pid, shm::Offset extent) {
  // Extents go back to their home-node sub-pool, never the freer's, so a
  // process draining remote messages does not migrate remote extents.
  detail::SlabPool& pool = slab_pools()[node_of_offset(extent)];
  alock(pool.lock, pid);
  pool.slabs.push(arena_, extent);
  // Disarm in the same critical section as the push (mirrors
  // return_gather's discipline).
  detail::ProcSlot& ps = pslot(pid);
  if (ps.slab == extent) ps.slab = shm::kNullOffset;
  platform_->unlock(pool.lock);
}

Status Facility::alloc_message(ProcessId pid, std::size_t need,
                               std::uint32_t target_node,
                               shm::Offset* msg_off, shm::Offset* chain_head,
                               shm::Offset* chain_tail,
                               std::uint64_t deadline_ns) {
  shm::Offset msg = shm::kNullOffset;
  Chain chain;
  // Arm the gather record before any block can leave a pool; try_gather
  // keeps it mirrored from inside every critical section it takes.
  journal_gather(pid, chain, msg);
  if (!try_gather(pid, need, target_node, msg, chain)) {
    return_gather(pid, msg, chain);
    if (header_->block_policy ==
        static_cast<std::uint32_t>(BlockPolicy::fail)) {
      journal_clear(pid);
      return Status::out_of_blocks;
    }
    // Monitor discipline for true exhaustion: register, re-sweep, sleep.
    // Sleeps are bounded by the suspicion threshold: a waiter that times
    // out hunts for dead peers to reap, and gives up with peer_failed
    // when no live receiver exists to ever drain the pool.  A send
    // deadline bounds the whole wait: expiry deregisters and reports
    // timed_out with every fragment already returned.
    header_->exhaustion_waits.fetch_add(1, std::memory_order_relaxed);
    alock(header_->blocks_lock, pid);
    header_->exhaustion_waiters.fetch_add(1, std::memory_order_acq_rel);
    pslot(pid).in_exhaustion.store(1, std::memory_order_release);
    for (;;) {
      if (try_gather(pid, need, target_node, msg, chain)) break;
      return_gather(pid, msg, chain);
      if (platform_->now_ns() >= deadline_ns) {
        pslot(pid).in_exhaustion.store(0, std::memory_order_release);
        header_->exhaustion_waiters.fetch_sub(1, std::memory_order_acq_rel);
        platform_->unlock(header_->blocks_lock);
        journal_clear(pid);
        return Status::timed_out;
      }
      const std::uint64_t suspicion = header_->suspicion_ns;
      bool notified = false;
      await_for(header_->blocks_lock, header_->blocks_cond, pid, deadline_ns,
                suspicion, &notified);
      if (notified || suspicion == 0) continue;  // re-check the deadline
      // A full suspicion window with no free: deregister and check for
      // dead peers (their journals, magazines, and queues may hold every
      // block we are waiting for).
      pslot(pid).in_exhaustion.store(0, std::memory_order_release);
      header_->exhaustion_waiters.fetch_sub(1, std::memory_order_acq_rel);
      platform_->unlock(header_->blocks_lock);
      bool reaped_any = false;
      for (ProcessId p = 0; p < header_->max_processes; ++p) {
        if (p == pid) continue;
        const std::uint32_t st =
            pslot(p).state.load(std::memory_order_acquire);
        if (st == detail::ProcSlot::kFree ||
            st == detail::ProcSlot::kReaped) {
          continue;
        }
        if (!process_alive(p) && reap(pid, p) == Status::ok) {
          reaped_any = true;
        }
      }
      reap_if_dead(pid, kNoProcess);
      // Reaping runs destroy sweeps on our slot's journal; re-arm the
      // (empty, everything returned) gather record before gathering again.
      journal_gather(pid, chain, msg);
      if (!reaped_any && no_live_receiver(pid)) {
        journal_clear(pid);
        header_->peer_failures.fetch_add(1, std::memory_order_relaxed);
        return Status::peer_failed;
      }
      alock(header_->blocks_lock, pid);
      header_->exhaustion_waiters.fetch_add(1, std::memory_order_acq_rel);
      pslot(pid).in_exhaustion.store(1, std::memory_order_release);
    }
    pslot(pid).in_exhaustion.store(0, std::memory_order_release);
    header_->exhaustion_waiters.fetch_sub(1, std::memory_order_acq_rel);
    platform_->unlock(header_->blocks_lock);
  }
  if (chain.tail != shm::kNullOffset) {
    link_of(arena_, chain.tail) = shm::kNullOffset;
  }
  *msg_off = msg;
  *chain_head = chain.head;
  *chain_tail = chain.tail;
  return Status::ok;
}

void Facility::free_message(ProcessId pid, detail::MsgHeader* m) {
  std::size_t footprint =
      sizeof(detail::MsgHeader) +
      static_cast<std::size_t>(m->nblocks) *
          (sizeof(detail::Block) + header_->block_payload);
  if ((m->flags & detail::MsgHeader::kSlab) != 0) {
    // Slab message: return the extent to the slab pool under the nested
    // record (fm_slab marks fm_head as an extent, not a chain), then strip
    // the flag and let the common path below recycle the bare header.
    footprint = sizeof(detail::MsgHeader) +
                static_cast<std::size_t>(header_->slab_bytes);
    const shm::Offset m_off = arena_.ref_of(m).off;
    const shm::Offset extent = m->first_block;
    detail::ProcSlot& ps = pslot(pid);
    ps.fm_msg = m_off;
    ps.fm_head = extent;
    ps.fm_tail = extent;
    ps.fm_count = 0;
    ps.fm_slab = 1;
    ps.fm_stage.store(1, std::memory_order_release);  // commit point
    // An enqueue rollback frees the very extent our primary record still
    // covers; hand the cover to the fm record in the same span.
    if (ps.slab == extent) ps.slab = shm::kNullOffset;
    detail::SlabPool& pool = slab_pools()[node_of_offset(extent)];
    alock(pool.lock, pid);
    pool.slabs.push(arena_, extent);
    journal_free_blocks_done(pid);  // stage 2: extent disposed
    ps.fm_slab = 0;
    platform_->unlock(pool.lock);
    m->flags &= ~detail::MsgHeader::kSlab;
    m->first_block = m->last_block = shm::kNullOffset;
    m->nblocks = 0;
  }
  detail::ProcCache& cache = caches()[pid];
  // Arm the nested free-message record before any pool lock: the message
  // (header + block chain) is ours alone from here until it lands back in
  // a pool, and a death mid-way must hand it to the reaper.  This record
  // is separate from the primary op record because free_message runs
  // inside enqueue rollback, copy-out reclamation, and destroy sweeps.
  const shm::Offset m_off = arena_.ref_of(m).off;
  journal_free_arm(pid, m_off, m->first_block, m->last_block, m->nblocks);
  // While someone is starving, bypass the magazine so the freed nodes land
  // where the waiter's sweep (and the monitor ripple below) covers fastest.
  const bool starving =
      header_->exhaustion_waiters.load(std::memory_order_acquire) > 0;

  detail::ProcSlot& ps = pslot(pid);
  if (!starving && (cache.block_cap > 0 || cache.msg_cap > 0) &&
      magazine_fits(cache, m->nblocks)) {
    alock(cache.lock, pid);
    if (m->nblocks > 0 &&
        cache.block_count.load(std::memory_order_relaxed) + m->nblocks <=
            cache.block_cap) {
      cache_put_blocks(arena_, cache, m->first_block, m->last_block,
                       m->nblocks);
      journal_free_blocks_done(pid);
    }
    if (ps.fm_count == 0 &&
        cache.msg_count.load(std::memory_order_relaxed) < cache.msg_cap) {
      link_of(arena_, m_off) = cache.msg_head;
      cache.msg_head = m_off;
      cache.msg_count.fetch_add(1, std::memory_order_relaxed);
      journal_free_clear(pid);
    }
    if (ps.fm_stage.load(std::memory_order_relaxed) != 0) {
      cache.flushes.fetch_add(1, std::memory_order_relaxed);
    }
    platform_->unlock(cache.lock);
  }
  if (ps.fm_stage.load(std::memory_order_relaxed) != 0) {
    // Blocks go back to the shards that carved them (never the freer's:
    // a receiver draining remote senders would otherwise migrate their
    // blocks to its own shard, and a bitmap covers only its own range),
    // the header with the last of them.  The fm record is the cursor.
    free_chain(pid, home_shard(pid), ps.fm_head, ps.fm_count, ps.fm_msg);
    journal_free_clear(pid);
  }
  platform_->on_buffer_free(footprint);
  if (header_->exhaustion_waiters.load(std::memory_order_acquire) > 0) {
    // Order ourselves against a waiter's register-then-sweep (see the
    // file comment): empty lock/unlock, then notify.
    alock(header_->blocks_lock, pid);
    platform_->unlock(header_->blocks_lock);
    platform_->notify_all(header_->blocks_cond);
  }
}

std::vector<PoolShardInfo> Facility::pool_shard_infos() const {
  std::vector<PoolShardInfo> infos;
  infos.reserve(header_->n_shards);
  const detail::PoolShard* s = shards();
  for (std::uint32_t i = 0; i < header_->n_shards; ++i) {
    PoolShardInfo info;
    info.index = i;
    info.free_blocks = s[i].blocks.available();
    info.block_capacity = s[i].blocks.capacity();
    const shm::RunAllocator::RunStats runs = s[i].blocks.runs(arena_);
    info.free_runs = runs.runs;
    info.largest_free_run = runs.largest;
    info.free_msgs = s[i].msgs.available();
    info.link_stride = s[i].blocks.node_bytes();
    info.payload_bytes = s[i].blocks.payload_bytes();
    info.payload_lo = s[i].blocks.payload_base();
    info.payload_hi = s[i].blocks.payload_end();
    info.lock_acquisitions =
        s[i].lock_acquisitions.load(std::memory_order_relaxed);
    info.lock_wait_ns = s[i].lock_wait_ns.load(std::memory_order_relaxed);
    info.steals = s[i].steals.load(std::memory_order_relaxed);
    info.refills = s[i].refills.load(std::memory_order_relaxed);
    info.flushes = s[i].flushes.load(std::memory_order_relaxed);
    infos.push_back(info);
  }
  return infos;
}

std::vector<ProcCacheInfo> Facility::proc_cache_infos() const {
  std::vector<ProcCacheInfo> infos;
  const detail::ProcCache* c = caches();
  for (std::uint32_t p = 0; p < header_->max_processes; ++p) {
    ProcCacheInfo info;
    info.pid = p;
    info.blocks = c[p].block_count.load(std::memory_order_relaxed);
    info.block_cap = c[p].block_cap;
    info.msgs = c[p].msg_count.load(std::memory_order_relaxed);
    info.hits = c[p].hits.load(std::memory_order_relaxed);
    info.misses = c[p].misses.load(std::memory_order_relaxed);
    info.flushes = c[p].flushes.load(std::memory_order_relaxed);
    info.raids = c[p].raids.load(std::memory_order_relaxed);
    if (info.blocks == 0 && info.msgs == 0 && info.hits == 0 &&
        info.misses == 0) {
      continue;
    }
    infos.push_back(info);
  }
  return infos;
}

std::uint32_t Facility::pool_shards() const noexcept {
  return header_->n_shards;
}

}  // namespace mpf
