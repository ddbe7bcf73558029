#include "mpf/core/facility.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <ostream>

#include "mpf/core/numa.hpp"

namespace mpf {

namespace {

// The FacilityHeader is always the first allocation in the arena, directly
// after the (64-byte-aligned) arena header, so attach() can find it without
// a directory structure.
constexpr shm::Offset kRootOffset = (sizeof(shm::ArenaHeader) + 63) & ~63ull;

constexpr std::size_t align8(std::size_t v) { return (v + 7) & ~std::size_t{7}; }

/// Pool node size for an object: 8-aligned and at least the node floor
/// (FreeList::kMinNodeBytes).
std::size_t node_bytes(std::size_t object_bytes) {
  return std::max(align8(object_bytes), shm::FreeList::kMinNodeBytes);
}

/// u64 words in one ready set's carve: summary, ready and member bitmaps.
std::size_t ready_set_words(std::uint32_t max_lnvcs) {
  const std::size_t words = (std::size_t{max_lnvcs} + 63) / 64;
  return (words + 63) / 64 + 2 * words;
}

std::uint32_t next_pow2(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Message headers one process may hold in its magazine.  Derived (not a
/// Config knob): header pools are sized at blocks/4, so a few per process
/// suffice; tiny pools disable header caching along with block caching.
std::uint32_t derived_msg_cache_cap(const Config& c) {
  if (c.cache_blocks == 0) return 0;
  const std::size_t cap =
      c.message_headers / (8 * static_cast<std::size_t>(c.max_processes));
  if (cap < 2) return 0;
  return static_cast<std::uint32_t>(std::min<std::size_t>(cap, 8));
}

}  // namespace

NativePlatform& native_platform() noexcept {
  static NativePlatform instance;
  return instance;
}

const char* to_string(Status s) noexcept {
  switch (s) {
    case Status::ok: return "ok";
    case Status::invalid_argument: return "invalid argument";
    case Status::table_full: return "table full";
    case Status::no_such_lnvc: return "no such LNVC";
    case Status::not_connected: return "not connected";
    case Status::already_connected: return "already connected";
    case Status::protocol_conflict: return "FCFS/BROADCAST protocol conflict";
    case Status::out_of_blocks: return "out of message blocks";
    case Status::truncated: return "message truncated";
    case Status::closed: return "LNVC closed";
    case Status::timed_out: return "timed out";
    case Status::peer_failed: return "peer process failed";
    case Status::lnvc_orphaned: return "LNVC orphaned (last sender died)";
    case Status::rejected: return "rejected by admission control";
    case Status::busy: return "resource busy";
  }
  return "unknown status";
}

std::ostream& operator<<(std::ostream& os, Status s) {
  // Indexed by the enumerator's value, in declaration order.
  static constexpr const char* kNames[] = {
      "ok",           "invalid_argument",  "table_full",    "no_such_lnvc",
      "not_connected", "already_connected", "protocol_conflict",
      "out_of_blocks", "truncated",         "closed",        "timed_out",
      "peer_failed",  "lnvc_orphaned",     "rejected",      "busy"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(Status::busy) + 1);
  const auto i = static_cast<std::size_t>(s);
  if (i < std::size(kNames)) return os << kNames[i];
  return os << "Status(" << static_cast<int>(s) << ")";
}

Config Config::resolved() const noexcept {
  Config c = *this;
  if (c.max_lnvcs == 0) c.max_lnvcs = 1;
  if (c.max_processes == 0) c.max_processes = 1;
  if (c.block_payload == 0) c.block_payload = 10;
  if (c.message_blocks == 0) {
    // Enough blocks for ~16 KB of in-flight payload per process.
    c.message_blocks =
        std::max<std::size_t>(4096, static_cast<std::size_t>(c.max_processes) *
                                        16384 / c.block_payload);
  }
  if (c.message_headers == 0) {
    c.message_headers = std::max<std::size_t>(256, c.message_blocks / 4);
  }
  if (c.connections == 0) {
    c.connections = static_cast<std::size_t>(c.max_lnvcs) * 8 +
                    static_cast<std::size_t>(c.max_processes) * 8;
  }
  if (c.pool_shards == 0) {
    c.pool_shards = next_pow2(std::max<std::uint32_t>(1, c.max_processes / 4));
  } else {
    c.pool_shards = next_pow2(c.pool_shards);
  }
  c.pool_shards = std::min<std::uint32_t>(c.pool_shards, 256);
  // NUMA topology: power-of-two node count, and at least one shard per
  // node so home_shard(pid) always lands on pid's node (numa_nodes
  // divides n_shards; shard i serves node i & node_mask).
  if (c.numa_nodes == 0) c.numa_nodes = 1;
  c.numa_nodes = std::min<std::uint32_t>(next_pow2(c.numa_nodes), 64);
  c.pool_shards = std::max(c.pool_shards, c.numa_nodes);
  if (!c.per_process_cache) {
    c.cache_blocks = 0;
  } else if (c.cache_blocks == 0) {
    // Bound hostage blocks: at most 1/8 of every process's fair share may
    // sit in its magazine.  Pools too small to spare that get no caching,
    // which keeps exhaustion tests (and genuinely tiny facilities) exact.
    std::size_t cap = c.message_blocks /
                      (8 * static_cast<std::size_t>(c.max_processes));
    if (cap < 8) cap = 0;
    c.cache_blocks = std::min<std::size_t>(cap, 128);
  }
  // Sharded name directory: default one bucket per four descriptor slots
  // (load factor <= 4 even at a full table), power of two for mask
  // indexing.  dir_buckets = 1 is the linear-scan baseline: every name
  // hashes to the one chain.
  if (c.dir_buckets == 0) {
    c.dir_buckets = next_pow2(std::max<std::uint32_t>(1, c.max_lnvcs / 4));
  } else {
    c.dir_buckets = next_pow2(c.dir_buckets);
  }
  c.dir_buckets = std::min<std::uint32_t>(c.dir_buckets, 1u << 20);
  if (c.max_pollsets == 0) {
    c.max_pollsets = std::min<std::uint32_t>(c.max_processes, 8);
  }
  if (c.slab_threshold > 0) {
    if (c.slab_bytes == 0) {
      c.slab_bytes = std::max<std::size_t>(16384, align8(c.slab_threshold));
    }
    if (c.slab_bytes < c.slab_threshold) {
      c.slab_bytes = align8(c.slab_threshold);
    }
    if (c.slab_count == 0) {
      c.slab_count = std::max<std::size_t>(4, c.max_processes / 2);
    }
  } else {
    c.slab_bytes = 0;
    c.slab_count = 0;
  }
  if (c.arena_bytes == 0) {
    std::size_t bytes = 4096;  // arena + facility headers, slack
    bytes += static_cast<std::size_t>(c.max_lnvcs) * sizeof(detail::LnvcDesc);
    // Per block: its link node, its payload bytes, slack for the bitmap.
    bytes += c.message_blocks * (sizeof(detail::Block) + c.block_payload + 8);
    bytes += c.slab_count * (node_bytes(c.slab_bytes) + 8);
    bytes += c.message_headers * node_bytes(sizeof(detail::MsgHeader));
    bytes += c.connections * node_bytes(sizeof(detail::Connection));
    bytes += static_cast<std::size_t>(c.pool_shards) * sizeof(detail::PoolShard);
    bytes += static_cast<std::size_t>(c.max_processes) *
             sizeof(detail::ProcCache);
    bytes += static_cast<std::size_t>(c.max_processes) *
             sizeof(detail::ProcSlot);
    bytes += static_cast<std::size_t>(c.numa_nodes) *
             (sizeof(detail::SlabPool) + sizeof(detail::NodeStats));
    bytes += static_cast<std::size_t>(c.dir_buckets) *
             sizeof(detail::DirBucket);
    bytes += static_cast<std::size_t>(c.max_pollsets) *
                 sizeof(detail::PollSet) +
             static_cast<std::size_t>(c.max_processes) *
                 sizeof(detail::ReadySet) +
             static_cast<std::size_t>(c.max_pollsets + c.max_processes) *
                 (ready_set_words(c.max_lnvcs) * 8 + 64);
    // One 64-byte alignment gap per carve (links, their bitmap, payloads
    // and the header list per shard, one slab sub-pool per node).
    bytes += (4 * static_cast<std::size_t>(c.pool_shards) +
              static_cast<std::size_t>(c.numa_nodes) + 4) * 64;
    bytes += bytes / 4 + 65536;  // alignment waste + headroom
    c.arena_bytes = bytes;
  }
  return c;
}

std::size_t Config::derived_arena_bytes() const noexcept {
  return resolved().arena_bytes;
}

Facility Facility::create(const Config& config, shm::Region& region,
                          Platform& platform) {
  const Config c = config.resolved();
  if (region.size() < c.arena_bytes) {
    throw MpfError(Status::invalid_argument,
                   "Facility::create: region smaller than derived_arena_bytes");
  }
  shm::Arena arena = shm::Arena::create(region);
  const shm::Offset root = arena.allocate(sizeof(detail::FacilityHeader), 64);
  if (root != kRootOffset) {
    throw MpfError(Status::invalid_argument,
                   "Facility::create: unexpected root offset");
  }
  auto* hdr = ::new (arena.raw(root)) detail::FacilityHeader();
  hdr->max_lnvcs = c.max_lnvcs;
  hdr->max_processes = c.max_processes;
  hdr->block_payload = c.block_payload;
  hdr->block_policy = static_cast<std::uint32_t>(c.block_policy);
  hdr->reclaim_broadcast_only = c.reclaim_broadcast_only ? 1 : 0;
  hdr->n_shards = c.pool_shards;
  hdr->shard_mask = c.pool_shards - 1;
  hdr->numa_nodes = c.numa_nodes;
  hdr->node_mask = c.numa_nodes - 1;
  hdr->numa_prefer_receiver = c.numa_prefer_receiver ? 1 : 0;

  hdr->lnvc_table = arena.make_array<detail::LnvcDesc>(c.max_lnvcs);
  hdr->conn_list.carve(arena, node_bytes(sizeof(detail::Connection)),
                       c.connections);

  // Contiguous-slab pools for large messages (disabled when threshold ==
  // 0): one sub-pool per NUMA node, the first (count % nodes) sub-pools
  // absorbing the remainder.  Each sub-pool records its carve range so any
  // extent offset maps back to its memory node, and — when libnuma is
  // compiled in — gets its range bound to that node.
  hdr->slab_threshold = c.slab_threshold;
  hdr->slab_bytes = c.slab_bytes;
  hdr->slabs_total = c.slab_count;
  hdr->slab_pools = arena.make_array<detail::SlabPool>(c.numa_nodes);
  auto* sp = static_cast<detail::SlabPool*>(arena.raw(hdr->slab_pools));
  for (std::uint32_t nd = 0; nd < c.numa_nodes; ++nd) {
    const std::size_t count = c.slab_count / c.numa_nodes +
                              (nd < c.slab_count % c.numa_nodes ? 1 : 0);
    sp[nd].range_lo = static_cast<shm::Offset>(arena.used());
    if (count > 0) sp[nd].slabs.carve(arena, node_bytes(c.slab_bytes), count);
    sp[nd].range_hi = static_cast<shm::Offset>(arena.used());
    if (c.numa_nodes > 1 && sp[nd].range_hi > sp[nd].range_lo) {
      numa_bind_range(arena.raw(sp[nd].range_lo),
                      sp[nd].range_hi - sp[nd].range_lo, nd);
    }
  }

  // Split the block and message-header pools across the shards; the first
  // (total % n) shards absorb the remainder.  Shard i serves node
  // i & node_mask, so its link and payload ranges are bound to (and
  // attributed to) that node.
  hdr->shards = arena.make_array<detail::PoolShard>(c.pool_shards);
  auto* sh = static_cast<detail::PoolShard*>(arena.raw(hdr->shards));
  const std::uint32_t n = c.pool_shards;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t blocks_i =
        c.message_blocks / n + (i < c.message_blocks % n ? 1 : 0);
    const std::size_t msgs_i =
        c.message_headers / n + (i < c.message_headers % n ? 1 : 0);
    shm::RunAllocator& blocks = sh[i].blocks;
    blocks.carve(arena, sizeof(detail::Block), blocks_i, c.block_payload);
    sh[i].msgs.carve(arena, node_bytes(sizeof(detail::MsgHeader)), msgs_i);
    if (c.numa_nodes > 1 && blocks_i > 0) {
      numa_bind_range(arena.raw(blocks.base()), blocks.end() - blocks.base(),
                      i & hdr->node_mask);
      numa_bind_range(arena.raw(blocks.payload_base()),
                      blocks.payload_end() - blocks.payload_base(),
                      i & hdr->node_mask);
    }
  }
  hdr->blocks_total = c.message_blocks;
  hdr->msgs_total = c.message_headers;
  hdr->node_stats = arena.make_array<detail::NodeStats>(c.numa_nodes);

  // Per-process magazines (always allocated, even when caching is off:
  // block_cap 0 is what switches a magazine off).
  hdr->caches = arena.make_array<detail::ProcCache>(c.max_processes);
  auto* pc = static_cast<detail::ProcCache*>(arena.raw(hdr->caches));
  const std::uint32_t msg_cap = derived_msg_cache_cap(c);
  for (std::uint32_t p = 0; p < c.max_processes; ++p) {
    pc[p].block_cap = static_cast<std::uint32_t>(
        std::min<std::size_t>(c.cache_blocks, UINT32_MAX));
    pc[p].msg_cap = msg_cap;
  }

  hdr->procs = arena.make_array<detail::ProcSlot>(c.max_processes);
  auto* pslots = static_cast<detail::ProcSlot*>(arena.raw(hdr->procs));
  for (std::uint32_t p = 0; p < c.max_processes; ++p) {
    pslots[p].node = p & hdr->node_mask;  // round-robin node assignment
  }
  hdr->suspicion_ns = c.suspicion_ns;
  hdr->lnvc_quota_blocks = c.lnvc_quota_blocks;
  hdr->lnvc_quota_slabs = c.lnvc_quota_slabs;
  hdr->admission_policy = static_cast<std::uint32_t>(c.admission_policy);
  hdr->lockfree_fcfs = c.lockfree_fcfs ? 1 : 0;
  hdr->park_spin_ns = c.park_spin_ns;

  // Sharded name directory + descriptor freelist: every slot starts on
  // the freelist (free_state zero-init == kFreeListed), chained in index
  // order so the first opens take the low slots like the old scan did.
  hdr->dir = arena.make_array<detail::DirBucket>(c.dir_buckets);
  hdr->dir_n_buckets = c.dir_buckets;
  hdr->dir_mask = c.dir_buckets - 1;
  auto* lt = static_cast<detail::LnvcDesc*>(arena.raw(hdr->lnvc_table));
  for (std::uint32_t i = 0; i < c.max_lnvcs; ++i) {
    lt[i].free_next = i + 1 < c.max_lnvcs ? i + 2 : 0;
  }
  hdr->lnvc_free_head = c.max_lnvcs > 0 ? 1 : 0;

  // Ready sets: one per poll set plus one receive_any set per process,
  // each with its own zeroed bitmap carve keyed by descriptor slot.
  hdr->pollsets = arena.make_array<detail::PollSet>(c.max_pollsets);
  hdr->any_sets = arena.make_array<detail::ReadySet>(c.max_processes);
  hdr->max_pollsets = c.max_pollsets;
  hdr->ready_words = (c.max_lnvcs + 63) / 64;
  hdr->summary_words = (hdr->ready_words + 63) / 64;
  const std::size_t set_words = ready_set_words(c.max_lnvcs);
  auto* pss = static_cast<detail::PollSet*>(arena.raw(hdr->pollsets));
  for (std::uint32_t i = 0; i < c.max_pollsets; ++i) {
    pss[i].rs.bits = arena.make_array<std::atomic<std::uint64_t>>(set_words);
  }
  auto* anys = static_cast<detail::ReadySet*>(arena.raw(hdr->any_sets));
  for (std::uint32_t p = 0; p < c.max_processes; ++p) {
    anys[p].bits = arena.make_array<std::atomic<std::uint64_t>>(set_words);
  }

  hdr->magic = detail::kFacilityMagic;  // published last
  return Facility(arena, hdr, platform);
}

Facility Facility::attach(shm::Region& region, Platform& platform) {
  shm::Arena arena = shm::Arena::attach(region);
  auto* hdr =
      static_cast<detail::FacilityHeader*>(arena.raw(kRootOffset));
  if (hdr->magic != detail::kFacilityMagic) {
    throw MpfError(Status::invalid_argument,
                   "Facility::attach: region holds no MPF facility");
  }
  return Facility(arena, hdr, platform);
}

detail::LnvcDesc* Facility::table() const noexcept {
  return static_cast<detail::LnvcDesc*>(arena_.raw(header_->lnvc_table));
}

detail::LnvcDesc* Facility::slot(LnvcId id) const noexcept {
  if (id < 0 || static_cast<std::uint32_t>(id) >= header_->max_lnvcs) {
    return nullptr;
  }
  return table() + id;
}

detail::DirBucket* Facility::dir() const noexcept {
  return static_cast<detail::DirBucket*>(arena_.raw(header_->dir));
}

detail::PollSet* Facility::pollset_table() const noexcept {
  return static_cast<detail::PollSet*>(arena_.raw(header_->pollsets));
}

std::uint64_t Facility::name_hash(std::string_view name) noexcept {
  // FNV-1a 64.
  std::uint64_t h = 1469598103934665603ull;
  for (const char ch : name) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

detail::DirBucket& Facility::bucket_of(std::uint64_t hash) const noexcept {
  return dir()[static_cast<std::uint32_t>(hash) & header_->dir_mask];
}

ProcessId Facility::lock_bucket(detail::DirBucket& b, ProcessId pid) {
  const ProcessId dead = alock(b.lock, pid);
  if (dead != kNoProcess) b.seizures.fetch_add(1, std::memory_order_relaxed);
  return dead;
}

detail::LnvcDesc* Facility::dir_find(detail::DirBucket& b,
                                     std::string_view name,
                                     std::uint64_t hash) const noexcept {
  header_->dir_lookups.fetch_add(1, std::memory_order_relaxed);
  detail::LnvcDesc* t = table();
  detail::LnvcDesc* found = nullptr;
  std::uint32_t probes = 0;
  for (std::uint32_t idx = b.head; idx != 0;) {
    detail::LnvcDesc& d = t[idx - 1];
    ++probes;
    if (d.name_hash.load(std::memory_order_relaxed) == hash &&
        d.name_len == name.size() &&
        std::memcmp(d.name, name.data(), name.size()) == 0) {
      found = &d;
      break;
    }
    idx = d.dir_next;
  }
  if (probes > 1) {
    header_->dir_collisions.fetch_add(probes - 1, std::memory_order_relaxed);
  }
  platform_->charge_ops(probes == 0 ? 1.0 : static_cast<double>(probes));
  return found;
}

void Facility::dir_insert(detail::DirBucket& b, detail::LnvcDesc& d) noexcept {
  d.dir_next = b.head;  // node link first, head last: always consistent
  b.head = static_cast<std::uint32_t>(&d - table()) + 1;
}

void Facility::dir_unlink(detail::DirBucket& b, detail::LnvcDesc& d) noexcept {
  const std::uint32_t target = static_cast<std::uint32_t>(&d - table()) + 1;
  std::uint32_t* link = &b.head;
  detail::LnvcDesc* t = table();
  while (*link != 0) {
    if (*link == target) {
      *link = d.dir_next;  // single-store cut
      d.dir_next = 0;
      return;
    }
    link = &t[*link - 1].dir_next;
  }
}

detail::DirBucket& Facility::lock_bucket_of(detail::LnvcDesc& d, ProcessId pid,
                                            ProcessId* dead) {
  for (;;) {
    const std::uint64_t hash = d.name_hash.load(std::memory_order_acquire);
    detail::DirBucket& b = bucket_of(hash);
    ProcessId dd = lock_bucket(b, pid);
    if (*dead == kNoProcess) *dead = dd;
    dd = alock_lnvc(d, pid);
    if (*dead == kNoProcess) *dead = dd;
    // A dead slot belongs to no bucket (any locked bucket serves); a live
    // one must still hash into the bucket we locked — recycling between
    // the racy read and the lock moves it, so verify and retry.
    if (d.in_use == 0 ||
        d.name_hash.load(std::memory_order_relaxed) == hash) {
      return b;
    }
    platform_->unlock(d.lock);
    platform_->unlock(b.lock);
  }
}

detail::LnvcDesc* Facility::free_pop(ProcessId pid, ProcessId* dead) {
  detail::LnvcDesc* t = table();
  for (int attempt = 0; attempt < 2; ++attempt) {
    const ProcessId dd = alock(header_->lnvc_free_lock, pid);
    if (*dead == kNoProcess) *dead = dd;
    const std::uint32_t idx = header_->lnvc_free_head;
    if (idx != 0) {
      detail::LnvcDesc& d = t[idx - 1];
      header_->lnvc_free_head = d.free_next;
      d.free_next = 0;
      d.free_claimant = pid;
      d.free_state.store(detail::LnvcDesc::kClaimed,
                         std::memory_order_release);
      platform_->unlock(header_->lnvc_free_lock);
      return &d;
    }
    // Exhausted: rebuild from leaks.  A slot stuck in kClaimed whose
    // claimant is dead was abandoned between pop and commit (or between
    // retire and push) — in either case it is unlinked from every bucket
    // and owns nothing, so relisting it is safe.
    bool reclaimed = false;
    for (std::uint32_t i = 0; i < header_->max_lnvcs; ++i) {
      detail::LnvcDesc& s = t[i];
      if (s.free_state.load(std::memory_order_acquire) ==
              detail::LnvcDesc::kClaimed &&
          !process_alive(s.free_claimant)) {
        s.free_next = header_->lnvc_free_head;
        s.free_state.store(detail::LnvcDesc::kFreeListed,
                           std::memory_order_relaxed);
        header_->lnvc_free_head = i + 1;
        reclaimed = true;
      }
    }
    platform_->unlock(header_->lnvc_free_lock);
    if (!reclaimed) return nullptr;
  }
  return nullptr;
}

void Facility::free_push(ProcessId pid, detail::LnvcDesc& d) {
  // Robust but repair-free: freelist critical sections are pure stores
  // ordered so the list is consistent at every boundary, so a seized lock
  // needs no structural repair (the leaked slot itself is reclaimed by
  // the exhaustion rebuild / reap sweep).
  (void)alock(header_->lnvc_free_lock, pid);
  d.free_next = header_->lnvc_free_head;
  d.free_state.store(detail::LnvcDesc::kFreeListed,
                     std::memory_order_relaxed);
  header_->lnvc_free_head = static_cast<std::uint32_t>(&d - table()) + 1;
  platform_->unlock(header_->lnvc_free_lock);
}

detail::Connection* Facility::find_conn(detail::LnvcDesc& d, ProcessId pid,
                                        bool sender) const noexcept {
  shm::Offset off = d.connections.off;
  while (off != shm::kNullOffset) {
    auto* conn = static_cast<detail::Connection*>(arena_.raw(off));
    if (conn->process_id == pid && conn->is_sender() == sender) return conn;
    off = conn->next;
  }
  return nullptr;
}

Status Facility::open_common(ProcessId pid, std::string_view name,
                             std::uint32_t kind, LnvcId* out) {
  if (out == nullptr) return Status::invalid_argument;
  *out = kInvalidLnvc;
  if (pid >= header_->max_processes || name.empty() ||
      name.size() > detail::kNameMax) {
    return Status::invalid_argument;
  }
  platform_->charge_open_close();
  register_process(pid);
  const std::uint64_t hash = name_hash(name);
  detail::DirBucket& b = bucket_of(hash);
  ProcessId dead = lock_bucket(b, pid);
  detail::LnvcDesc* d = dir_find(b, name, hash);
  if (d == nullptr) {
    // Create the LNVC in a free slot (paper: "If lnvc_name did not
    // previously exist, it is created").  O(1) off the freelist; the
    // bucket lock serializes create-vs-create for this name.
    d = free_pop(pid, &dead);
    if (d == nullptr) {
      platform_->unlock(b.lock);
      reap_if_dead(pid, dead);
      return Status::table_full;
    }
    const ProcessId dead2 = alock_lnvc(*d, pid);
    if (dead == kNoProcess) dead = dead2;
    ++d->generation;
    std::memset(d->name, 0, sizeof(d->name));
    std::memcpy(d->name, name.data(), name.size());
    d->name_hash.store(hash, std::memory_order_relaxed);
    d->name_len = static_cast<std::uint32_t>(name.size());
    d->n_senders = d->n_fcfs = d->n_bcast = d->n_queued = 0;
    d->last_sender_died = 0;
    d->msg_head = d->msg_tail = d->fcfs_head = shm::Ref<detail::MsgHeader>{};
    d->connections = shm::Ref<detail::Connection>{};
    d->seq_counter = 0;
    d->total_msgs = 0;
    d->total_bytes = 0;
    // Fresh quota ledger: the facility-wide defaults apply until a
    // set_admission override; the park queue starts empty.
    d->quota_blocks = header_->lnvc_quota_blocks;
    d->quota_slabs = header_->lnvc_quota_slabs;
    d->policy = header_->admission_policy;
    d->used_blocks = d->used_slabs = 0;
    d->hw_blocks = d->hw_slabs = 0;
    d->park_next_ticket = 0;
    d->park_waiters.store(0, std::memory_order_relaxed);
    d->prober = 0;
    // No armed watches, no pending pulses on a fresh circuit.
    d->armed.store(0, std::memory_order_relaxed);
    for (auto& p : d->pulses) p = detail::PulseSlot{};
    // Commit span (no platform calls): link into the bucket, mark the
    // slot live, publish.  A death before this span leaves a kClaimed
    // slot for the exhaustion rebuild; after it, a normal live circuit.
    dir_insert(b, *d);
    d->free_state.store(detail::LnvcDesc::kSlotLive,
                        std::memory_order_release);
    d->in_use = 1;  // commit point
  } else {
    const ProcessId dead2 = alock_lnvc(*d, pid);
    if (dead == kNoProcess) dead = dead2;
  }

  // Enforce the paper's footnote 3: one process may not mix FCFS and
  // BROADCAST receive protocols on the same LNVC; duplicates of the same
  // connection kind are rejected too.
  Status status = Status::ok;
  const bool sender = (kind == detail::Connection::kSender);
  if (find_conn(*d, pid, sender) != nullptr) {
    const auto* existing = find_conn(*d, pid, sender);
    if (sender || existing->kind == kind) {
      status = Status::already_connected;
    } else {
      status = Status::protocol_conflict;
    }
  }
  if (status == Status::ok) {
    const shm::Offset conn_off = header_->conn_list.pop(arena_);
    if (conn_off == shm::kNullOffset) {
      status = Status::table_full;
    } else {
      auto* conn = ::new (arena_.raw(conn_off)) detail::Connection();
      conn->process_id = pid;
      conn->kind = kind;
      conn->bcast_head = shm::kNullOffset;  // joins at the tail
      conn->next = d->connections.off;
      d->connections = shm::Ref<detail::Connection>{conn_off};
      if (sender) {
        ++d->n_senders;
        // A live sender supersedes the orphan verdict from a dead one.
        d->last_sender_died = 0;
      } else if (kind == static_cast<std::uint32_t>(Protocol::fcfs)) {
        ++d->n_fcfs;
      } else {
        ++d->n_bcast;
      }
      *out = static_cast<LnvcId>(d - table());
    }
  }
  // An LNVC freshly created by a failed open must not linger.
  if (status != Status::ok && d->n_senders + d->n_fcfs + d->n_bcast == 0) {
    destroy_lnvc(pid, *d);
  }
  // Any connection change invalidates cached fast-path validations (a
  // joining BROADCAST receiver, in particular, must stop in-flight CAS
  // pushes before it can miss a fan-out).
  update_fast_state(*d);
  platform_->unlock(d->lock);
  platform_->unlock(b.lock);
  reap_if_dead(pid, dead);
  return status;
}

Status Facility::open_send(ProcessId pid, std::string_view name, LnvcId* out) {
  return open_common(pid, name, detail::Connection::kSender, out);
}

Status Facility::open_receive(ProcessId pid, std::string_view name,
                              Protocol protocol, LnvcId* out) {
  if (protocol != Protocol::fcfs && protocol != Protocol::broadcast) {
    return Status::invalid_argument;
  }
  return open_common(pid, name, static_cast<std::uint32_t>(protocol), out);
}

Status Facility::close_common(ProcessId pid, LnvcId id, bool sender) {
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr) return Status::invalid_argument;
  if (pid >= header_->max_processes) return Status::invalid_argument;
  platform_->charge_open_close();
  register_process(pid);
  ProcessId dead = kNoProcess;
  // The bucket lock is held across the close so a destroy (last
  // connection) can unlink the name from its chain.
  detail::DirBucket& b = lock_bucket_of(*d, pid, &dead);
  if (d->in_use == 0) {
    platform_->unlock(d->lock);
    platform_->unlock(b.lock);
    reap_if_dead(pid, dead);
    return Status::no_such_lnvc;
  }
  // Find and unlink the connection.
  shm::Offset* link = &d->connections.off;
  detail::Connection* conn = nullptr;
  while (*link != shm::kNullOffset) {
    auto* c = static_cast<detail::Connection*>(arena_.raw(*link));
    if (c->process_id == pid && c->is_sender() == sender) {
      conn = c;
      break;
    }
    link = &c->next;
  }
  if (conn == nullptr) {
    platform_->unlock(d->lock);
    platform_->unlock(b.lock);
    reap_if_dead(pid, dead);
    return Status::not_connected;
  }
  if (conn->is_bcast()) {
    // The paper's "particularly vexing problem" (§3.2): unread messages of
    // a departing BROADCAST receiver must release their claim.  With
    // per-message reference counts this is a single walk from the private
    // head to the tail.
    shm::Offset m_off = conn->bcast_head;
    while (m_off != shm::kNullOffset) {
      auto* m = static_cast<detail::MsgHeader*>(arena_.raw(m_off));
      m->bcast_remaining.fetch_sub(1, std::memory_order_acq_rel);
      m_off = m->next_msg;
    }
    --d->n_bcast;
  } else if (conn->is_fcfs()) {
    --d->n_fcfs;
  } else {
    --d->n_senders;
  }
  // A blocked multi-circuit waiter watching this connection must wake and
  // find it gone (not_connected / no_such_lnvc, as a receive would).
  watch_fire(*d, *conn, ~std::uint32_t{0});
  const shm::Offset conn_off = arena_.ref_of(conn).off;
  *link = conn->next;
  header_->conn_list.push(arena_, conn_off);

  if (d->n_senders + d->n_fcfs + d->n_bcast == 0) {
    // Last connection gone: the LNVC is deleted and all unread messages
    // are discarded (paper §2).
    destroy_lnvc(pid, *d);
  } else {
    reclaim(pid, *d);
    // The departed connection invalidates cached fast-path validations
    // (the closer itself must not CAS-push on a connection it just shed),
    // and a leaving BROADCAST receiver may restore eligibility.
    update_fast_state(*d);
    // Receivers blocked on this LNVC may need to reconsider (e.g. the
    // closing process was expected to send).
    platform_->notify_all(d->cond);
  }
  platform_->unlock(d->lock);
  platform_->unlock(b.lock);
  reap_if_dead(pid, dead);
  return Status::ok;
}

Status Facility::close_send(ProcessId pid, LnvcId id) {
  return close_common(pid, id, /*sender=*/true);
}

Status Facility::close_receive(ProcessId pid, LnvcId id) {
  return close_common(pid, id, /*sender=*/false);
}

void Facility::destroy_lnvc(ProcessId pid, detail::LnvcDesc& d) {
  if (header_->lockfree_fcfs != 0) {
    // Seal the fast path, then drain — in that order.  The seq_cst total
    // order gives the Dekker guarantee: a CAS push whose post-push
    // validation read the pre-seal word landed before the drain's head
    // snapshot, so the drain splices (and the walk below frees) it; a
    // push that lands after the snapshot reads the sealed word and
    // reconciles under the lock instead of trusting its cache.  Sealing
    // also wakes parked receivers so they observe the death.  Everything
    // up to here mutates nothing destroy must finish — a death at the
    // wake's platform call leaves an intact circuit for repair_lnvc.
    const std::uint64_t old = d.fast_state.load(std::memory_order_relaxed);
    d.fast_state.store(((old >> 1) + 1) << 1, std::memory_order_seq_cst);
    if ((old & 1) != 0) rpark_wake(d, d.generation, /*all=*/true);
    drain_injection(d);
  }
  shm::Offset m_off = d.msg_head.off;
  // Journal the retained FIFO, then detach it and kill the slot with no
  // intervening platform call: at every subsequent suspension point the
  // slot is already free and the walk's exact progress is in the journal,
  // so a death mid-walk leaves the reaper a finishable cursor.
  if (m_off != shm::kNullOffset) journal_release_chains(pid, d, m_off);
  d.msg_head = d.msg_tail = d.fcfs_head = shm::Ref<detail::MsgHeader>{};
  d.n_queued = 0;
  // Same no-platform-call span: unlink the name from its bucket chain
  // (the caller holds the bucket lock) and claim the slot for freelist
  // retirement, then commit the death.  free_state goes kClaimed *before*
  // in_use drops so a death anywhere past this span leaves a slot the
  // exhaustion rebuild / reap sweep can reclaim — unlinked, message walk
  // journaled, owned by a dead claimant.
  dir_unlink(bucket_of(d.name_hash.load(std::memory_order_relaxed)), d);
  d.free_claimant = pid;
  d.free_state.store(detail::LnvcDesc::kClaimed, std::memory_order_release);
  d.armed.store(0, std::memory_order_relaxed);  // no connections left
  for (auto& p : d.pulses) p = detail::PulseSlot{};
  d.in_use = 0;
  std::memset(d.name, 0, sizeof(d.name));
  d.name_len = 0;
  ++d.generation;
  // The circuit's quota dies with it: reset the ledger and the park queue.
  // Parked senders observe the generation bump, clear their own membership
  // flag without touching these counters, and return closed.
  d.used_blocks = d.used_slabs = 0;
  d.park_next_ticket = 0;
  d.park_waiters.store(0, std::memory_order_release);
  d.prober = 0;
  while (m_off != shm::kNullOffset) {
    auto* m = static_cast<detail::MsgHeader*>(arena_.raw(m_off));
    const shm::Offset next = m->next_msg;
    if (m->pins != 0) {
      // Receivers hold pins (views / in-flight copy-outs) into this
      // message: freeing it under them would be a use-after-free.  Detach
      // it instead — ownership passes to the pinners and the last one to
      // unpin frees it.  Flag first, then advance the cursor, then cut the
      // link (one store span): a reaper resuming from the journal cursor
      // either sees the flag or never sees the message.
      m->flags |= detail::MsgHeader::kDetached;
      pslot(pid).msg = next;
      m->next_msg = shm::kNullOffset;
    } else {
      // Advance the journal cursor past the message before freeing it
      // (same span: free_message arms its own nested record for it).
      pslot(pid).msg = next;
      free_message(pid, m);
    }
    m_off = next;
  }
  journal_clear(pid);
  // Anyone blocked with a stale handle must wake and observe the death.
  platform_->notify_all(d.cond);
  platform_->notify_all(d.park_cond);
  // Retire the slot.  The popper will wait on d.lock (still held by this
  // caller) before touching anything, so publishing early is safe.
  free_push(pid, d);
}

Status Facility::set_admission(ProcessId pid, LnvcId id,
                               std::uint32_t quota_blocks,
                               std::uint32_t quota_slabs,
                               AdmissionPolicy policy) {
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr || pid >= header_->max_processes) {
    return Status::invalid_argument;
  }
  alock_lnvc(*d, pid);
  if (d->in_use == 0) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, kNoProcess);
    return Status::no_such_lnvc;
  }
  // Only a connection holder may rewrite the circuit's quota and policy
  // (the header's contract); an unrelated pid gets not_connected.
  if (find_conn(*d, pid, /*sender=*/true) == nullptr &&
      find_conn(*d, pid, /*sender=*/false) == nullptr) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, kNoProcess);
    return Status::not_connected;
  }
  d->quota_blocks = quota_blocks;
  d->quota_slabs = quota_slabs;
  d->policy = static_cast<std::uint32_t>(policy);
  // A nonzero quota disqualifies the CAS path (pushes bypass admission);
  // lifting it back to 0/0 restores eligibility.  Drain first so messages
  // already pushed under the old validation land on the ledger.
  if (header_->lockfree_fcfs != 0) drain_injection(*d);
  update_fast_state(*d);
  platform_->unlock(d->lock);
  // A loosened (or lifted) quota may admit senders parked under the old
  // one.
  park_ripple(*d);
  reap_if_dead(pid, kNoProcess);
  return Status::ok;
}

std::size_t Facility::queued(LnvcId id) const {
  auto* self = const_cast<Facility*>(this);
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr) return 0;
  self->platform_->lock(d->lock);
  if (header_->lockfree_fcfs != 0 && d->in_use != 0) {
    self->drain_injection(*d);  // count in-flight fast pushes too
  }
  const std::size_t n = d->in_use ? d->n_queued : 0;
  self->platform_->unlock(d->lock);
  return n;
}

bool Facility::lnvc_exists(std::string_view name) const {
  if (name.empty() || name.size() > detail::kNameMax) return false;
  auto* self = const_cast<Facility*>(this);
  const std::uint64_t hash = name_hash(name);
  detail::DirBucket& b = self->bucket_of(hash);
  self->platform_->lock(b.lock);
  const bool found = self->dir_find(b, name, hash) != nullptr;
  self->platform_->unlock(b.lock);
  return found;
}

std::size_t Facility::lnvc_count() const {
  auto* self = const_cast<Facility*>(this);
  self->platform_->lock(header_->registry_lock);
  std::size_t n = 0;
  const detail::LnvcDesc* t = table();
  for (std::uint32_t i = 0; i < header_->max_lnvcs; ++i) {
    n += t[i].in_use != 0 ? 1 : 0;
  }
  self->platform_->unlock(header_->registry_lock);
  return n;
}

Status Facility::lnvc_info(LnvcId id, LnvcInfo* out) const {
  if (out == nullptr) return Status::invalid_argument;
  auto* self = const_cast<Facility*>(this);
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr) return Status::invalid_argument;
  self->platform_->lock(d->lock);
  if (d->in_use == 0) {
    self->platform_->unlock(d->lock);
    return Status::no_such_lnvc;
  }
  if (header_->lockfree_fcfs != 0) self->drain_injection(*d);
  out->id = id;
  out->name.assign(d->name, ::strnlen(d->name, detail::kNameMax));
  out->senders = d->n_senders;
  out->fcfs_receivers = d->n_fcfs;
  out->broadcast_receivers = d->n_bcast;
  out->queued = d->n_queued;
  out->pinned = 0;
  for (shm::Offset m_off = d->msg_head.off; m_off != shm::kNullOffset;) {
    const auto* m = static_cast<const detail::MsgHeader*>(arena_.raw(m_off));
    out->pinned += m->pins;
    m_off = m->next_msg;
  }
  out->total_messages = d->total_msgs;
  out->total_bytes = d->total_bytes;
  out->quota_blocks = d->quota_blocks;
  out->quota_slabs = d->quota_slabs;
  out->used_blocks = d->used_blocks;
  out->used_slabs = d->used_slabs;
  out->hw_blocks = d->hw_blocks;
  out->hw_slabs = d->hw_slabs;
  out->policy = static_cast<AdmissionPolicy>(d->policy);
  out->parked = d->park_waiters.load(std::memory_order_relaxed);
  out->parked_receivers = 0;
  const auto gen = d->generation;
  for (ProcessId p = 0; p < header_->max_processes; ++p) {
    const detail::ProcSlot& q = pslot(p);
    if (q.rpark_active.load(std::memory_order_acquire) != 0 &&
        q.rpark_lnvc.load(std::memory_order_relaxed) ==
            static_cast<std::uint32_t>(id) &&
        q.rpark_gen.load(std::memory_order_relaxed) == gen) {
      ++out->parked_receivers;
    }
  }
  self->platform_->unlock(d->lock);
  return Status::ok;
}

std::vector<ParkedInfo> Facility::parked_infos() const {
  // Advisory snapshot (mpf_inspect --parked): membership flags are read
  // lock-free, exactly as wakers read them, so a row may already be on its
  // way out — fine for a diagnostic tool.
  std::vector<ParkedInfo> infos;
  for (ProcessId p = 0; p < header_->max_processes; ++p) {
    const detail::ProcSlot& q = pslot(p);
    if (q.park_active.load(std::memory_order_acquire) != 0) {
      ParkedInfo info;
      info.pid = p;
      info.id = static_cast<LnvcId>(q.park_lnvc);
      info.receiver = false;
      info.ticket = q.park_ticket;
      info.node_epoch = q.park_node.epoch.load(std::memory_order_relaxed);
      info.alive = process_alive(p);
      infos.push_back(info);
    }
    if (q.rpark_active.load(std::memory_order_acquire) != 0) {
      ParkedInfo info;
      info.pid = p;
      info.id =
          static_cast<LnvcId>(q.rpark_lnvc.load(std::memory_order_relaxed));
      info.receiver = true;
      info.ticket = q.rpark_ticket.load(std::memory_order_relaxed);
      info.node_epoch = q.park_node.epoch.load(std::memory_order_relaxed);
      info.alive = process_alive(p);
      infos.push_back(info);
    }
  }
  return infos;
}

std::vector<LnvcInfo> Facility::lnvc_infos() const {
  std::vector<LnvcInfo> infos;
  for (std::uint32_t i = 0; i < header_->max_lnvcs; ++i) {
    LnvcInfo info;
    if (lnvc_info(static_cast<LnvcId>(i), &info) == Status::ok) {
      infos.push_back(std::move(info));
    }
  }
  return infos;
}

FacilityStats Facility::stats() const {
  FacilityStats s;
  s.sends = header_->sends.load(std::memory_order_relaxed);
  s.receives = header_->receives.load(std::memory_order_relaxed);
  s.bytes_sent = header_->bytes_sent.load(std::memory_order_relaxed);
  s.bytes_delivered =
      header_->bytes_delivered.load(std::memory_order_relaxed);
  s.blocks_total = header_->blocks_total;
  s.pool_shards = header_->n_shards;
  const detail::PoolShard* sh = shards();
  for (std::uint32_t i = 0; i < header_->n_shards; ++i) {
    s.blocks_free += sh[i].blocks.available();
    s.shard_lock_acquisitions +=
        sh[i].lock_acquisitions.load(std::memory_order_relaxed);
    s.shard_lock_wait_ns += sh[i].lock_wait_ns.load(std::memory_order_relaxed);
    s.shard_steals += sh[i].steals.load(std::memory_order_relaxed);
  }
  const detail::ProcCache* pc = caches();
  for (std::uint32_t p = 0; p < header_->max_processes; ++p) {
    s.blocks_cached += pc[p].block_count.load(std::memory_order_relaxed);
    s.cache_hits += pc[p].hits.load(std::memory_order_relaxed);
    s.cache_misses += pc[p].misses.load(std::memory_order_relaxed);
    s.cache_flushes += pc[p].flushes.load(std::memory_order_relaxed);
    s.cache_raids += pc[p].raids.load(std::memory_order_relaxed);
  }
  s.blocks_free += s.blocks_cached;  // magazine blocks are still free blocks
  s.exhaustion_waits =
      header_->exhaustion_waits.load(std::memory_order_relaxed);
  s.suspicions = header_->suspicions.load(std::memory_order_relaxed);
  s.seizures = header_->seizures.load(std::memory_order_relaxed);
  s.false_suspicions =
      header_->false_suspicions.load(std::memory_order_relaxed);
  s.reaps = header_->reaps.load(std::memory_order_relaxed);
  s.reaped_connections =
      header_->reaped_connections.load(std::memory_order_relaxed);
  s.reclaimed_blocks =
      header_->reclaimed_blocks.load(std::memory_order_relaxed);
  s.peer_failures = header_->peer_failures.load(std::memory_order_relaxed);
  s.orphaned_receives =
      header_->orphaned_receives.load(std::memory_order_relaxed);
  s.views = header_->views.load(std::memory_order_relaxed);
  s.view_bytes = header_->view_bytes.load(std::memory_order_relaxed);
  s.slab_sends = header_->slab_sends.load(std::memory_order_relaxed);
  s.slab_fallbacks = header_->slab_fallbacks.load(std::memory_order_relaxed);
  s.sends_rejected = header_->sends_rejected.load(std::memory_order_relaxed);
  s.sends_shed = header_->sends_shed.load(std::memory_order_relaxed);
  s.sends_timed_out =
      header_->sends_timed_out.load(std::memory_order_relaxed);
  s.quota_parks = header_->quota_parks.load(std::memory_order_relaxed);
  s.parks = header_->parks.load(std::memory_order_relaxed);
  s.wakes = header_->wakes.load(std::memory_order_relaxed);
  s.spurious_wakes = header_->spurious_wakes.load(std::memory_order_relaxed);
  s.lockfree_fast_sends =
      header_->lockfree_fast_sends.load(std::memory_order_relaxed);
  s.any_rescans = header_->any_rescans.load(std::memory_order_relaxed);
  s.dir_lookups = header_->dir_lookups.load(std::memory_order_relaxed);
  s.dir_collisions = header_->dir_collisions.load(std::memory_order_relaxed);
  s.pollset_wakes = header_->pollset_wakes.load(std::memory_order_relaxed);
  s.pulses_sent = header_->pulses_sent.load(std::memory_order_relaxed);
  s.pulses_coalesced =
      header_->pulses_coalesced.load(std::memory_order_relaxed);
  s.slabs_total = header_->slabs_total;
  const detail::SlabPool* sp = slab_pools();
  const detail::NodeStats* ns = node_stats();
  s.numa_nodes = header_->numa_nodes;
  for (std::uint32_t nd = 0; nd < header_->numa_nodes; ++nd) {
    s.slabs_free += sp[nd].slabs.available();
    s.numa_local_pops += ns[nd].local_pops.load(std::memory_order_relaxed);
    s.numa_remote_pops += ns[nd].remote_pops.load(std::memory_order_relaxed);
    s.numa_node_steals += ns[nd].steals.load(std::memory_order_relaxed);
  }
  s.arena_used = arena_.used();
  return s;
}

DirectoryInfo Facility::directory_info() const {
  // Advisory snapshot: chains are walked under each bucket's lock, the
  // freelist under its own, so the totals are per-structure consistent.
  auto* self = const_cast<Facility*>(this);
  DirectoryInfo info;
  info.buckets = header_->dir_n_buckets;
  info.chain_histogram.assign(9, 0);
  detail::DirBucket* buckets = dir();
  detail::LnvcDesc* t = table();
  for (std::uint32_t i = 0; i < header_->dir_n_buckets; ++i) {
    detail::DirBucket& b = buckets[i];
    self->platform_->lock(b.lock);
    std::uint32_t chain = 0;
    for (std::uint32_t idx = b.head; idx != 0; idx = t[idx - 1].dir_next) {
      ++chain;
    }
    self->platform_->unlock(b.lock);
    info.live_names += chain;
    info.max_chain = std::max(info.max_chain, chain);
    const std::size_t bin =
        std::min<std::size_t>(chain, info.chain_histogram.size() - 1);
    ++info.chain_histogram[bin];
    const std::uint64_t seized =
        b.seizures.load(std::memory_order_relaxed);
    if (seized != 0) {
      info.lock_seizures += seized;
      info.seized_buckets.emplace_back(i, seized);
    }
  }
  self->platform_->lock(header_->lnvc_free_lock);
  for (std::uint32_t idx = header_->lnvc_free_head; idx != 0;
       idx = t[idx - 1].free_next) {
    ++info.free_slots;
  }
  self->platform_->unlock(header_->lnvc_free_lock);
  return info;
}

std::uint32_t Facility::numa_nodes() const noexcept {
  return header_->numa_nodes;
}

bool Facility::numa_prefer_receiver() const noexcept {
  return header_->numa_prefer_receiver != 0;
}

void Facility::set_process_node(ProcessId pid, std::uint32_t node) {
  if (pid >= header_->max_processes || header_->numa_nodes == 0) return;
  pslot(pid).node = node & header_->node_mask;
}

std::vector<NodePoolInfo> Facility::node_pool_infos() const {
  std::vector<NodePoolInfo> infos(header_->numa_nodes);
  const detail::SlabPool* sp = slab_pools();
  const detail::NodeStats* ns = node_stats();
  const detail::PoolShard* sh = shards();
  for (std::uint32_t nd = 0; nd < header_->numa_nodes; ++nd) {
    NodePoolInfo& info = infos[nd];
    info.node = nd;
    info.free_slabs = sp[nd].slabs.available();
    info.slab_capacity = sp[nd].slabs.capacity();
    info.local_pops = ns[nd].local_pops.load(std::memory_order_relaxed);
    info.remote_pops = ns[nd].remote_pops.load(std::memory_order_relaxed);
    info.steals = ns[nd].steals.load(std::memory_order_relaxed);
  }
  for (std::uint32_t i = 0; i < header_->n_shards; ++i) {
    NodePoolInfo& info = infos[i & header_->node_mask];
    ++info.shards;
    info.free_blocks += sh[i].blocks.available();
    info.block_capacity += sh[i].blocks.capacity();
  }
  return infos;
}

std::uint32_t Facility::block_payload() const noexcept {
  return header_->block_payload;
}
std::uint32_t Facility::max_processes() const noexcept {
  return header_->max_processes;
}
std::uint32_t Facility::max_lnvcs() const noexcept {
  return header_->max_lnvcs;
}

}  // namespace mpf
