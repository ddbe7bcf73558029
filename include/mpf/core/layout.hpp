// Shared-memory layout of the MPF runtime state.
//
// Everything here lives inside the arena and is therefore link-free: all
// references are arena offsets (shm::Ref).  The structures are the ones
// Figure 2 of the paper draws:
//
//   LnvcDesc: name, internal id, queued-message count, a FIFO of messages,
//   a tail pointer for senders, a shared FCFS head pointer, the list of
//   connections, and a lock for mutually exclusive access.  BROADCAST
//   receive descriptors carry an individual FIFO head pointer.
//
// This header is internal to the implementation but kept in include/ so
// white-box tests can assert invariants directly.
#pragma once

#include <atomic>
#include <cstdint>

#include "mpf/core/config.hpp"
#include "mpf/core/types.hpp"
#include "mpf/shm/free_list.hpp"
#include "mpf/shm/ref.hpp"
#include "mpf/shm/run_allocator.hpp"
#include "mpf/sync/parker.hpp"
#include "mpf/sync/spinlock.hpp"

namespace mpf::detail {

inline constexpr std::uint32_t kNameMax = 31;
inline constexpr std::uint32_t kFacilityMagic = 0x4d504602;  // "MPF\x02"

/// Pulse-coalescing slots per circuit (send_pulse): distinct pending codes
/// one LNVC can hold; a repeat of a pending code coalesces into its count.
inline constexpr std::uint32_t kPulseSlots = 4;

/// One pending pulse: a code and how many times it was sent since last
/// drained.  count == 0 marks the slot empty.  Under the LnvcDesc lock.
struct PulseSlot {
  std::uint32_t code;
  std::uint32_t count;
};

/// One bucket of the sharded LNVC name directory: a robust lock and the
/// head of an intrusive descriptor chain (LnvcDesc::dir_next, slot index +
/// 1, 0 = end).  Chain edits are single-word stores ordered so the chain
/// is consistent at every instruction boundary — a holder dying mid-insert
/// or mid-unlink leaves nothing to repair beyond the seizure itself.
/// Cache-line aligned so bucket locks do not false-share.
struct alignas(64) DirBucket {
  sync::SpinLock lock;
  std::uint32_t head;  ///< LnvcDesc slot index + 1; 0 = empty
  std::atomic<std::uint64_t> seizures;  ///< times this lock was taken from
                                        ///< a dead holder (mpf_inspect)
};

/// One waiter's ready set (DESIGN.md §14): one per poll set, plus one per
/// process for receive_any.  Its `bits` carve holds three bitmaps,
/// FacilityHeader::summary_words + 2 * ready_words u64s:
///   summary  bit w: ready word w may be non-zero
///   ready    bit s: slot s was fired (or left ready) since its last pop
///   member   bit s: slot s is watched by this set
/// Per watched slot, the watching connection is armed, or the slot is
/// marked ready, or the set's waiter is revalidating it right now.
struct ReadySet {
  /// Bumped whenever a member bit is cleared, so a cached "every listed
  /// circuit is watched" verdict (detail::AnyMemo) expires.
  std::atomic<std::uint64_t> epoch;
  std::atomic<std::uint32_t> cursor;  ///< rotation start: slot index
  shm::Offset bits;
};

/// Pointers into one ReadySet's carve (all atomic: firers, the waiter and
/// the oracle touch them concurrently).
struct ReadyBits {
  std::atomic<std::uint64_t>* summary;
  std::atomic<std::uint64_t>* ready;
  std::atomic<std::uint64_t>* member;
};

/// Mark `slot` ready: the ready bit first, then its summary bit, so a
/// consumer that sees the summary bit finds the word populated.
inline void mark_ready(const ReadyBits& b, std::uint32_t slot) noexcept {
  const std::uint32_t w = slot >> 6;
  b.ready[w].fetch_or(std::uint64_t{1} << (slot & 63),
                      std::memory_order_seq_cst);
  b.summary[w >> 6].fetch_or(std::uint64_t{1} << (w & 63),
                             std::memory_order_seq_cst);
}

/// An epoll-like multi-circuit wait object (Facility::pollset_*).  Members
/// are the owner's receive connections (Connection::pollset), mirrored in
/// the ready set's member bitmap so destroy and the oracle can find them.
struct alignas(64) PollSet {
  sync::SpinLock lock;       ///< guards in_use/owner and the member bits
  std::uint32_t in_use;
  std::uint32_t generation;  ///< bumped on every destroy (stale-ref guard)
  std::uint32_t owner_pid;   ///< creator; destroyed when the owner is reaped
  std::atomic<std::uint32_t> waiter_pid;  ///< pid + 1 parked in wait; 0 none
  ReadySet rs;
};

/// One message block's link node.  Its `block_payload` bytes of data live
/// out of line, in its shard's payload array (shm::RunAllocator).
struct Block {
  shm::Offset next;  ///< next block of this message (also free-run link)
};

/// Message header (paper §3.1: length, tail pointer, next-message link),
/// extended with the reference counts that implement reclamation.
struct MsgHeader {
  /// Payload lives in one contiguous slab extent (first_block == the
  /// extent, nblocks == 0) instead of a block chain.
  static constexpr std::uint32_t kSlab = 1u << 0;
  /// The owning LNVC was destroyed while receivers held pins (views); the
  /// message left the FIFO and is owned by its pinners — the last one to
  /// unpin frees it.
  static constexpr std::uint32_t kDetached = 1u << 1;

  shm::Offset next_msg;     ///< FIFO link (doubles as free-list link)
  shm::Offset first_block;  ///< head of the block chain (or slab extent)
  shm::Offset last_block;   ///< tail of the block chain
  std::uint32_t length;     ///< payload bytes
  std::uint32_t nblocks;    ///< chain length; 0 for slab messages
  std::uint64_t seq;  ///< LNVC-local enqueue sequence (order tests)
  /// BROADCAST receivers that still must read this message.
  std::atomic<std::uint32_t> bcast_remaining;
  /// 1 once an FCFS receiver consumed it (or it needs no FCFS consumption).
  std::uint32_t fcfs_consumed;
  /// Receivers currently copying out of / viewing this message (pins
  /// reclamation).
  std::uint32_t pins;
  std::uint32_t flags;  ///< kSlab | kDetached
  /// Fast-path provenance (lockfree_fcfs): which sender CAS-pushed this
  /// message, the LNVC generation it validated against, and its per-sender
  /// monotonic stamp, so recovery can decide whether a push from a killed
  /// sender landed (see ProcSlot::inject_drained).  Zero on the locked
  /// path.
  std::uint32_t src_pid;
  std::uint32_t inject_gen;
  std::uint64_t inject_stamp;
  /// Injection-stack link (separate from next_msg): the stack chain stays
  /// intact while a drain splices its suffix into the FIFO, so a receiver
  /// dying mid-splice leaves every pushed message reachable from
  /// LnvcDesc::inject_head for repair_lnvc.
  shm::Offset inject_next;
};

/// A send or receive connection of one process to one LNVC.
struct Connection {
  shm::Offset next;  ///< connection-list link (also free-list link)
  std::uint32_t process_id;
  std::uint32_t kind;  ///< 0 = sender, else static_cast<u32>(Protocol)
  /// BROADCAST only: next message this receiver will read; null = at tail.
  shm::Offset bcast_head;
  /// Ready-set watches of a receive connection, under the descriptor lock.
  /// `armed` holds kWatch* bits: the next event that could make this
  /// connection deliverable fires those sets and clears the bits.
  std::uint32_t armed;
  std::uint32_t pollset;  ///< PollSet index + 1 this is a member of; 0 none

  static constexpr std::uint32_t kWatchAny = 1u << 0;   ///< owner's receive_any set
  static constexpr std::uint32_t kWatchPoll = 1u << 1;  ///< the set in `pollset`
  static constexpr std::uint32_t kSender = 0;
  [[nodiscard]] bool is_sender() const noexcept { return kind == kSender; }
  [[nodiscard]] bool is_fcfs() const noexcept {
    return kind == static_cast<std::uint32_t>(Protocol::fcfs);
  }
  [[nodiscard]] bool is_bcast() const noexcept {
    return kind == static_cast<std::uint32_t>(Protocol::broadcast);
  }
};

/// LNVC descriptor (one fixed slot per possible LNVC).
struct LnvcDesc {
  sync::SpinLock lock;       ///< guards everything below
  sync::EventCount cond;     ///< receivers sleep here; senders notify
  std::uint32_t in_use;      ///< slot occupied
  std::uint32_t generation;  ///< bumped on every reuse of the slot
  char name[kNameMax + 1];

  // Sharded name directory (DESIGN.md §14).  name_hash/name_len are set
  // under the owning bucket's lock before in_use commits; name_hash is
  // atomic because close paths read it with no lock held to *find* the
  // owning bucket (then lock and re-verify — slot recycling can change it).
  std::atomic<std::uint64_t> name_hash;  ///< FNV-1a of name
  std::uint32_t name_len;                ///< cached strlen(name)
  std::uint32_t dir_next;                ///< bucket chain: slot index + 1

  // Descriptor free-slot list (O(1) allocation; header lnvc_free_*).
  // free_state tracks the slot through its lifecycle so a process dying
  // between popping a slot and committing it (or between retiring it and
  // pushing it back) leaks nothing: reap and the exhaustion rebuild
  // reclaim state-kClaimed slots whose claimant is dead.
  static constexpr std::uint32_t kFreeListed = 0;  ///< on the freelist
  static constexpr std::uint32_t kClaimed = 1;     ///< popped or retiring
  static constexpr std::uint32_t kSlotLive = 2;    ///< in_use, in a bucket
  std::atomic<std::uint32_t> free_state;
  std::uint32_t free_claimant;  ///< pid owning a kClaimed transition
  std::uint32_t free_next;      ///< freelist link: slot index + 1

  /// Watch bits armed across the connections, changed under `lock`.  The
  /// lock-free send loads it seq_cst after its push (Dekker against the
  /// arm-then-recheck of a waiter) and locks to fire only when non-zero.
  std::atomic<std::uint32_t> armed;

  /// Pending pulses (send_pulse), coalesced by code.  Under `lock`.
  PulseSlot pulses[kPulseSlots];

  std::uint32_t n_senders;
  std::uint32_t n_fcfs;
  std::uint32_t n_bcast;
  std::uint32_t n_queued;  ///< messages not yet FCFS-consumed
  /// Suspicion-prober token (pid + 1; 0 = none), under `lock`.  Exactly one
  /// blocked process per circuit keeps the tight suspicion_ns probe period;
  /// the others stretch their timed sleeps ~16-32x (pid-jittered) so a herd
  /// of blocked peers cannot convoy on `lock` at the probe rate.  The token
  /// is released on every wake and re-claimed before each sleep, so a dead
  /// or departed prober is replaced by the next waiter to reach its timeout.
  std::uint32_t prober;
  /// Set by reap() when the circuit's last sender died (as opposed to
  /// closing); cleared by the next open_send.  A receiver blocked with
  /// nothing deliverable and no senders then gets Status::lnvc_orphaned
  /// instead of waiting for a sender that can never come back.
  std::uint32_t last_sender_died;

  shm::Ref<MsgHeader> msg_head;   ///< oldest retained message
  shm::Ref<MsgHeader> msg_tail;   ///< newest message (senders append here)
  shm::Ref<MsgHeader> fcfs_head;  ///< next message for FCFS receivers
  shm::Ref<Connection> connections;

  std::uint64_t seq_counter;
  std::uint64_t total_msgs;   ///< lifetime stats
  std::uint64_t total_bytes;  ///< lifetime stats

  // Admission-control ledger (all under `lock` unless noted).  A send
  // charges its message's cost (blocks_for(len) blocks, or one slab)
  // before allocating; the charge travels with the queued message and is
  // released where the message's storage returns to the pools.  0 quota =
  // unlimited (every check short-circuits; the pre-quota fast path).
  std::uint32_t quota_blocks;    ///< block budget; 0 = unlimited
  std::uint32_t quota_slabs;     ///< slab budget; 0 = unlimited
  std::uint32_t policy;          ///< AdmissionPolicy for over-quota sends
  std::uint32_t used_blocks;     ///< blocks charged to queued msgs + journals
  std::uint32_t used_slabs;      ///< slabs charged likewise
  std::uint32_t hw_blocks;       ///< lifetime high-water of used_blocks
  std::uint32_t hw_slabs;        ///< lifetime high-water of used_slabs
  /// Parked-sender FIFO (policy == block, quota exceeded): arrivals take
  /// park_next_ticket under `lock` and sleep on park_cond; the head — the
  /// smallest ticket among live parked members (ProcSlot::park_*) — admits
  /// when the quota fits.  Head-by-scan rather than a served-ticket
  /// cursor: reaping a dead member silently promotes the next ticket,
  /// with no cursor to repair.  park_waiters is atomic so releasers can
  /// peek it after unlocking (the notify-only-when-someone-waits ripple
  /// discipline).
  std::uint64_t park_next_ticket;
  std::atomic<std::uint32_t> park_waiters;
  sync::EventCount park_cond;  ///< parked senders sleep; releasers notify

  // Lock-free FCFS fast path (Config::lockfree_fcfs; DESIGN.md §12).
  /// MPSC injection stack: fast-path senders CAS-push fully built messages
  /// here, linked through MsgHeader::inject_next.  Any lock holder drains
  /// it — snapshot the head, splice the chain bottom-up (oldest first) at
  /// msg_tail, then cut the spliced suffix off the stack — so the stack's
  /// LIFO order becomes FIFO arrival order.  The push is the only
  /// lock-free write; draining and unlinking happen under `lock`.
  std::atomic<shm::Offset> inject_head;
  /// Cross-generation residue (lock-protected, linked via next_msg): a
  /// push that raced destroy + slot reuse lands on the new circuit's
  /// stack with a stale inject_gen; drains divert it here instead of the
  /// FIFO, and the pusher's reconcile path (or its reaper) unlinks and
  /// rolls it back.  Survives slot recycling on purpose.
  shm::Offset orphan_head;
  /// Seqlock-style eligibility word: (epoch << 1) | eligible, rewritten
  /// (epoch bumped) under `lock` on every structural change — connection
  /// open/close/reap, quota or policy change, destroy.  eligible is 1 only
  /// while in_use, no BROADCAST receivers, both quotas unlimited, and the
  /// facility has lockfree_fcfs on.  A sender whose cached validation
  /// (ProcSlot::fast_seen) still equals this word may push without the
  /// lock: an unchanged word proves its sender connection still exists and
  /// the circuit still qualifies.
  std::atomic<std::uint64_t> fast_state;
  /// Parked-receiver FIFO, mirroring the parked-sender park_* scheme:
  /// head-by-scan over live ProcSlot::rpark_* members, no cursor to
  /// repair.  rpark_waiters is atomic because fast-path senders peek it
  /// with no lock held (Dekker pairing: CAS push seq_cst, then peek; the
  /// receiver registers seq_cst, then re-checks inject_head).
  std::uint64_t rpark_next_ticket;
  std::atomic<std::uint32_t> rpark_waiters;
};

/// A caller-owned chain of blocks being assembled (or returned) by the
/// sharded allocator, linked through the nodes' first words.
struct GatherChain {
  shm::Offset head = shm::kNullOffset;
  shm::Offset tail = shm::kNullOffset;
  std::size_t count = 0;
};

/// One shard of the block/message-header pool.  Each shard owns its pools
/// behind its own lock, so allocator traffic from processes homed on
/// different shards never serializes.  Cache-line aligned so shard locks do
/// not false-share.
struct alignas(64) PoolShard {
  sync::SpinLock lock;  ///< guards blocks + msgs (platform-mediated)
  /// The block range this shard carved and its free bitmap.  Every block
  /// returns to the shard whose range holds it (node attribution: shard i
  /// serves node i & node_mask).
  shm::RunAllocator blocks;
  shm::FreeList msgs;
  // Contention counters (surfaced through FacilityStats / mpf_inspect).
  std::atomic<std::uint64_t> lock_acquisitions;
  std::atomic<std::uint64_t> lock_wait_ns;  ///< time spent acquiring `lock`
  std::atomic<std::uint64_t> steals;        ///< grabs by non-home processes
  std::atomic<std::uint64_t> refills;       ///< cache refill batches served
  std::atomic<std::uint64_t> flushes;       ///< freed chain stretches taken
};

/// One NUMA node's sub-pool of contiguous slab extents.  With
/// numa_nodes == 1 there is exactly one — the pre-NUMA global slab pool.
/// Cache-line aligned so per-node locks do not false-share.
struct alignas(64) SlabPool {
  sync::SpinLock lock;  ///< guards `slabs` (platform-mediated)
  shm::FreeList slabs;
  /// Arena range [range_lo, range_hi) of this node's extents (memory-node
  /// attribution of a slab offset, and the mbind target when libnuma is
  /// available natively).
  shm::Offset range_lo;
  shm::Offset range_hi;
};

/// Per-node allocation counters (mpf_inspect --nodes), indexed by the
/// node whose sub-pool served the pop.  local: the popping process is
/// homed on this node; remote: it is homed elsewhere (receiver-local
/// placement shows up here); steals: the pop's *intended* node was a
/// different one — this sub-pool served as the exhaustion fallback.
struct alignas(64) NodeStats {
  std::atomic<std::uint64_t> local_pops;
  std::atomic<std::uint64_t> remote_pops;
  std::atomic<std::uint64_t> steals;
};

/// Per-process allocator cache: a bounded magazine of blocks and message
/// headers, refilled from and flushed to the process's home shard in
/// batches.  A send/receive cycle that hits the magazine touches no shared
/// shard lock at all.  One per process id, in the arena, so exhaustion
/// sweeps (and fork()ed siblings) can reach every magazine.
struct alignas(64) ProcCache {
  sync::SpinLock lock;  ///< guards the chains below (platform-mediated)
  shm::Offset block_head;
  shm::Offset block_tail;
  /// Counts are written under `lock` but atomically peeked lock-free by
  /// exhaustion sweeps and stats readers.
  std::atomic<std::uint32_t> block_count;
  std::uint32_t block_cap;  ///< 0 = caching disabled for this facility
  shm::Offset msg_head;
  std::atomic<std::uint32_t> msg_count;
  std::uint32_t msg_cap;
  // Stats (written under `lock`, read lock-free).
  std::atomic<std::uint64_t> hits;     ///< served entirely from the magazine
  std::atomic<std::uint64_t> misses;   ///< had to visit a shard
  std::atomic<std::uint64_t> flushes;  ///< frees redirected (magazine full)
  std::atomic<std::uint64_t> raids;    ///< drained by an exhausted peer
};

/// What a process was in the middle of when it (possibly) died.  A
/// ProcSlot holds one *primary* record (these ops never nest in each
/// other) plus one nested free-message record (fm_*): free_message() runs
/// inside enqueue rollbacks, reclaim sweeps, and release_chains walks, so
/// it journals separately.
enum class JournalOp : std::uint32_t {
  none = 0,
  gather,          ///< assembling a block chain out of the shard pools
  enqueue,         ///< built message in hand; stage 1 once linked into FIFO
  copy_out,        ///< receiver pinned a message while copying out
  release_chains,  ///< bulk-freeing every message of a dying LNVC
};

/// One held zero-copy receive view.  Lives beside the primary journal
/// record (not in it) because a process may hold views while sending or
/// receiving — ops that would clobber the single copy_out record.
/// `active` is the commit point: kIdle -> kReserved (CAS, before the FCFS
/// claim; holds no resources) -> kArmed (operands first, active last with
/// release).  Active is cleared first when the view is released; a reaper
/// finding kReserved just clears it.
struct ViewSlot {
  static constexpr std::uint32_t kIdle = 0;
  static constexpr std::uint32_t kReserved = 1;  ///< claim in flight, no pin
  static constexpr std::uint32_t kArmed = 2;     ///< pin held, operands valid

  std::atomic<std::uint32_t> active;
  std::uint32_t lnvc_id;
  std::uint32_t lnvc_gen;
  std::uint32_t bcast;  ///< 1 = claimed via a BROADCAST cursor
  /// Arm sequence (from ProcSlot::view_seq).  release_view matches it
  /// against the handle so a stale handle — already released, slot since
  /// re-armed, possibly for a recycled message at the same offset — is a
  /// clean invalid_argument instead of a double unpin.
  std::uint32_t seq;
  shm::Offset msg;      ///< the pinned MsgHeader
};

/// Views one process may hold concurrently (receive_view returns
/// Status::table_full beyond this).
inline constexpr std::uint32_t kMaxViews = 4;

/// Per-process recovery slot: registration, OS identity, waiting-monitor
/// membership, and the single-record intent journal recovery rolls forward
/// or back.  Journal discipline: operands first, `op` last (the commit
/// point, with release ordering); `op` cleared first when disarming.
/// Cache-line aligned — each process writes only its own slot on hot paths.
struct alignas(64) ProcSlot {
  static constexpr std::uint32_t kFree = 0;
  static constexpr std::uint32_t kLive = 1;
  static constexpr std::uint32_t kDead = 2;    ///< declared, not yet reaped
  static constexpr std::uint32_t kReaped = 3;  ///< recovery sweep finished

  std::atomic<std::uint32_t> state;
  std::uint32_t os_pid;  ///< native: getpid() at registration; sim: 0
  /// NUMA node this process runs on (pid & node_mask at create;
  /// overridable via Facility::set_process_node).  Senders read the FCFS
  /// claimant's slot to place blocks receiver-local.
  std::uint32_t node;

  std::atomic<std::uint32_t> op;  ///< JournalOp; the journal commit point
  std::uint32_t stage;            ///< op-specific progress marker
  std::uint32_t lnvc_id;          ///< target LNVC (enqueue/copy_out/release)
  std::uint32_t lnvc_gen;         ///< generation guard for lnvc_id
  shm::Offset chain_head;         ///< block-chain head (gather/enqueue)
  shm::Offset chain_tail;         ///< block-chain tail
  shm::Offset msg;  ///< MsgHeader operand (gather/enqueue/copy_out); for
                    ///< release_chains: the walk cursor (next unfreed msg)
  std::uint32_t chain_count;      ///< blocks in [chain_head, chain_tail]
  /// Slab extent in hand during a slab send (set inside the slab pop's
  /// critical section, cleared by journal_clear with the rest of the
  /// gather/enqueue operands).
  shm::Offset slab;

  /// Refill batch popped from the home shard but not yet inserted into the
  /// magazine (the gather phase-2 handoff window).  Journaled separately
  /// from the gather chain because both are in flight at once.
  shm::Offset refill_head;
  shm::Offset refill_tail;
  std::uint32_t refill_count;
  shm::Offset refill_msgs;        ///< header refill chain (linked head words)
  std::uint32_t refill_msg_count;

  /// Nested free_message record.  fm_stage is its commit point: 0 = off,
  /// 1 = armed with blocks not yet pushed, 2 = armed with blocks disposed
  /// (header still pending).  Armed/advanced only inside the critical
  /// section that performs the corresponding push: returning blocks to
  /// the shards advances (fm_head, fm_count) past them, and landing the
  /// header clears fm_msg.
  std::atomic<std::uint32_t> fm_stage;
  shm::Offset fm_msg;   ///< the header being freed
  shm::Offset fm_head;  ///< its block chain (valid while fm_stage == 1)
  shm::Offset fm_tail;
  std::uint32_t fm_count;
  std::uint32_t fm_slab;  ///< 1: fm_head is a slab extent, not a chain

  /// Zero-copy receive views held by this process (independent of the
  /// primary journal record above).
  ViewSlot views[kMaxViews];
  /// Monotonic arm counter feeding ViewSlot::seq / MsgView::seq.  Atomic
  /// because threads sharing one ProcessId may arm concurrently; starts at
  /// 0 so a default-constructed handle (seq 0) never matches an armed slot
  /// (first arm is 1).
  std::atomic<std::uint32_t> view_seq;

  /// Monitor membership flag: set while this process is counted in
  /// exhaustion_waiters, so reap() can repair the counter a death would
  /// leak.
  std::atomic<std::uint32_t> in_exhaustion;

  /// Quota-reservation journal: a send's admission charge between the
  /// moment it lands on the LnvcDesc ledger and the moment the enqueued
  /// message takes ownership of it (enqueue stage 1).  Armed under the
  /// LNVC lock — operands first, q_active last (release); a reaper refunds
  /// an armed charge unless the enqueue journal committed the message into
  /// the FIFO (then the charge belongs to the message and is only
  /// unmarked).
  std::atomic<std::uint32_t> q_active;
  std::uint32_t q_lnvc;
  std::uint32_t q_gen;
  std::uint32_t q_blocks;
  std::uint32_t q_slabs;

  /// Parked-sender membership: set (under the LNVC lock) while this
  /// process holds a ticket in the circuit's park FIFO.  Clearing it (by
  /// the owner or by reap()) removes the ticket from head-by-scan
  /// contention, so a dead member silently promotes its successor.  The
  /// operands are atomic because a head scan holds only its own circuit's
  /// lock: it may read them while this process re-parks on another one.
  std::atomic<std::uint32_t> park_active;
  std::atomic<std::uint32_t> park_lnvc;
  std::atomic<std::uint32_t> park_gen;
  std::atomic<std::uint64_t> park_ticket;

  /// Parked-receiver membership (lockfree_fcfs FCFS claim): counterpart of
  /// the park_* sender fields above, but scanned lock-free by fast-path
  /// senders picking a wake target, so every field is atomic.  The
  /// operands are written (relaxed) while rpark_active == 0 and published
  /// by its seq_cst store of 1; scanners load rpark_active first.
  std::atomic<std::uint32_t> rpark_active;
  std::atomic<std::uint32_t> rpark_lnvc;
  std::atomic<std::uint32_t> rpark_gen;
  std::atomic<std::uint64_t> rpark_ticket;
  /// This process's one-claimant wait cell: every park of this process
  /// (blocked lock-free FCFS receivers, receive_any, pollset_wait) sleeps
  /// here, and wakers bump it via Platform::unpark.
  sync::WaitNode park_node;

  /// Fast-push crash protocol.  inject_seq is the sender-private stamp
  /// source (single writer: this process).  inject_drained is the highest
  /// stamp of this sender's pushes that any lock holder has drained from
  /// an injection stack into a FIFO (CAS-max, advanced under that
  /// circuit's lock).  The journal holds at most one in-flight send, and
  /// the armed stamp is always the sender's newest, so
  /// inject_drained >= j_inject_stamp proves the journaled push was
  /// published (and already drained) — nothing to roll back.
  std::uint64_t inject_seq;
  std::atomic<std::uint64_t> inject_drained;
  /// Stamp of the in-flight fast push (enqueue journal stage 2 operand;
  /// written before the stage store).
  std::uint64_t j_inject_stamp;

  /// Sender fast-path validation cache: the circuit (lnvc_id + 1; 0 =
  /// empty) and the fast_state word a fully locked send last validated.
  /// A later send may push lock-free iff the circuit's current fast_state
  /// still equals fast_seen (see LnvcDesc::fast_state).
  std::uint32_t fast_lnvc;
  std::uint32_t fast_gen;
  std::uint64_t fast_seen;

  /// Reap sweep of this (dead) process in progress: the sweeping reaper's
  /// pid + 1, cleared when the sweep completes, and whether its journal
  /// is already resolved.  A reaper that dies part-way is itself reaped,
  /// and that reap resumes the sweeps it left unfinished.
  std::atomic<std::uint32_t> swept_by;
  std::uint32_t journal_resolved;
};

/// Root object of an MPF facility, at a fixed offset in the arena.
struct FacilityHeader {
  std::uint32_t magic;
  std::uint32_t max_lnvcs;
  std::uint32_t max_processes;
  std::uint32_t block_payload;
  std::uint32_t block_policy;
  std::uint32_t reclaim_broadcast_only;

  /// Number of pool shards (power of two) and the matching index mask.
  std::uint32_t n_shards;
  std::uint32_t shard_mask;
  /// NUMA topology: numa_nodes (power of two, divides n_shards) and its
  /// mask.  Shard i belongs to node i & node_mask; process pid starts on
  /// node pid & node_mask.  1/0 = flat (pre-NUMA) behaviour.
  std::uint32_t numa_nodes;
  std::uint32_t node_mask;
  /// Pop policy (Config::numa_prefer_receiver): 1 = place blocks on the
  /// receiver's node, 0 = node-blind sender-local.
  std::uint32_t numa_prefer_receiver;

  /// Serializes whole-table maintenance (audits, counts).  The name
  /// lookup + slot (de)alloc hot paths it used to guard moved to the
  /// per-bucket directory locks and the descriptor freelist below.
  sync::SpinLock registry_lock;
  /// Sharded name directory: DirBucket[dir_n_buckets], bucket =
  /// fnv1a(name) & dir_mask (dir_n_buckets is a power of two).
  shm::Offset dir;
  std::uint32_t dir_n_buckets;
  std::uint32_t dir_mask;
  /// Descriptor freelist (LnvcDesc::free_next chain).  lnvc_free_lock is a
  /// leaf lock: it is only ever taken last, never holds while acquiring
  /// another.
  sync::SpinLock lnvc_free_lock;
  std::uint32_t lnvc_free_head;  ///< slot index + 1; 0 = exhausted
  std::uint32_t pad_dir_;
  /// Ready sets: PollSet[max_pollsets] and the per-process receive_any
  /// sets ReadySet[max_processes], each with its own bitmap carve.
  shm::Offset pollsets;
  shm::Offset any_sets;
  std::uint32_t max_pollsets;
  std::uint32_t ready_words;    ///< ceil(max_lnvcs / 64)
  std::uint32_t summary_words;  ///< ceil(ready_words / 64)
  std::uint32_t pad_sets_;
  /// Monitor mutex for true pool exhaustion: a sender that found every
  /// shard and every magazine dry registers under this lock and sleeps on
  /// blocks_cond; frees ripple it only while exhaustion_waiters > 0.
  sync::SpinLock blocks_lock;
  sync::EventCount blocks_cond;
  std::atomic<std::uint32_t> exhaustion_waiters;
  std::atomic<std::uint64_t> exhaustion_waits;  ///< lifetime stat

  shm::FreeList conn_list;  ///< Connection nodes (global; open/close only)

  /// Contiguous-slab pools for large messages (Config::slab_threshold),
  /// one sub-pool per NUMA node (slab_pools below).  Slab sends are rare
  /// enough (>= threshold bytes) that one lock per node does not crowd.
  std::uint64_t slab_threshold;  ///< 0 = slab path disabled
  std::uint64_t slab_bytes;      ///< capacity of one extent
  std::uint64_t slabs_total;     ///< extents carved across all sub-pools

  shm::Offset shards;      ///< PoolShard[n_shards]
  shm::Offset caches;      ///< ProcCache[max_processes]
  shm::Offset lnvc_table;  ///< LnvcDesc[max_lnvcs]
  shm::Offset procs;       ///< ProcSlot[max_processes]
  shm::Offset slab_pools;  ///< SlabPool[numa_nodes]
  shm::Offset node_stats;  ///< NodeStats[numa_nodes]

  std::uint64_t blocks_total;  ///< blocks carved across all shards
  std::uint64_t msgs_total;    ///< message headers carved across all shards

  /// Failure-suspicion threshold (Config::suspicion_ns, shared so every
  /// attacher uses the creator's value).
  std::uint64_t suspicion_ns;

  std::atomic<std::uint64_t> sends;
  std::atomic<std::uint64_t> receives;
  std::atomic<std::uint64_t> bytes_sent;
  std::atomic<std::uint64_t> bytes_delivered;

  // Transport-seam observability (views + slab path).
  std::atomic<std::uint64_t> views;           ///< receive_view deliveries
  std::atomic<std::uint64_t> view_bytes;      ///< bytes delivered by view
  std::atomic<std::uint64_t> slab_sends;      ///< messages sent as slabs
  std::atomic<std::uint64_t> slab_fallbacks;  ///< slab pool dry -> chain

  // Recovery observability (FacilityStats / mpf_inspect).
  std::atomic<std::uint64_t> suspicions;        ///< liveness probes fired
  std::atomic<std::uint64_t> seizures;          ///< locks taken from the dead
  std::atomic<std::uint64_t> false_suspicions;  ///< probe said "still alive"
  std::atomic<std::uint64_t> reaps;             ///< reap() sweeps completed
  std::atomic<std::uint64_t> reaped_connections;
  std::atomic<std::uint64_t> reclaimed_blocks;  ///< blocks recovered by reap
  std::atomic<std::uint64_t> peer_failures;     ///< ops ended peer_failed
  std::atomic<std::uint64_t> orphaned_receives;  ///< ops ended lnvc_orphaned

  /// Admission-control defaults (Config::lnvc_quota_*): copied into every
  /// freshly opened LnvcDesc; 0 = unlimited.  Shared here so attachers see
  /// the creator's values.
  std::uint32_t lnvc_quota_blocks;
  std::uint32_t lnvc_quota_slabs;
  std::uint32_t admission_policy;  ///< AdmissionPolicy default

  // Admission-control observability (FacilityStats / mpf_inspect --quotas).
  std::atomic<std::uint64_t> sends_rejected;   ///< fail_fast refusals
  std::atomic<std::uint64_t> sends_shed;       ///< shed_newest drops
  std::atomic<std::uint64_t> sends_timed_out;  ///< send deadlines expired
  std::atomic<std::uint64_t> quota_parks;      ///< senders that ever parked

  /// Lock-free FCFS + parking seam (Config::lockfree_fcfs / park_spin_ns,
  /// shared here so every attacher uses the creator's values).
  std::uint32_t lockfree_fcfs;
  std::uint32_t pad_lockfree_;
  std::uint64_t park_spin_ns;

  // Parking observability (FacilityStats / mpf_inspect --parked).
  std::atomic<std::uint64_t> parks;           ///< times a process parked
  std::atomic<std::uint64_t> wakes;           ///< unparks issued to waiters
  std::atomic<std::uint64_t> spurious_wakes;  ///< woken parks that found nothing
  std::atomic<std::uint64_t> lockfree_fast_sends;  ///< sends via CAS push
  /// Circuits revalidated under their descriptor lock by receive_any /
  /// pollset_wait (arming sweeps plus popped ready entries).
  std::atomic<std::uint64_t> any_rescans;

  // Directory / pollset / pulse observability (FacilityStats /
  // mpf_inspect --names).
  std::atomic<std::uint64_t> dir_lookups;     ///< directory name probes
  std::atomic<std::uint64_t> dir_collisions;  ///< extra chain nodes walked
  std::atomic<std::uint64_t> pollset_wakes;   ///< poll-set watches fired
  std::atomic<std::uint64_t> pulses_sent;     ///< send_pulse successes
  std::atomic<std::uint64_t> pulses_coalesced;  ///< merged into pending code
};

}  // namespace mpf::detail
