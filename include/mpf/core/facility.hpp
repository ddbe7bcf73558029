// The MPF facility: the paper's eight primitives over a shared arena.
//
//   init            -> Facility::create / Facility::attach
//   open_send       -> Facility::open_send
//   open_receive    -> Facility::open_receive
//   close_send      -> Facility::close_send
//   close_receive   -> Facility::close_receive
//   message_send    -> Facility::send
//   message_receive -> Facility::receive
//   check_receive   -> Facility::check
//
// All operations are status-returning and safe to call concurrently from
// any number of threads or fork()ed processes mapping the same region.
// The RAII layer in ports.hpp and the literal C API in mpf/compat/mpf.h
// are thin wrappers over this class.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mpf/core/config.hpp"
#include "mpf/core/errors.hpp"
#include "mpf/core/layout.hpp"
#include "mpf/core/platform.hpp"
#include "mpf/core/types.hpp"
#include "mpf/shm/arena.hpp"
#include "mpf/shm/region.hpp"

namespace mpf {

/// Snapshot of one live LNVC (introspection; see Facility::lnvc_info).
struct LnvcInfo {
  LnvcId id = kInvalidLnvc;
  std::string name;
  std::uint32_t senders = 0;
  std::uint32_t fcfs_receivers = 0;
  std::uint32_t broadcast_receivers = 0;
  std::uint32_t queued = 0;  ///< messages not yet FCFS-consumed
  std::uint32_t pinned = 0;  ///< receiver pins (copy-outs + held views)
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  // Admission-control ledger (0 quota = unlimited).
  std::uint32_t quota_blocks = 0;
  std::uint32_t quota_slabs = 0;
  std::uint32_t used_blocks = 0;  ///< blocks charged to queued messages
  std::uint32_t used_slabs = 0;
  std::uint32_t hw_blocks = 0;  ///< lifetime high-water of used_blocks
  std::uint32_t hw_slabs = 0;
  AdmissionPolicy policy = AdmissionPolicy::block;
  std::uint32_t parked = 0;  ///< senders currently in the park FIFO
  /// Receivers currently parked on this circuit's lock-free claim path.
  std::uint32_t parked_receivers = 0;
};

/// One row of the mpf_inspect --parked report: a process currently parked
/// (a quota-blocked sender in the circuit's park FIFO, or an FCFS receiver
/// sleeping on its WaitNode) with its wait-node state.
struct ParkedInfo {
  ProcessId pid = 0;
  LnvcId id = kInvalidLnvc;      ///< circuit it is parked on
  bool receiver = false;         ///< false: quota-parked sender
  std::uint64_t ticket = 0;      ///< FIFO ticket (head = smallest live)
  std::uint32_t node_epoch = 0;  ///< the process's WaitNode epoch
  bool alive = true;             ///< liveness verdict at snapshot time
};

/// A zero-copy receive: the message stays pinned in the arena and the
/// receiver reads it through `spans` (one span per block, or a single span
/// for slab messages).  Spans are arena-relative (shm::Ref), so the record
/// is valid in every process that maps the region — including fork'd or
/// attached receivers whose mapping landed at a different base address.
/// Turn spans into pointers against the local mapping with
/// Facility::resolve / Facility::materialize; the pointers are
/// per-mapping and must never cross a process boundary.  Must be returned
/// with Facility::release_view — blocks are not reclaimed while a view
/// holds them.  If the holder dies, reap() releases the pin from the view
/// table.
struct MsgView {
  std::size_t length = 0;             ///< total payload bytes
  std::vector<ViewSpan> spans;        ///< offset fragments, in payload order
  LnvcId id = kInvalidLnvc;           ///< LNVC it was claimed from
  std::uint32_t generation = 0;       ///< slot generation at claim time
  shm::Offset msg = shm::kNullOffset; ///< pinned MsgHeader (opaque)
  std::uint32_t seq = 0;              ///< view-table arm sequence (opaque)
  bool bcast = false;                 ///< claimed via a BROADCAST cursor
  bool slab = false;                  ///< payload is one contiguous extent
  int slot = -1;                      ///< view-table index (opaque)
  [[nodiscard]] bool valid() const noexcept { return slot >= 0; }
};

/// Aggregate runtime statistics (lifetime of the facility).
struct FacilityStats {
  std::uint64_t sends = 0;
  std::uint64_t receives = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  std::size_t blocks_free = 0;  ///< shards + magazines combined
  std::size_t blocks_total = 0;
  std::size_t arena_used = 0;
  // Sharded-allocator counters (see DESIGN.md §7).
  std::uint32_t pool_shards = 0;
  std::size_t blocks_cached = 0;  ///< currently parked in magazines
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_flushes = 0;
  std::uint64_t cache_raids = 0;
  std::uint64_t shard_lock_acquisitions = 0;
  std::uint64_t shard_lock_wait_ns = 0;  ///< allocator-path lock wait
  std::uint64_t shard_steals = 0;
  std::uint64_t exhaustion_waits = 0;
  // Failure-recovery counters (see DESIGN.md §8).
  std::uint64_t suspicions = 0;        ///< liveness probes fired by waiters
  std::uint64_t seizures = 0;          ///< locks seized from dead holders
  std::uint64_t false_suspicions = 0;  ///< probes that found the holder alive
  std::uint64_t reaps = 0;             ///< recovery sweeps completed
  std::uint64_t reaped_connections = 0;
  std::uint64_t reclaimed_blocks = 0;  ///< blocks recovered from dead procs
  std::uint64_t peer_failures = 0;     ///< blocked ops ended peer_failed
  std::uint64_t orphaned_receives = 0;
  // Transport-seam counters (see DESIGN.md §9).
  std::uint64_t views = 0;            ///< zero-copy view deliveries
  std::uint64_t view_bytes = 0;       ///< bytes delivered without copy-out
  std::uint64_t slab_sends = 0;       ///< messages sent as one slab extent
  std::uint64_t slab_fallbacks = 0;   ///< slab pool dry, fell back to chain
  std::size_t slabs_free = 0;
  std::size_t slabs_total = 0;
  // NUMA placement counters (see DESIGN.md §10); pops are counted against
  // the *target* node of the allocation.
  std::uint32_t numa_nodes = 1;
  std::uint64_t numa_local_pops = 0;   ///< served from the target node
  std::uint64_t numa_remote_pops = 0;  ///< target node dry, served remote
  std::uint64_t numa_node_steals = 0;  ///< remote pops on the steal path
  // Admission-control counters (see DESIGN.md §11).
  std::uint64_t sends_rejected = 0;   ///< fail_fast quota refusals
  std::uint64_t sends_shed = 0;       ///< shed_newest drops
  std::uint64_t sends_timed_out = 0;  ///< send deadlines that expired
  std::uint64_t quota_parks = 0;      ///< senders that parked on a quota
  // Lock-free FCFS + parking counters (see DESIGN.md §12).
  std::uint64_t parks = 0;           ///< times a process parked on its node
  std::uint64_t wakes = 0;           ///< unparks issued (one claimant each)
  std::uint64_t spurious_wakes = 0;  ///< woken parks that claimed nothing
  std::uint64_t lockfree_fast_sends = 0;  ///< sends that took the CAS path
  /// Circuits receive_any / pollset_wait revalidated under their lock
  /// (arming sweeps plus popped ready marks; idle circuits cost nothing).
  std::uint64_t any_rescans = 0;
  // Name-directory / pollset / pulse counters (see DESIGN.md §14).
  std::uint64_t dir_lookups = 0;     ///< directory name probes
  std::uint64_t dir_collisions = 0;  ///< extra chain nodes walked on probes
  std::uint64_t pollset_wakes = 0;   ///< poll-set watches fired
  std::uint64_t pulses_sent = 0;     ///< send_pulse successes
  std::uint64_t pulses_coalesced = 0;  ///< pulses merged into a pending code
};

/// Snapshot of the sharded name directory (mpf_inspect --names).
struct DirectoryInfo {
  std::uint32_t buckets = 0;      ///< configured bucket count
  std::uint32_t live_names = 0;   ///< descriptors currently chained
  std::uint32_t max_chain = 0;    ///< longest bucket chain
  std::uint32_t free_slots = 0;   ///< descriptors on the freelist
  std::uint64_t lock_seizures = 0;  ///< bucket locks taken from the dead
  /// chain_histogram[n] = buckets holding exactly n names (last entry:
  /// >= histogram size - 1).
  std::vector<std::uint32_t> chain_histogram;
  /// Per-bucket seizure counts for buckets with at least one seizure.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> seized_buckets;
};

/// Snapshot of one NUMA node's sub-pools (mpf_inspect --nodes).
struct NodePoolInfo {
  std::uint32_t node = 0;
  std::uint32_t shards = 0;        ///< pool shards homed on this node
  std::size_t free_blocks = 0;     ///< across this node's shards
  std::size_t block_capacity = 0;
  std::size_t free_slabs = 0;
  std::size_t slab_capacity = 0;
  std::uint64_t local_pops = 0;
  std::uint64_t remote_pops = 0;
  std::uint64_t steals = 0;
};

/// Snapshot of one pool shard (allocator introspection).
struct PoolShardInfo {
  std::uint32_t index = 0;
  std::size_t free_blocks = 0;
  std::size_t block_capacity = 0;
  /// Fragmentation of the free blocks: maximal address-contiguous runs,
  /// and the length of the longest (1 run = fully coalesced).
  std::size_t free_runs = 0;
  std::size_t largest_free_run = 0;
  std::size_t free_msgs = 0;
  /// Block geometry: bytes per link node, payload bytes per block, and
  /// the arena range [payload_lo, payload_hi) of the payload array.
  std::size_t link_stride = 0;
  std::size_t payload_bytes = 0;
  shm::Offset payload_lo = 0;
  shm::Offset payload_hi = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_wait_ns = 0;
  std::uint64_t steals = 0;
  std::uint64_t refills = 0;
  std::uint64_t flushes = 0;
};

/// Snapshot of one process's allocator magazine.
struct ProcCacheInfo {
  ProcessId pid = 0;
  std::uint32_t blocks = 0;
  std::uint32_t block_cap = 0;
  std::uint32_t msgs = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t flushes = 0;
  std::uint64_t raids = 0;
};

/// Where every block in the pool currently is.  `consistent()` is the
/// conservation invariant the chaos suite checks after every injected kill:
/// no block is lost and none is doubly owned.
struct BlockAudit {
  std::size_t blocks_total = 0;
  std::size_t blocks_free = 0;      ///< in shard free lists
  std::size_t blocks_cached = 0;    ///< in per-process magazines
  std::size_t blocks_queued = 0;    ///< in messages linked into LNVC FIFOs
  std::size_t blocks_journaled = 0;  ///< in dead/live processes' intent logs
  /// Slab extents obey the same conservation law as blocks.
  std::size_t slabs_total = 0;
  std::size_t slabs_free = 0;
  std::size_t slabs_queued = 0;     ///< slab messages linked into FIFOs
  std::size_t slabs_journaled = 0;  ///< in intent logs / detached views
  [[nodiscard]] bool consistent() const noexcept {
    return blocks_free + blocks_cached + blocks_queued + blocks_journaled ==
               blocks_total &&
           slabs_free + slabs_queued + slabs_journaled == slabs_total;
  }
  /// Blocks in flight in live processes (gathered but not yet enqueued, or
  /// being copied out).  Derived, may be 0 when the facility is quiescent.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    const std::size_t parked = blocks_free + blocks_cached + blocks_queued;
    return blocks_total > parked ? blocks_total - parked : 0;
  }
};

/// One row of the mpf_inspect --orphans report: state attributable to a
/// process that is (or may be) gone.
struct OrphanInfo {
  ProcessId pid = 0;
  std::uint32_t os_pid = 0;
  std::uint32_t node = 0;         ///< NUMA home node (0 with one node)
  std::uint32_t state = 0;        ///< detail::ProcSlot::k* value
  bool os_alive = true;           ///< kill(os_pid, 0) / platform verdict
  std::uint32_t connections = 0;  ///< open connections held facility-wide
  std::uint32_t magazine_blocks = 0;
  std::uint32_t journal_op = 0;  ///< detail::JournalOp in the intent log
  std::uint32_t views = 0;       ///< active zero-copy views held
};

namespace detail {
/// Process-private receive_any cache of one pid: the list its last arming
/// pass covered, a slot -> entry table sized by that list, and the
/// ReadySet::epoch of that pass.  While list and epoch match, every listed
/// circuit is known watched.
struct AnyMemo {
  struct Entry {
    std::uint32_t slot1 = 0;  ///< descriptor slot + 1; 0 = empty entry
    std::uint32_t index = 0;  ///< first position of the slot in `ids`
    /// Idle with its last sender dead when last revalidated.  Kept across
    /// calls: an orphaned circuit is never fired again, so this verdict is
    /// the only memory of it.
    bool orphaned = false;
  };
  std::vector<LnvcId> ids;
  std::vector<Entry> table;  ///< open-addressed, power-of-two size
  std::uint32_t distinct = 0;  ///< distinct slots listed
  std::uint32_t orphaned = 0;  ///< entries with `orphaned` set
  std::uint64_t epoch = ~std::uint64_t{0};
};
}  // namespace detail

/// Cheap per-process handle to a facility living in a shared region.  Copy
/// freely; all shared state is in the region (copies share one
/// process-private receive_any cache, which the region validates).
class Facility {
 public:
  /// Format `region` as a fresh facility (the paper's init()).  The region
  /// must hold at least config.derived_arena_bytes().
  static Facility create(const Config& config, shm::Region& region,
                         Platform& platform = native_platform());
  /// Attach to a facility another process created in `region`.
  static Facility attach(shm::Region& region,
                         Platform& platform = native_platform());

  Facility() = default;

  // --- connection management -------------------------------------------
  /// Establish a send connection for `pid` on the LNVC named `name`,
  /// creating the LNVC if needed; returns its internal id through `out`.
  Status open_send(ProcessId pid, std::string_view name, LnvcId* out);
  /// Establish a receive connection with the given protocol.
  Status open_receive(ProcessId pid, std::string_view name, Protocol protocol,
                      LnvcId* out);
  /// Remove a send connection; deletes the LNVC (discarding unread
  /// messages) if this was the last connection of any kind.
  Status close_send(ProcessId pid, LnvcId id);
  /// Remove a receive connection; same last-connection semantics.
  Status close_receive(ProcessId pid, LnvcId id);

  // --- message transfer ---------------------------------------------------
  // One call per transfer, one wait contract (platform.hpp): every call
  // that can wait takes a trailing `timeout_ns` — kNoTimeout (the default)
  // waits forever, 0 polls (delivers what is ready now, else
  // Status::timed_out, never sleeping), anything else gives up with
  // Status::timed_out once that much time passed (virtual time under the
  // simulator).  The timeout becomes an absolute deadline once, on entry.
  // A receive of either kind on an idle circuit whose last sender died
  // reports Status::lnvc_orphaned rather than waiting or timing out — a
  // poll included (it used to report "nothing ready" there).

  /// Wait-forever timeout (the default of every timed call).
  static constexpr std::uint64_t kNoTimeout = mpf::kNoTimeout;

  /// Send `len` bytes from `data` (paper: message_send).  Asynchronous: it
  /// waits only while admission control parks it (quota,
  /// AdmissionPolicy::block) or the pool is exhausted (BlockPolicy::wait),
  /// and the timeout bounds those waits; a send that never waits is
  /// unaffected by it.
  Status send(ProcessId pid, LnvcId id, const void* data, std::size_t len,
              std::uint64_t timeout_ns = kNoTimeout);
  /// Scatter-gather send: the spans in `iov` are concatenated into one
  /// message (same semantics as send of the concatenation).
  Status send_v(ProcessId pid, LnvcId id, std::span<const ConstBuffer> iov,
                std::uint64_t timeout_ns = kNoTimeout);
  /// Receive into `buf` (capacity `cap`); the delivered length is written
  /// to `*out_len`.  Returns Status::truncated (after copying the prefix)
  /// when the message exceeds `cap`.
  Status receive(ProcessId pid, LnvcId id, void* buf, std::size_t cap,
                 std::size_t* out_len, std::uint64_t timeout_ns = kNoTimeout);
  /// Zero-copy receive: claim the next message exactly as receive() would,
  /// but pin it in place and return arena-relative spans instead of
  /// copying out.  The message (and its blocks) stays unreclaimable until
  /// release_view().  At most detail::kMaxViews views may be held per
  /// process (Status::table_full beyond that, consuming nothing).  Spans
  /// are offsets: valid in any process mapping the region at any base
  /// address — materialize them with resolve() / materialize() against
  /// the local mapping before dereferencing.
  Status receive_view(ProcessId pid, LnvcId id, MsgView* out,
                      std::uint64_t timeout_ns = kNoTimeout);
  /// Unpin a view taken by receive_view.  Safe after close_receive and
  /// after the LNVC died: a detached message is freed by its last pinner.
  /// A stale handle (double release, or released after the slot was
  /// re-armed) is a clean Status::invalid_argument.
  Status release_view(ProcessId pid, MsgView* view);
  /// Materialize one offset span against this process's mapping.
  [[nodiscard]] ConstBuffer resolve(const ViewSpan& span) const noexcept;
  /// Materialize every span of `view` against this process's mapping.
  /// Re-derive after crossing a process boundary; never ship the result.
  [[nodiscard]] std::vector<ConstBuffer> materialize(
      const MsgView& view) const;
  /// Copy a view's payload into `dst` (bounded by `cap`); returns bytes
  /// copied.  Resolves per fragment, so it is correct in any mapping.
  std::size_t copy_view(const MsgView& view, void* dst,
                        std::size_t cap) const;
  /// Paper's check_receive: *out=true if a message appears available.
  /// Advisory only for FCFS receivers (another receiver may win it).
  Status check(ProcessId pid, LnvcId id, bool* out);
  /// Receive from whichever of `ids` delivers first; the index of the
  /// winning LNVC within `ids` is written to *out_index.  `pid` must hold
  /// a receive connection on every listed LNVC.
  ///
  /// The first call over a list arms a watch on each listed connection
  /// (one descriptor lock each); later calls lock only circuits that a
  /// send, a close or an orphaning has fired since.  Fairness: ready
  /// circuits are served in rotation by descriptor slot from a per-process
  /// cursor that persists across calls and moves past each circuit that
  /// delivers, so no ready circuit waits more than one lap; a timeout does
  /// not move it.  One call per process at a time.  Status::lnvc_orphaned
  /// once every listed circuit lost its last sender to a failure and holds
  /// nothing deliverable.
  Status receive_any(ProcessId pid, std::span<const LnvcId> ids, void* buf,
                     std::size_t cap, std::size_t* out_len,
                     std::size_t* out_index,
                     std::uint64_t timeout_ns = kNoTimeout);

  // --- poll sets and pulses (DESIGN.md §14) -----------------------------
  /// Create an empty poll set owned by `pid`; its id is written to *out.
  /// A poll set is an epoll-like wait object: senders on member circuits
  /// fire its watch once per arming, marking the circuit in its ready
  /// bitmap, so a wait costs O(ready) however many circuits it holds.
  /// Destroyed explicitly or when the owner is reaped.
  Status pollset_create(ProcessId pid, PollSetId* out);
  /// Destroy a poll set: detaches every member and wakes any waiter
  /// (which returns Status::closed).  Any process may destroy.
  Status pollset_destroy(ProcessId pid, PollSetId ps);
  /// Add LNVC `id` to the poll set.  A circuit belongs to at most one
  /// poll set (Status::rejected otherwise); `pid` must own the set and
  /// hold a receive connection on it.  Membership is that connection:
  /// when the owner closes it (or the circuit is destroyed) the circuit
  /// silently leaves the set, pollset_wait stops reporting it, and another
  /// set may add it.  The circuit is primed ready, so a pollset_wait
  /// issued after add never misses messages that were already queued.
  Status pollset_add(ProcessId pid, PollSetId ps, LnvcId id);
  /// Remove LNVC `id` from the poll set (Status::not_connected if it is
  /// not a member).
  Status pollset_remove(ProcessId pid, PollSetId ps, LnvcId id);
  /// Wait for a member circuit to become ready; its id is written to
  /// *out.  Ready is judged for the owner's own receive connection: a
  /// queued FCFS message, a broadcast message the owner has not read yet,
  /// or a pending pulse.  Broadcast messages that only other receivers
  /// still have to read do not count.  Level-triggered: a circuit left
  /// undrained is returned again, in the same slot rotation as
  /// receive_any.  One waiter at a time (Status::busy otherwise).
  /// Same timeout contract as receive.
  Status pollset_wait(ProcessId pid, PollSetId ps, LnvcId* out,
                      std::uint64_t timeout_ns = kNoTimeout);
  /// Send a pulse: a tiny no-reply notification carrying just `code`.
  /// Pulses ride fixed per-circuit slots (no block allocation) and
  /// repeats of a pending code coalesce into its count; at most
  /// detail::kPulseSlots distinct codes may be pending
  /// (Status::table_full beyond that).  Wakes receivers and poll sets
  /// like a send.  `pid` must hold a send connection.
  Status send_pulse(ProcessId pid, LnvcId id, std::uint32_t code);
  /// Drain one pending pulse (lowest slot): its code and coalesced count.
  /// Non-blocking: *out_count = 0 when none are pending.  `pid` must hold
  /// a receive connection.
  Status receive_pulse(ProcessId pid, LnvcId id, std::uint32_t* out_code,
                       std::uint32_t* out_count);
  // --- failure detection and recovery ----------------------------------
  /// Record `pid`'s participation (OS pid natively).  Called implicitly by
  /// every operation; exposed so supervisors can pre-register.
  void register_process(ProcessId pid);
  /// Mark `pid` dead without reaping it yet.  Used by external failure
  /// detectors and tests; waiters suspecting `pid` reach the same state
  /// through their liveness probe.
  void declare_dead(ProcessId pid);
  /// Liveness verdict for `pid`: ProcSlot state, then the platform (sim
  /// kill ledger), then — for fork()ed participants — kill(os_pid, 0).
  [[nodiscard]] bool process_alive(ProcessId pid) const;
  /// Recovery sweep for a dead process: resolve its intent journal (roll
  /// the half-done operation forward or back), close its connections with
  /// the paper's last-connection semantics, return its magazine to the
  /// shards, drop its unread broadcast cursors, repair waiter counters,
  /// and wake blocked peers.  `reaper` is the process performing the sweep
  /// (it tags the locks it takes).  Status::invalid_argument if `pid` is
  /// out of range or still alive.
  Status reap(ProcessId reaper, ProcessId pid);
  /// Where every block is right now (chaos-suite conservation check).
  /// Quiescent-consistent: taken with per-structure locks, not a global
  /// freeze.
  [[nodiscard]] BlockAudit block_audit() const;
  /// Per-process orphan report (mpf_inspect --orphans): every registered
  /// slot with its liveness verdict and attributable state.
  [[nodiscard]] std::vector<OrphanInfo> orphan_infos() const;
  [[nodiscard]] std::uint64_t suspicion_ns() const noexcept;

  // --- introspection ------------------------------------------------------
  /// Messages queued (not yet FCFS-consumed) on the LNVC; 0 if dead.
  [[nodiscard]] std::size_t queued(LnvcId id) const;
  /// True if `name` currently names a live LNVC.
  [[nodiscard]] bool lnvc_exists(std::string_view name) const;
  /// Count of live LNVCs.
  [[nodiscard]] std::size_t lnvc_count() const;
  [[nodiscard]] FacilityStats stats() const;
  /// Sharded name-directory snapshot (mpf_inspect --names).
  [[nodiscard]] DirectoryInfo directory_info() const;
  /// Per-shard allocator state + contention counters.
  [[nodiscard]] std::vector<PoolShardInfo> pool_shard_infos() const;
  /// Per-process magazine state (entries with any activity or content).
  [[nodiscard]] std::vector<ProcCacheInfo> proc_cache_infos() const;
  [[nodiscard]] std::uint32_t pool_shards() const noexcept;
  /// Per-node sub-pool state + placement counters (mpf_inspect --nodes).
  [[nodiscard]] std::vector<NodePoolInfo> node_pool_infos() const;
  [[nodiscard]] std::uint32_t numa_nodes() const noexcept;
  [[nodiscard]] bool numa_prefer_receiver() const noexcept;
  /// Pin `pid` to `node` (masked into range), overriding the round-robin
  /// default.  Takes effect for subsequent placement decisions.
  void set_process_node(ProcessId pid, std::uint32_t node);
  /// Override one LNVC's admission settings (quota in blocks / slab
  /// extents, 0 = unlimited; policy for over-quota sends).  `pid` must
  /// hold a connection on the LNVC (else Status::not_connected).
  /// Applies to subsequent sends; the used counters are untouched.
  /// Switching away from AdmissionPolicy::block evicts parked senders,
  /// which resolve via the new policy's rejection path.
  Status set_admission(ProcessId pid, LnvcId id, std::uint32_t quota_blocks,
                       std::uint32_t quota_slabs, AdmissionPolicy policy);
  /// Every currently parked process (mpf_inspect --parked): quota-parked
  /// senders and lock-free-claim receivers, with wait-node state.
  [[nodiscard]] std::vector<ParkedInfo> parked_infos() const;
  /// Snapshots of every live LNVC (for tools/monitoring).
  [[nodiscard]] std::vector<LnvcInfo> lnvc_infos() const;
  /// Snapshot of one LNVC; Status::no_such_lnvc if the slot is dead.
  Status lnvc_info(LnvcId id, LnvcInfo* out) const;
  [[nodiscard]] std::uint32_t block_payload() const noexcept;
  [[nodiscard]] std::uint32_t max_processes() const noexcept;
  [[nodiscard]] std::uint32_t max_lnvcs() const noexcept;
  [[nodiscard]] Platform& platform() const noexcept { return *platform_; }
  [[nodiscard]] bool valid() const noexcept { return header_ != nullptr; }

  /// Switch the platform used by this handle (e.g. after attach).
  void set_platform(Platform& p) noexcept { platform_ = &p; }

 private:
  /// White-box invariant checker (invariants.hpp): the single sanctioned
  /// way for tests and tools to reach the raw arena structures.
  friend class InvariantOracle;

  Facility(shm::Arena arena, detail::FacilityHeader* header,
           Platform& platform)
      : arena_(arena),
        header_(header),
        platform_(&platform),
        any_memo_(std::make_shared<std::vector<detail::AnyMemo>>(
            header->max_processes)) {}

  // Implementation helpers (facility.cpp / lnvc.cpp / pool.cpp).
  detail::LnvcDesc* table() const noexcept;
  detail::LnvcDesc* slot(LnvcId id) const noexcept;

  // Sharded name directory + descriptor freelist (DESIGN.md §14).
  detail::DirBucket* dir() const noexcept;
  [[nodiscard]] static std::uint64_t name_hash(std::string_view name) noexcept;
  detail::DirBucket& bucket_of(std::uint64_t hash) const noexcept;
  /// Robust bucket lock tagged with `pid`; counts seizures on the bucket.
  ProcessId lock_bucket(detail::DirBucket& b, ProcessId pid);
  /// Find `name` in bucket `b` (bucket lock held); hash + length first,
  /// then one memcmp — the strnlen-per-probe of the old linear scan is
  /// gone (LnvcDesc::name_len is cached at create).
  detail::LnvcDesc* dir_find(detail::DirBucket& b, std::string_view name,
                             std::uint64_t hash) const noexcept;
  /// Link / unlink `d` in bucket `b` (bucket + descriptor locks held).
  /// Single-word chain edits: consistent at every store boundary.
  void dir_insert(detail::DirBucket& b, detail::LnvcDesc& d) noexcept;
  void dir_unlink(detail::DirBucket& b, detail::LnvcDesc& d) noexcept;
  /// Lock the bucket owning `d`'s name, then `d` itself, re-verifying the
  /// hash -> bucket mapping (slot recycling can move a descriptor to a
  /// different bucket between the racy hash read and the lock).  Merges
  /// any seized-from pid into *dead.
  detail::DirBucket& lock_bucket_of(detail::LnvcDesc& d, ProcessId pid,
                                    ProcessId* dead);
  /// O(1) descriptor-slot allocation.  pop claims a slot for `pid`
  /// (free_state kClaimed) and rebuilds from dead claimants' leaks on
  /// exhaustion; push returns a retired slot.  Leaf lock discipline.
  detail::LnvcDesc* free_pop(ProcessId pid, ProcessId* dead);
  void free_push(ProcessId pid, detail::LnvcDesc& d);

  // Ready sets, watches, poll sets and pulses (pollset.cpp; DESIGN.md
  // §14).  watch_* and conn_ready need the descriptor lock held.
  detail::PollSet* pollset_table() const noexcept;
  detail::ReadySet& any_set(ProcessId pid) const noexcept;  ///< receive_any's
  detail::ReadyBits ready_bits(const detail::ReadySet& rs) const noexcept;
  /// Take the next ready slot at or after `from`, wrapping; false if none.
  bool pop_ready(const detail::ReadyBits& b, std::uint32_t from,
                 std::uint32_t* slot) const noexcept;
  void reset_ready_set(detail::ReadySet& rs) const noexcept;
  /// Can `c` receive now (`pulses`: pending pulses count)?  Drains first.
  bool conn_ready(detail::LnvcDesc& d, const detail::Connection& c,
                  bool pulses);
  /// Fire the `mask` watches armed on `c`: mark, wake the waiters, disarm.
  void watch_fire(detail::LnvcDesc& d, detail::Connection& c,
                  std::uint32_t mask);
  void watch_fire_all(detail::LnvcDesc& d, std::uint32_t mask);
  /// Arm `bit` on `c` (idempotent), then recheck for a lock-free push that
  /// missed the arming: true = ready after all, left disarmed.
  bool watch_arm(detail::LnvcDesc& d, detail::Connection& c,
                 std::uint32_t bit, bool pulses);
  void watch_disarm(detail::LnvcDesc& d, detail::Connection& c,
                    std::uint32_t bits);
  /// Park until a fire marks `b` or `deadline` passes; each park is capped
  /// at suspicion_ns, then dead holders of watched locks are seized.
  void park_on_set(ProcessId pid, const detail::ReadyBits& b,
                   std::uint64_t deadline);
  /// Destroy `ps` with its lock already held (shared by pollset_destroy
  /// and the reap sweep); unlocks before returning.
  void pollset_destroy_locked(ProcessId pid, detail::PollSet& ps);
  Status open_common(ProcessId pid, std::string_view name, std::uint32_t kind,
                     LnvcId* out);
  Status close_common(ProcessId pid, LnvcId id, bool sender);
  void destroy_lnvc(ProcessId pid, detail::LnvcDesc& d);
  void free_message(ProcessId pid, detail::MsgHeader* m);
  void reclaim(ProcessId pid, detail::LnvcDesc& d);

  // Sharded block-pool allocator (pool.cpp).
  detail::PoolShard* shards() const noexcept;
  detail::ProcCache* caches() const noexcept;
  detail::SlabPool* slab_pools() const noexcept;
  detail::NodeStats* node_stats() const noexcept;
  [[nodiscard]] std::uint32_t home_shard(ProcessId pid) const noexcept;
  /// Memory node a block/extent offset was carved on (scan of the
  /// recorded shard + slab sub-pool ranges; 0 when not found or flat).
  [[nodiscard]] std::uint32_t node_of_offset(shm::Offset off) const noexcept;
  /// Shard whose block range holds `block` (0 when none does).
  [[nodiscard]] std::uint32_t owner_shard(shm::Offset block) const noexcept;
  /// Walk the first `bytes` payload bytes of the block chain at `head` run
  /// by run across the shards' ranges: fn(payload offset, byte count).
  template <class Fn>
  void for_each_run(shm::Offset head, std::size_t bytes, Fn&& fn) const;
  /// Copy the gather list `iov` (`len` bytes in all) into the chain.
  void copy_to_chain(shm::Offset chain, std::span<const ConstBuffer> iov,
                     std::size_t len) const;
  void lock_shard(detail::PoolShard& s, ProcessId pid);
  /// Pop a message header plus a `need`-block chain for `pid`, preferring
  /// its magazine, then the target node's shards (pid's home shard with
  /// the node bits swapped to `target_node`), then stealing from other
  /// shards (target-node shards first) and raiding peer magazines.
  /// Honors BlockPolicy on true exhaustion.
  Status alloc_message(ProcessId pid, std::size_t need,
                       std::uint32_t target_node, shm::Offset* msg_off,
                       shm::Offset* chain_head, shm::Offset* chain_tail,
                       std::uint64_t deadline_ns = kNoDeadline);
  /// One full acquisition sweep (magazine -> target shard -> steal ->
  /// raid); extends the partial (msg, chain) in place, true when fully
  /// satisfied.
  bool try_gather(ProcessId pid, std::size_t need, std::uint32_t target_node,
                  shm::Offset& msg, detail::GatherChain& chain);
  /// Give a partial gather back to the pools (starvation paths).
  void return_gather(ProcessId pid, shm::Offset& msg,
                     detail::GatherChain& chain);
  /// The one block-free path, flat and NUMA alike: return the `count`-block
  /// chain at `head` stretch by stretch to the shards whose ranges hold
  /// it, and header `msg` (when set) with the last stretch, or to shard
  /// `home` when there are no blocks.  The arguments are the journal
  /// operands that cover the nodes: each critical section advances them
  /// past what it returned, so at every suspension point they name
  /// exactly the nodes still in hand.  A reaper (`reaping`) takes no
  /// shard lock: the pools' own locks order its pushes, and a sweep gains
  /// no suspension point at which the reaper itself could die.
  void free_chain(ProcessId pid, std::uint32_t home, shm::Offset& head,
                  std::uint32_t& count, shm::Offset& msg,
                  bool reaping = false);
  // The receive family below takes the absolute deadline its public entry
  // derived (0 = poll, kNoDeadline = forever); the entry has already
  // charged the fixed receive path.
  Status receive_impl(ProcessId pid, LnvcId id, void* buf, std::size_t cap,
                      std::size_t* out_len, std::uint64_t deadline_ns);
  /// Shared claim step of receive_impl / receive_view_impl: wait until a
  /// message is deliverable to `pid` on `id` or `deadline_ns` passes,
  /// claim it (FCFS consume or broadcast-cursor advance), and return ok
  /// with the LNVC lock HELD and *out_m set.  Errors (timed_out included):
  /// lock released.
  Status claim_message(ProcessId pid, LnvcId id, std::uint64_t deadline_ns,
                       detail::LnvcDesc** out_d, detail::MsgHeader** out_m,
                       bool* out_bcast, std::uint32_t* out_gen);
  Status receive_view_impl(ProcessId pid, LnvcId id, MsgView* out,
                           std::uint64_t deadline_ns);
  /// Build the send-side message (slab or chain) and enqueue it; shared by
  /// send / send_v.  `deadline_ns` is absolute
  /// platform time (kNoDeadline = wait forever) bounding both the quota
  /// park and the pool-exhaustion wait.
  Status send_impl(ProcessId pid, LnvcId id,
                   std::span<const ConstBuffer> iov, std::size_t total,
                   std::uint64_t deadline_ns);
  /// Map a non-ok quota_admit outcome (descriptor lock held) to the send's
  /// result: drop the lock, pass the park baton, count it — a shed is the
  /// sender's ok, a fail-fast refusal is rejected.
  Status admission_refused(ProcessId pid, detail::LnvcDesc& d, Status admit);
  /// Admission check against `d`'s quota ledger, with the descriptor lock
  /// held.  Returns ok with the charge taken (and the quota journal
  /// armed), or rejected / timed_out / closed / peer_failed per policy and
  /// deadline; on non-ok the lock is still held and nothing is charged.
  /// Parks (FIFO) under AdmissionPolicy::block, waiting on d.park_cond.
  Status quota_admit(ProcessId pid, detail::LnvcDesc& d, LnvcId id,
                     std::uint32_t need_blocks, std::uint32_t need_slabs,
                     std::uint64_t deadline_ns);
  /// Release a queued message's quota charge (descriptor lock held).
  void quota_release(detail::LnvcDesc& d, const detail::MsgHeader& m);
  /// Refund an admission charge that never became a queued message
  /// (descriptor lock held); disarms the quota journal.
  void quota_refund(ProcessId pid, detail::LnvcDesc& d);
  /// Wake the park FIFO if anyone is parked (call with no locks held).
  void park_ripple(detail::LnvcDesc& d);
  /// Suspicion-prober election (descriptor lock held): claim the circuit's
  /// probe token if it is free, held by us, or held by a dead process.
  /// Returns true when this process should probe at the tight suspicion
  /// period; false = another live prober exists, sleep lazily instead.
  bool probe_claim(detail::LnvcDesc& d, ProcessId pid);
  /// Probe period of a suspicion-governed wait: suspicion_ns for the
  /// prober, a pid-jittered 16-32x stretch for everyone else (0, no
  /// probing, when suspicion is off).
  static std::uint64_t probe_wait_ns(ProcessId pid, std::uint64_t suspicion,
                                     bool prober);
  /// Drop the probe token if this process holds it (descriptor lock held);
  /// call on every wake so a departing waiter never strands the token.
  void probe_release(detail::LnvcDesc& d, ProcessId pid);
  /// Reap the first dead sender on `d` (descriptor lock held; dropped
  /// around the reap and retaken).
  void reap_dead_sender(detail::LnvcDesc& d, ProcessId pid);
  // Lock-free FCFS fast path (lnvc.cpp; DESIGN.md §12).
  /// Splice the injection stack into the FIFO in push order (descriptor
  /// lock held): exchange(null), pointer-reverse, link at msg_tail,
  /// assigning seq/claims/quota exactly as a locked enqueue would.
  void drain_injection(detail::LnvcDesc& d);
  /// Recompute LnvcDesc::fast_state (epoch bumped, eligibility re-derived)
  /// under the descriptor lock.  Must be called on every structural change
  /// a cached fast-path validation depends on; when eligibility drops it
  /// kicks every parked receiver so none sleeps through the transition.
  void update_fast_state(detail::LnvcDesc& d);
  /// Attempt the lock-free CAS-push send.  Returns true with *out set
  /// (ok, or closed when a racing close/destroy invalidated the push) when
  /// the fast path handled the send; false = caller takes the locked path.
  bool fast_send(ProcessId pid, detail::LnvcDesc& d, LnvcId id,
                 std::span<const ConstBuffer> iov, std::size_t total,
                 std::uint64_t deadline_ns, Status* out);
  /// Remove one message from `d`'s injection stack or orphan list
  /// (descriptor lock held); false when it is in neither — i.e. a drain
  /// already delivered it.  Used by the push-reconcile path and the reaper.
  bool unlink_injected(detail::LnvcDesc& d, shm::Offset msg_off);
  /// Wake the head (smallest live ticket) of the parked-receiver FIFO —
  /// or every member with `all` (orphan/destroy/eligibility transitions).
  /// Pure lock-free scan over ProcSlot::rpark_*; callable with or without
  /// the descriptor lock.
  void rpark_wake(detail::LnvcDesc& d, std::uint32_t gen, bool all);
  /// Drop one pin under the LNVC slot lock; frees the message if it was
  /// detached and this was the last pin.  Core of release_view and of the
  /// reap-time view sweep.
  void unpin(ProcessId pid, detail::LnvcDesc& d, detail::MsgHeader* m,
             std::uint32_t claim_gen, bool bcast);
  detail::Connection* find_conn(detail::LnvcDesc& d, ProcessId pid,
                                bool sender) const noexcept;

  // Failure recovery (recovery.cpp).
  static constexpr ProcessId kNoProcess = ~ProcessId{0};
  detail::ProcSlot* procs() const noexcept;
  detail::ProcSlot& pslot(ProcessId pid) const noexcept;
  static bool probe_alive(void* ctx, std::uint32_t holder_tag);
  [[nodiscard]] RobustOp make_robust(ProcessId pid) const;
  /// Robust lock tagged with `pid`; returns the dead holder's ProcessId if
  /// the lock had to be seized (caller repairs + reaps once safe), else
  /// kNoProcess.
  ProcessId alock(sync::SpinLock& cell, ProcessId pid);
  /// Robust lock on an LNVC descriptor: on seizure additionally repairs
  /// the descriptor's queue invariants before returning.
  ProcessId alock_lnvc(detail::LnvcDesc& d, ProcessId pid);
  /// The one robust wait: release `m`, sleep on `c` until notified, the
  /// absolute `deadline_ns` (kNoDeadline: none) or `probe_ns` from now (0:
  /// no probe period), whichever comes first, and re-acquire `m` — which
  /// may seize, with alock's contract.  *notified is false on expiry.
  ProcessId await_for(sync::SpinLock& m, sync::EventCount& c, ProcessId pid,
                      std::uint64_t deadline_ns, std::uint64_t probe_ns,
                      bool* notified);
  /// Recompute (msg_tail, fcfs_head, n_queued) of a seized descriptor from
  /// the msg_head walk; drops a half-linked journal message if found.
  void repair_lnvc(detail::LnvcDesc& d);
  /// Roll `pid`'s journaled half-done operation forward or back.  Called
  /// by reap() with no locks held; takes what it needs robustly.
  void resolve_journal(ProcessId reaper, detail::ProcSlot& ps, ProcessId pid);
  /// reap()'s sweep of a claimed `pid`; then resumes every sweep `pid`
  /// itself left unfinished by dying as a reaper.
  void sweep(ProcessId reaper, ProcessId pid);
  /// Opportunistic reap after a seizure, once the seizing op holds no
  /// locks.  No-op for kNoProcess.
  void reap_if_dead(ProcessId reaper, ProcessId dead);
  /// True when no live process holds a receive connection anywhere
  /// (the exhaustion monitor's peer_failed condition).  `self` counts as
  /// live.  Takes registry + descriptor locks; call with no locks held.
  bool no_live_receiver(ProcessId self);
  // Intent-journal arm/disarm (inline hot-path helpers).
  void journal_gather(ProcessId pid, const detail::GatherChain& chain,
                      shm::Offset msg);
  void journal_enqueue(ProcessId pid, LnvcId id, std::uint32_t gen,
                       shm::Offset msg, const detail::GatherChain& chain);
  void journal_copy_out(ProcessId pid, LnvcId id, std::uint32_t gen,
                        shm::Offset msg, bool bcast);
  void journal_release_chains(ProcessId pid, detail::LnvcDesc& d,
                              shm::Offset first_msg);
  void journal_stage(ProcessId pid, std::uint32_t stage);
  void journal_clear(ProcessId pid);
  // Nested free_message record (see detail::ProcSlot::fm_stage).
  void journal_free_arm(ProcessId pid, shm::Offset msg, shm::Offset head,
                        shm::Offset tail, std::uint32_t count);
  void journal_free_blocks_done(ProcessId pid);
  void journal_free_clear(ProcessId pid);
  // View table (independent of the primary journal record): reserve CAS's
  // a free slot to kReserved before the FCFS claim (a reserved slot holds
  // no resources); cancel returns it on any no-delivery path.
  int view_reserve(ProcessId pid);
  void view_cancel(ProcessId pid, int slot);
  // Slab pools (pool.cpp): pop/push one contiguous extent.  slab_alloc
  // journals via ProcSlot::slab inside the pop's critical section and
  // prefers the target node's sub-pool, stealing from remote nodes when
  // it is dry; kNullOffset when every sub-pool is empty.  slab_free
  // returns the extent to its home-node sub-pool (node_of_offset).
  shm::Offset slab_alloc(ProcessId pid, std::uint32_t target_node);
  void slab_free(ProcessId pid, shm::Offset extent);

  mutable shm::Arena arena_{};
  detail::FacilityHeader* header_ = nullptr;
  Platform* platform_ = nullptr;
  /// receive_any caches, indexed by pid (each touched only by its pid).
  std::shared_ptr<std::vector<detail::AnyMemo>> any_memo_;
};

}  // namespace mpf
