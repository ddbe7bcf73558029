// Facility configuration.
//
// Mirrors the paper's init(maxLNVC's, max_processes): those two values size
// the shared-memory arena.  The remaining knobs expose implementation
// parameters the paper fixes (10-byte message blocks) or leaves open.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mpf {

/// What message_send() does when the block free list runs dry.
enum class BlockPolicy : std::uint32_t {
  wait,  ///< block until receivers/closes recycle blocks (default)
  fail,  ///< return Status::out_of_blocks immediately
};

/// What message_send() does when the LNVC's quota would be exceeded.
enum class AdmissionPolicy : std::uint32_t {
  block,        ///< park the sender (FIFO) until quota frees; the send's
                ///  timeout bounds the park (default)
  shed_newest,  ///< drop the incoming (newest) message, report Status::ok;
                ///  counted in FacilityStats::sends_shed
  fail_fast,    ///< return Status::rejected immediately
};

struct Config {
  /// Maximum number of simultaneously existing LNVCs (paper: init arg 1).
  std::uint32_t max_lnvcs = 64;
  /// Maximum process id + 1 (paper: init arg 2).
  std::uint32_t max_processes = 32;
  /// Payload bytes per message block.  The paper's experiments all used
  /// 10-byte blocks (footnote 4); the block-size ablation sweeps this.
  std::uint32_t block_payload = 10;
  /// Number of message blocks carved at init; 0 derives a default from
  /// max_processes (enough for ~64 KB of in-flight payload per process).
  std::size_t message_blocks = 0;
  /// Message-header nodes carved at init; 0 derives from message_blocks.
  std::size_t message_headers = 0;
  /// Connection descriptors carved at init; 0 derives from the maxima.
  std::size_t connections = 0;
  /// Total arena size; 0 derives from everything above.
  std::size_t arena_bytes = 0;

  /// Pool shards (rounded up to a power of two).  Each shard holds a slice
  /// of the block and message-header pools behind its own lock, so
  /// allocator traffic from different processes stops serializing on one
  /// global lock.  0 derives the default: next power of two >=
  /// max_processes / 4 (1 = the pre-sharding behaviour).
  std::uint32_t pool_shards = 0;
  /// Enable the per-process magazine cache in front of the shards.  The
  /// common send/receive cycle then allocates and frees with no shared
  /// lock traffic at all.  Magazines live in the arena and are raided by
  /// exhausted peers, so blocking/fail semantics under true pool
  /// exhaustion are unchanged.
  bool per_process_cache = true;
  /// Blocks one process may hold in its magazine; 0 derives a bound from
  /// message_blocks / max_processes (and disables caching entirely for
  /// pools too small to spare hostage blocks).  Only chains of at most
  /// half this many blocks pass through the magazine.
  std::size_t cache_blocks = 0;

  BlockPolicy block_policy = BlockPolicy::wait;

  /// Messages of at least this many bytes are sent as one contiguous slab
  /// extent instead of a block chain, eliminating the per-block link walk
  /// and charging the copy as a single bulk transfer.  0 (default)
  /// disables the slab path entirely.
  std::size_t slab_threshold = 0;
  /// Capacity in bytes of one slab extent; 0 derives max(16 KiB, rounded
  /// slab_threshold).  Messages larger than this fall back to the chain.
  std::size_t slab_bytes = 0;
  /// Number of slab extents carved at init; 0 derives max_processes / 2
  /// (at least 4).  Ignored while slab_threshold == 0.
  std::size_t slab_count = 0;

  /// NUMA memory nodes (rounded up to a power of two, capped at 64).  1
  /// (default) keeps the flat uniform-access pools; >1 splits the slab
  /// pool and the block shards into per-node sub-pools: processes are
  /// assigned round-robin to nodes (pid mod numa_nodes; see
  /// Facility::set_process_node for explicit pinning), allocation prefers
  /// the target node's sub-pool, and exhaustion steals remote.  Under the
  /// simulator this pairs with MachineModel::numa_nodes for distinct
  /// local/remote copy costs.
  std::uint32_t numa_nodes = 1;
  /// Pop policy with numa_nodes > 1: true (default) places a message's
  /// blocks on the *receiver's* node (the FCFS claimant known from its
  /// ProcSlot; broadcast falls back to sender-local), so the one bulk
  /// copy-out is the cheap local read.  false is the node-blind control:
  /// always sender-local (the ablation_numa baseline).
  bool numa_prefer_receiver = true;

  /// Per-LNVC block budget: the most pool blocks one circuit's queued
  /// (undelivered) messages may hold at once.  0 (default) is unlimited —
  /// the pre-quota behaviour, bit-identical on every existing bench.  A
  /// send that would push the circuit past its budget is admitted,
  /// parked, shed or rejected per `admission_policy`.  Per-circuit
  /// overrides: Facility::set_admission.
  std::uint32_t lnvc_quota_blocks = 0;
  /// Per-LNVC slab budget (contiguous extents); 0 = unlimited.
  std::uint32_t lnvc_quota_slabs = 0;
  /// Default admission policy applied when a send would exceed the quota
  /// (see AdmissionPolicy; per-circuit overrides via set_admission).
  AdmissionPolicy admission_policy = AdmissionPolicy::block;

  /// Buckets in the sharded LNVC name directory (rounded up to a power of
  /// two).  Each bucket is a lock-protected intrusive chain of descriptors
  /// hashed by name, so open/lookup touches one bucket instead of scanning
  /// the whole table.  0 derives the default: next power of two >=
  /// max_lnvcs / 4 (1 = a single chain, the linear-scan baseline).
  std::uint32_t dir_buckets = 0;
  /// Poll sets carved at init (epoll-like multi-circuit wait objects; see
  /// Facility::pollset_create).  0 derives min(max_processes, 8).
  std::uint32_t max_pollsets = 0;

  /// Failure-suspicion threshold in nanoseconds (wall time natively,
  /// virtual time under the simulator).  A waiter that has watched the
  /// same holder sit on an arena lock for this long probes the holder's
  /// liveness and seizes the lock if the holder is dead; a sender parked
  /// on pool exhaustion re-checks receiver liveness at this period.
  /// 0 disables suspicion entirely (locks may wedge if a holder dies).
  std::uint64_t suspicion_ns = 100'000'000;  // 100 ms

  /// true (default, the paper's behaviour per its close_receive()
  /// discussion in §3.2): a message enqueued while BROADCAST receivers but
  /// no FCFS receivers are connected is reclaimed as soon as every
  /// broadcast receiver has read it.  Messages enqueued with *no*
  /// receivers connected are retained either way (the FCFS backlog whose
  /// loss-on-close the paper §3.2 warns about).  false: every message
  /// additionally waits for an eventual FCFS consumption, so an
  /// all-BROADCAST LNVC retains its history for late FCFS joiners at the
  /// cost of unbounded buffer growth (measured by the reclaim ablation).
  bool reclaim_broadcast_only = true;

  /// Enable the two-tier lock-free FCFS delivery path (DESIGN.md §12).
  /// Senders that pass a one-time locked validation CAS messages onto a
  /// per-circuit injection stack and blocked FCFS receivers park on
  /// their own WaitNode instead of the descriptor's condition word;
  /// the descriptor spinlock is kept only for the slow paths (broadcast
  /// fan-out, quotas, repair).  false (default) keeps the fully locked
  /// pre-existing path, bit-identical on every flat-model bench.
  bool lockfree_fcfs = false;
  /// Longest a blocked waiter spins before sleeping (futex natively,
  /// virtual wait resource under the simulator, short naps elsewhere).
  /// Pipeline-cadence hand-offs that land within the spin window never
  /// pay a syscall.  Bounds every blocking wait: locked and lock-free
  /// receives, quota and pool-exhaustion parks, receive_any and
  /// pollset_wait.  A thread spins all of it only while its sleeps end
  /// within it, and 1/16 of it otherwise (sync::Parker::park), so a
  /// blocked process stays idle while a lock-step peer whose wake-up a
  /// loaded hypervisor delays by milliseconds does not drag the others
  /// into sleeping too.
  std::uint64_t park_spin_ns = 16'000'000;  // 16 ms

  /// Arena bytes needed for this configuration (fills in the derived
  /// defaults; does not modify *this).
  [[nodiscard]] std::size_t derived_arena_bytes() const noexcept;
  /// Copy with every derived field made explicit.
  [[nodiscard]] Config resolved() const noexcept;
};

}  // namespace mpf
