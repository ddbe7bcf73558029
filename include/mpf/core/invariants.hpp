// Arena-resident invariant oracle (DESIGN.md §13).
//
// The facility's correctness argument rests on a small set of global
// invariants — block/slab/quota conservation, per-circuit FIFO structure,
// park/wake pairing, view/pin accounting.  The chaos suites check the
// conservation law after the fact; the oracle states every class
// explicitly and checks all of them against a live arena, so the schedule
// fuzzer (tools/mpf_fuzz), the test suites, and `mpf_inspect --check` all
// assert the same catalogue.
//
// Two strictness levels:
//   * quiescent = false: only invariants that hold at every instant where
//     no descriptor lock is held (structural FIFO shape, conservation,
//     waiter-counter lower bounds).  Safe on a live arena: the oracle takes
//     each descriptor lock briefly, exactly like Facility::block_audit.
//   * quiescent = true: additionally everything that must hold when no
//     operation is in flight and every dead process has been reaped — no
//     armed intent journals, no parked processes, exact pin/claim
//     accounting, zero in-flight blocks.  This is the contract the fuzzer
//     checks at its round barriers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpf/core/facility.hpp"
#include "mpf/core/layout.hpp"
#include "mpf/core/types.hpp"

namespace mpf {

/// Invariant classes the oracle distinguishes (one per catalogue entry in
/// DESIGN.md §13; tests assert that a targeted corruption is reported
/// under the right class).
enum class Invariant : std::uint32_t {
  conservation,  ///< block/slab ledger across pools, FIFOs, journals;
                 ///  shard maps (free bits vs. counts, seam links, no
                 ///  free block reachable from a FIFO/magazine/journal;
                 ///  payload arrays inside the arena, overlapping no
                 ///  other carve)
  fifo,          ///< per-circuit FIFO structure: seq order, head/tail,
                 ///  n_queued, connection counts, chain shape
  ledger,        ///< per-circuit quota ledger vs. recomputed charges
  parking,       ///< park/rpark waiter counters vs. slot membership
  views,         ///< view-table / pin / broadcast-claim accounting
  quiescence,    ///< armed journals or parked/waiting state at rest
  directory,     ///< name-directory chains, descriptor freelist
                 ///  conservation
  watches,       ///< multi-circuit waits: armed counts vs. connection
                 ///  watches, poll-set membership, ready-set bitmaps,
                 ///  no lost wake at rest
};

[[nodiscard]] const char* invariant_name(Invariant c) noexcept;

struct InvariantViolation {
  Invariant cls = Invariant::conservation;
  LnvcId id = kInvalidLnvc;      ///< circuit involved (kInvalidLnvc: global)
  ProcessId pid = ~ProcessId{0}; ///< process involved (~0: none)
  std::string detail;            ///< human-readable description
};

struct InvariantReport {
  std::vector<InvariantViolation> violations;
  std::size_t circuits_checked = 0;
  std::size_t messages_checked = 0;
  bool quiescent = false;  ///< strictness the report was produced under

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  /// One line per violation ("class lnvc=N pid=P: detail"); empty when ok.
  [[nodiscard]] std::string summary() const;
};

/// White-box checker over a facility's arena.  The single friend of
/// Facility: tests that need to corrupt state reach the raw structures
/// through the accessors here instead of growing the friend list.
class InvariantOracle {
 public:
  /// Run every applicable invariant check (see file comment for the two
  /// strictness levels).  Takes each descriptor lock briefly via the
  /// facility's platform; call with no facility locks held.
  [[nodiscard]] static InvariantReport check(const Facility& f,
                                             bool quiescent);

  // --- white-box accessors (corruption tests; mpf_inspect) --------------
  [[nodiscard]] static detail::FacilityHeader& header(const Facility& f);
  /// Raw descriptor slot (valid for any id < max_lnvcs, live or not).
  [[nodiscard]] static detail::LnvcDesc& lnvc(const Facility& f, LnvcId id);
  [[nodiscard]] static detail::ProcSlot& proc(const Facility& f,
                                              ProcessId pid);
  /// Pool shard `index` (< pool_shards()), and the arena its offsets
  /// resolve in.
  [[nodiscard]] static detail::PoolShard& shard(const Facility& f,
                                                std::uint32_t index);
  [[nodiscard]] static shm::Arena& arena(const Facility& f);
  [[nodiscard]] static detail::MsgHeader* msg_at(const Facility& f,
                                                 shm::Offset off);
};

}  // namespace mpf
