// Deterministic schedule fuzzer over the facility surface (DESIGN.md §13).
//
// One fuzz case = a seed.  The seed derives everything: the facility
// configuration (block size, shards, NUMA nodes, slab path, quotas,
// lockfree mode), the number of simulated processes, and a per-process op
// script over a small universe of LNVC names (open/close, timed and
// untimed sends, scatter-gather, copy-out and zero-copy receives,
// receive_any, admission flips, reaps, pulses, poll sets).  Seeds may
// shrink the name directory to 1-4 buckets, forcing every name into a
// handful of chains so the collision paths and the bucket-shape oracle
// get constant exercise.  The case runs as a sequence of
// ROUNDS over one persistent arena: each round is a fresh deterministic
// simulation (its own sim::Simulator + FaultPlan::random kills/pauses);
// between rounds the main thread reaps every dead process and asserts the
// full invariant catalogue (InvariantOracle, quiescent=true).  Because
// every blocking op the script issues is deadline-bounded, a round always
// terminates — sim::DeadlockError is itself a finding (a lost wakeup),
// not a hang.
//
// End-to-end FIFO oracle: every payload carries a 32-byte header (sender,
// name, per-(sender, name) counter, length) plus a derived fill pattern;
// each receiver asserts the counters it sees per (name, sender) strictly
// increase — the paper's per-sender-pair FIFO guarantee — and that the
// payload bytes survived intact (including truncated prefixes).
//
// Everything is a pure function of FuzzParams, so a failing seed replays
// bit-identically (FuzzResult::trace_hash chains every round's trace) and
// the shrinker in tools/mpf_fuzz can minimize by re-running with smaller
// overrides.
#pragma once

#include <cstdint>
#include <string>

namespace mpf::benchlib {

/// Op categories the script can draw (FuzzParams::opmask bit i enables
/// category i; the shrinker clears bits to minimize a failure).
enum FuzzOp : std::uint32_t {
  kFuzzOpenSend = 0,
  kFuzzOpenRecvFcfs,
  kFuzzOpenRecvBcast,
  kFuzzCloseSend,
  kFuzzCloseRecv,
  kFuzzSend,       ///< untimed send (only when the case can never block)
  kFuzzSendv,      ///< scatter-gather, deadline-bounded
  kFuzzSendTimed,  ///< send with a timeout (0 = poll)
  kFuzzTryRecv,    ///< receive polling (timeout 0)
  kFuzzRecvFor,    ///< receive with a timeout (0 = poll)
  kFuzzRecvView,  ///< receive_view polling; may hold the view across ops
  kFuzzRecvAny,   ///< timed receive_any over every held receive connection
  kFuzzReleaseView,
  kFuzzCheck,
  kFuzzSetAdmission,  ///< random quota + policy flip
  kFuzzReap,          ///< probe a peer's liveness, declare_dead + reap
  kFuzzSendPulse,     ///< send_pulse with a small code (coalescing path)
  kFuzzRecvPulse,     ///< drain one pending pulse (non-blocking)
  kFuzzPollSet,       ///< poll set lifecycle: create/add/remove/wait/destroy
  kFuzzOpCount,
};

[[nodiscard]] const char* fuzz_op_name(std::uint32_t op) noexcept;

/// Everything needed to reproduce a case.  Fields left at their sentinel
/// (0 / -1 / full mask) are derived from the seed; the shrinker pins them
/// to explicit smaller values.  Derivation draws from the seed in a fixed
/// order regardless of overrides, so pinning one knob never changes the
/// others.
struct FuzzParams {
  std::uint64_t seed = 1;
  int procs = 0;       ///< 0 = seed-derived in [4, 64]
  int rounds = 0;      ///< 0 = seed-derived in [1, 3]
  int ops = 0;         ///< ops per process per round; 0 = derived [12, 48]
  int max_kills = -1;  ///< FaultPlan kills per round; -1 = derived [0, 3]
  int max_pauses = -1; ///< FaultPlan pauses per round; -1 = derived [0, 2]
  int lockfree = -1;   ///< Config::lockfree_fcfs; -1 = seed-derived
  std::uint32_t opmask = (1u << kFuzzOpCount) - 1;  ///< enabled categories
};

struct FuzzResult {
  bool ok = true;
  /// First failure: an invariant-oracle violation (with round), a payload
  /// FIFO/integrity violation, an unexpected status, or a DeadlockError.
  std::string failure;
  /// FNV-1a chain over every round's full schedule trace; equal across
  /// replays of the same params by construction.
  std::uint64_t trace_hash = 0;
  // Effective (seed-resolved) shape, for printing a pinned repro line.
  int procs = 0;
  int rounds = 0;
  int ops = 0;
  int max_kills = 0;
  int max_pauses = 0;
  int lockfree = 0;
  // Aggregate activity, so campaigns can report coverage.
  std::uint64_t kills = 0;  ///< injected kills that actually fired
  std::uint64_t sends = 0;
  std::uint64_t receives = 0;
  std::uint64_t oracle_checks = 0;  ///< quiescence points asserted
};

/// Run one fuzz case to completion (or first failure).
FuzzResult run_fuzz_case(const FuzzParams& params);

/// One-line reproduction command for a (resolved) case, e.g.
/// "mpf_fuzz --seed 7 --procs 8 --rounds 2 --ops 16 --kills 1 --pauses 0
///  --lockfree 1 --opmask 0xffff".
[[nodiscard]] std::string fuzz_repro_line(const FuzzParams& params,
                                          const FuzzResult& result);

}  // namespace mpf::benchlib
