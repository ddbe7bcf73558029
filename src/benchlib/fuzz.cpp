#include "mpf/benchlib/fuzz.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "mpf/core/facility.hpp"
#include "mpf/core/invariants.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/sim/fault.hpp"
#include "mpf/sim/sim_platform.hpp"
#include "mpf/sim/simulator.hpp"
#include "mpf/sim/trace.hpp"

namespace mpf::benchlib {

namespace {

constexpr std::uint32_t kWireMagic = 0x4d465a46;  // "MFZF"
constexpr int kMaxNames = 5;

/// SplitMix64 — the same generator FaultPlan::random uses, so the whole
/// case is reproducible from integer arithmetic alone.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) (n > 0).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  bool chance(std::uint64_t pct) { return below(100) < pct; }
};

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  Rng r(a ^ (b * 0x9e3779b97f4a7c15ull));
  return r.next();
}

/// Every payload starts with this header; the rest is a derived fill
/// pattern.  The receiver-side checks implement the paper's FIFO
/// guarantee end to end: per (receiver, name, sender) the counters
/// strictly increase.
struct WireHdr {
  std::uint32_t magic;
  std::uint32_t name;
  std::uint32_t sender;
  std::uint32_t reserved;
  std::uint64_t counter;
  std::uint64_t len;  ///< total message length, for truncation cross-check
};
static_assert(sizeof(WireHdr) == 32);

std::uint8_t fill_byte(std::uint32_t sender, std::uint32_t name,
                       std::uint64_t counter, std::size_t i) {
  return static_cast<std::uint8_t>(sender * 131 + name * 31 +
                                   counter * 7 + i);
}

/// Seed-resolved case shape: FuzzParams with every sentinel filled in,
/// plus the derived facility config and script feature flags.
struct CaseShape {
  FuzzParams p;  // all fields explicit
  Config config;
  int n_names = 2;
  bool flip_admission = false;  ///< set_admission op enabled for this seed
  bool allow_untimed = false;   ///< plain send() can never block forever
};

CaseShape resolve(const FuzzParams& in) {
  CaseShape s;
  s.p = in;
  Rng rng(mix64(in.seed, 0x464c5a46ull));
  // Draw every derived value unconditionally, in a fixed order, so
  // pinning one knob (the shrinker does) never changes the others.
  const int d_procs = 4 + static_cast<int>(rng.below(61));       // 4..64
  const int d_rounds = 1 + static_cast<int>(rng.below(3));       // 1..3
  const int d_ops = 12 + static_cast<int>(rng.below(37));        // 12..48
  const int d_kills = static_cast<int>(rng.below(4));            // 0..3
  const int d_pauses = static_cast<int>(rng.below(3));           // 0..2
  const int d_lockfree = static_cast<int>(rng.below(2));
  if (s.p.procs <= 0) s.p.procs = d_procs;
  s.p.procs = std::clamp(s.p.procs, 2, 64);
  if (s.p.rounds <= 0) s.p.rounds = d_rounds;
  if (s.p.ops <= 0) s.p.ops = d_ops;
  if (s.p.max_kills < 0) s.p.max_kills = d_kills;
  if (s.p.max_pauses < 0) s.p.max_pauses = d_pauses;
  if (s.p.lockfree < 0) s.p.lockfree = d_lockfree;

  s.n_names = 2 + static_cast<int>(rng.below(kMaxNames - 1));  // 2..5
  static constexpr std::uint32_t kPayloads[] = {10, 16, 64, 256};
  Config c;
  c.max_processes = static_cast<std::uint32_t>(s.p.procs);
  c.max_lnvcs = static_cast<std::uint32_t>(s.n_names + 1);
  c.block_payload = kPayloads[rng.below(4)];
  c.message_blocks = 512 + 512 * rng.below(3);  // 512 / 1024 / 1536
  c.pool_shards = 1u << rng.below(3);           // 1 / 2 / 4
  c.numa_nodes = rng.chance(30) ? 2 : 1;
  c.block_policy = rng.chance(50) ? BlockPolicy::fail : BlockPolicy::wait;
  if (rng.chance(50)) {
    c.slab_threshold = 256;
    c.slab_count = 8;
  }
  if (rng.chance(30)) {
    c.lnvc_quota_blocks = 8 + static_cast<std::uint32_t>(rng.below(64));
    static constexpr AdmissionPolicy kPolicies[] = {
        AdmissionPolicy::block, AdmissionPolicy::shed_newest,
        AdmissionPolicy::fail_fast};
    c.admission_policy = kPolicies[rng.below(3)];
  }
  s.flip_admission = rng.chance(40);
  c.reclaim_broadcast_only = rng.chance(80);
  c.suspicion_ns = 1'000'000;  // 1 ms virtual: probes fire within a round
  c.lockfree_fcfs = s.p.lockfree != 0;
  // Half the seeds squeeze the name directory to 1-4 buckets: with 2-5
  // names in play every open/lookup collides, so chain insert/unlink and
  // the bucket-shape oracle run constantly (1 bucket = the linear-scan
  // degenerate case).
  c.dir_buckets = rng.chance(50) ? (1u << rng.below(3)) : 0;
  // Every rank can own a poll set, so kFuzzPollSet never starves on the
  // derived min(procs, 8) table.
  c.max_pollsets = static_cast<std::uint32_t>(s.p.procs);
  s.config = c;
  // A plain send() may block forever on pool exhaustion (policy wait) or
  // a quota park; only draw it when neither can happen for this case.
  s.allow_untimed = c.block_policy == BlockPolicy::fail &&
                    c.lnvc_quota_blocks == 0 && c.lnvc_quota_slabs == 0 &&
                    !s.flip_admission;
  return s;
}

/// Harness-side mutable state shared by the bodies.  Mutation only
/// happens inside simulated processes, which the conductor serializes
/// (exactly one runs at a time, hand-offs are happens-before), or from
/// the main thread between rounds.
struct CaseState {
  struct RankState {
    std::array<LnvcId, kMaxNames> send_id;
    std::array<LnvcId, kMaxNames> recv_id;
    std::array<Protocol, kMaxNames> recv_proto;
    std::vector<MsgView> views;
    PollSetId pollset = kInvalidPollSet;
    /// Per name: send_opens[name] when a receive on this connection last
    /// returned lnvc_orphaned with no open_send racing it, else kLive.
    /// The verdict holds while no open_send on the name has started since.
    std::array<std::uint64_t, kMaxNames> orphaned_at;
    RankState() {
      send_id.fill(kInvalidLnvc);
      recv_id.fill(kInvalidLnvc);
      orphaned_at.fill(kLive);
    }
  };
  static constexpr std::uint64_t kLive = ~std::uint64_t{0};
  std::vector<RankState> ranks;
  /// Per name: open_send calls started / finished, by any rank.  An
  /// orphaned circuit stays orphaned until a sender connects.
  std::array<std::uint64_t, kMaxNames> send_opens{};
  std::array<std::uint64_t, kMaxNames> send_opens_done{};
  /// Per (sender, name): next counter to stamp.
  std::vector<std::array<std::uint64_t, kMaxNames>> sent;
  /// Per (receiver, name, sender): highest counter seen.
  std::vector<std::array<std::array<std::uint64_t, 64>, kMaxNames>> seen;
  std::string failure;  ///< first failure only

  void fail(const std::string& what) {
    if (failure.empty()) failure = what;
  }
};

std::string status_name(Status st) { return to_string(st); }

/// Validate one delivered payload: header integrity, per-sender FIFO
/// order, length cross-check, fill-pattern round-trip.
void validate_payload(CaseState& cs, int rank, int name,
                      const std::uint8_t* buf, std::size_t got, Status st,
                      std::size_t cap, int procs) {
  char msg[160];
  if (got < sizeof(WireHdr)) {
    std::snprintf(msg, sizeof msg,
                  "rank %d name %d: delivered %zu bytes < header", rank,
                  name, got);
    cs.fail(msg);
    return;
  }
  WireHdr h;
  std::memcpy(&h, buf, sizeof h);
  if (h.magic != kWireMagic) {
    std::snprintf(msg, sizeof msg, "rank %d name %d: bad magic %08x", rank,
                  name, h.magic);
    cs.fail(msg);
    return;
  }
  if (h.name != static_cast<std::uint32_t>(name) ||
      h.sender >= static_cast<std::uint32_t>(procs)) {
    std::snprintf(msg, sizeof msg,
                  "rank %d name %d: header names circuit %u sender %u",
                  rank, name, h.name, h.sender);
    cs.fail(msg);
    return;
  }
  if (st == Status::ok && got != h.len) {
    std::snprintf(msg, sizeof msg,
                  "rank %d name %d: ok delivery of %zu bytes, header says "
                  "%llu",
                  rank, name, got,
                  static_cast<unsigned long long>(h.len));
    cs.fail(msg);
    return;
  }
  if (st == Status::truncated && (h.len <= cap || got != cap)) {
    std::snprintf(msg, sizeof msg,
                  "rank %d name %d: truncated %zu/%llu with cap %zu", rank,
                  name, got, static_cast<unsigned long long>(h.len), cap);
    cs.fail(msg);
    return;
  }
  std::uint64_t& last = cs.seen[static_cast<std::size_t>(rank)]
                               [static_cast<std::size_t>(name)][h.sender];
  if (h.counter <= last) {
    std::snprintf(msg, sizeof msg,
                  "FIFO violated: rank %d name %d sender %u counter %llu "
                  "after %llu",
                  rank, name, h.sender,
                  static_cast<unsigned long long>(h.counter),
                  static_cast<unsigned long long>(last));
    cs.fail(msg);
    return;
  }
  last = h.counter;
  for (std::size_t i = sizeof(WireHdr); i < got; ++i) {
    if (buf[i] != fill_byte(h.sender, h.name, h.counter, i)) {
      std::snprintf(msg, sizeof msg,
                    "payload corrupt: rank %d name %d sender %u counter "
                    "%llu byte %zu",
                    rank, name, h.sender,
                    static_cast<unsigned long long>(h.counter), i);
      cs.fail(msg);
      return;
    }
  }
}

bool status_in(Status st, std::initializer_list<Status> allowed) {
  for (Status a : allowed) {
    if (st == a) return true;
  }
  return false;
}

/// The op script of one process for one round.
class Script {
 public:
  Script(Facility& f, CaseState& cs, const CaseShape& shape, int rank,
         int round)
      : f_(f),
        cs_(cs),
        shape_(shape),
        rank_(rank),
        pid_(static_cast<ProcessId>(rank)),
        rng_(mix64(shape.p.seed, 0x524e4b00ull + // "RNK"
                       static_cast<std::uint64_t>(round) * 1024 +
                       static_cast<std::uint64_t>(rank))) {
    // Weighted category table over the enabled ops.
    static constexpr std::uint32_t kWeights[kFuzzOpCount] = {
        4, 3, 2, 1, 1, 6, 3, 6, 4, 6, 4, 2, 3, 1, 1, 1, 3, 3, 3};
    for (std::uint32_t op = 0; op < kFuzzOpCount; ++op) {
      if ((shape.p.opmask & (1u << op)) == 0) continue;
      for (std::uint32_t w = 0; w < kWeights[op]; ++w) {
        draw_.push_back(op);
      }
    }
  }

  void run() {
    if (draw_.empty()) return;
    for (int i = 0; i < shape_.p.ops; ++i) {
      step(draw_[rng_.below(draw_.size())]);
      if (rng_.chance(25)) f_.platform().yield();
    }
  }

 private:
  CaseState::RankState& me() {
    return cs_.ranks[static_cast<std::size_t>(rank_)];
  }
  std::string lnvc_name(int n) const {
    return std::string("fz") + static_cast<char>('0' + n);
  }
  std::uint64_t deadline() {
    return rng_.chance(20) ? 0 : 50'000 + rng_.below(450'000);
  }
  void unexpected(const char* op, int name, Status st) {
    char msg[128];
    std::snprintf(msg, sizeof msg, "rank %d: %s on name %d returned %s",
                  rank_, op, name, status_name(st).c_str());
    cs_.fail(msg);
  }

  bool ensure_send(int n) {
    if (me().send_id[static_cast<std::size_t>(n)] != kInvalidLnvc) {
      return true;
    }
    LnvcId id = kInvalidLnvc;
    ++cs_.send_opens[static_cast<std::size_t>(n)];
    const Status st = f_.open_send(pid_, lnvc_name(n), &id);
    ++cs_.send_opens_done[static_cast<std::size_t>(n)];
    if (st == Status::ok) {
      me().send_id[static_cast<std::size_t>(n)] = id;
      return true;
    }
    if (!status_in(st, {Status::already_connected, Status::table_full})) {
      unexpected("open_send", n, st);
    }
    return false;
  }
  bool ensure_recv(int n, Protocol proto) {
    if (me().recv_id[static_cast<std::size_t>(n)] != kInvalidLnvc) {
      return true;
    }
    LnvcId id = kInvalidLnvc;
    const Status st = f_.open_receive(pid_, lnvc_name(n), proto, &id);
    if (st == Status::ok) {
      me().recv_id[static_cast<std::size_t>(n)] = id;
      me().recv_proto[static_cast<std::size_t>(n)] = proto;
      me().orphaned_at[static_cast<std::size_t>(n)] = CaseState::kLive;
      // Per-sender FIFO is only guaranteed within one connection
      // generation.  A reopen can legitimately step backwards: a fresh
      // broadcast cursor starts at the tail, and a later FCFS reopen can
      // still claim older backlog the previous connection never consumed.
      // Reset the monotonicity floor so the oracle checks exactly what
      // the facility promises.
      for (auto& floor :
           cs_.seen[static_cast<std::size_t>(rank_)][static_cast<std::size_t>(n)]) {
        floor = 0;
      }
      return true;
    }
    if (!status_in(st, {Status::already_connected, Status::table_full,
                        Status::protocol_conflict})) {
      unexpected("open_receive", n, st);
    }
    return false;
  }

  /// Statuses any transfer op may legitimately return under churn: the
  /// circuit can die (last close), its slot can be recycled under a new
  /// name, peers can be killed mid-hand-off, quotas can reject, pools can
  /// run dry.  Anything else is a finding.
  bool transfer_ok(Status st) {
    return status_in(
        st, {Status::ok, Status::timed_out, Status::truncated,
             Status::rejected, Status::out_of_blocks, Status::no_such_lnvc,
             Status::not_connected, Status::closed, Status::peer_failed,
             Status::lnvc_orphaned});
  }
  /// Drop a cached connection id the facility no longer honors.
  void maybe_drop(int n, Status st, bool sender) {
    if (status_in(st, {Status::no_such_lnvc, Status::not_connected,
                       Status::closed})) {
      if (sender) {
        me().send_id[static_cast<std::size_t>(n)] = kInvalidLnvc;
      } else {
        me().recv_id[static_cast<std::size_t>(n)] = kInvalidLnvc;
      }
    }
  }

  // Orphan model.  A receive that returns lnvc_orphaned proves its
  // circuit orphaned only if no open_send on the name was in flight at any
  // point of the call; the verdict then lasts until the next open_send.
  struct SendOpens {
    std::uint64_t started;
    bool quiet;  ///< no open_send in flight
  };
  SendOpens send_opens(int n) const {
    const auto i = static_cast<std::size_t>(n);
    return {cs_.send_opens[i], cs_.send_opens[i] == cs_.send_opens_done[i]};
  }
  void note_orphaned(int n, SendOpens before) {
    const SendOpens after = send_opens(n);
    if (before.quiet && after.quiet && after.started == before.started) {
      me().orphaned_at[static_cast<std::size_t>(n)] = before.started;
    }
  }
  bool known_orphaned(int n) {
    const SendOpens now = send_opens(n);
    return now.quiet &&
           me().orphaned_at[static_cast<std::size_t>(n)] == now.started;
  }

  std::size_t pick_len() {
    const std::uint64_t r = rng_.below(100);
    if (r < 50) return sizeof(WireHdr) + rng_.below(64);
    if (r < 85) return sizeof(WireHdr) + rng_.below(400);
    return sizeof(WireHdr) + rng_.below(1200);
  }

  std::vector<std::uint8_t> build_payload(int n, std::size_t len) {
    std::uint64_t& ctr =
        cs_.sent[static_cast<std::size_t>(rank_)][static_cast<std::size_t>(n)];
    ++ctr;
    std::vector<std::uint8_t> buf(len);
    WireHdr h{kWireMagic, static_cast<std::uint32_t>(n),
              static_cast<std::uint32_t>(rank_), 0, ctr, len};
    std::memcpy(buf.data(), &h, sizeof h);
    for (std::size_t i = sizeof h; i < len; ++i) {
      buf[i] = fill_byte(h.sender, h.name, h.counter, i);
    }
    return buf;
  }
  void do_send(int n, bool vectored, bool timed) {
    if (!ensure_send(n)) return;
    const LnvcId id = me().send_id[static_cast<std::size_t>(n)];
    const std::size_t len = pick_len();
    const std::vector<std::uint8_t> buf = build_payload(n, len);
    Status st;
    if (vectored) {
      // Split into 2-3 spans at arbitrary points.
      std::array<ConstBuffer, 3> iov;
      const std::size_t cut1 = 1 + rng_.below(len - 1);
      std::size_t nio = 0;
      iov[nio++] = ConstBuffer{buf.data(), cut1};
      if (len - cut1 > 1 && rng_.chance(50)) {
        const std::size_t cut2 = cut1 + 1 + rng_.below(len - cut1 - 1);
        iov[nio++] = ConstBuffer{buf.data() + cut1, cut2 - cut1};
        iov[nio++] = ConstBuffer{buf.data() + cut2, len - cut2};
      } else {
        iov[nio++] = ConstBuffer{buf.data() + cut1, len - cut1};
      }
      st = f_.send_v(pid_, id, std::span(iov.data(), nio), deadline());
    } else if (timed || !shape_.allow_untimed) {
      st = f_.send(pid_, id, buf.data(), len, deadline());
    } else {
      st = f_.send(pid_, id, buf.data(), len);
    }
    if (!transfer_ok(st)) {
      unexpected(vectored ? "sendv" : "send", n, st);
    }
    maybe_drop(n, st, /*sender=*/true);
  }

  void do_receive(int n, bool blocking) {
    if (!ensure_recv(n, rng_.chance(75) ? Protocol::fcfs
                                        : Protocol::broadcast)) {
      return;
    }
    const LnvcId id = me().recv_id[static_cast<std::size_t>(n)];
    const std::size_t cap = sizeof(WireHdr) + rng_.below(1400);
    std::vector<std::uint8_t> buf(cap);
    std::size_t got = 0;
    const SendOpens before = send_opens(n);
    const Status st =
        f_.receive(pid_, id, buf.data(), cap, &got, blocking ? deadline() : 0);
    if (st == Status::lnvc_orphaned) note_orphaned(n, before);
    if (!transfer_ok(st)) {
      unexpected("receive", n, st);
      return;
    }
    maybe_drop(n, st, /*sender=*/false);
    if (st == Status::ok || st == Status::truncated) {
      validate_payload(cs_, rank_, n, buf.data(), got, st, cap,
                       shape_.p.procs);
    }
  }

  void do_receive_view(int n) {
    if (!ensure_recv(n, rng_.chance(75) ? Protocol::fcfs
                                        : Protocol::broadcast)) {
      return;
    }
    const LnvcId id = me().recv_id[static_cast<std::size_t>(n)];
    MsgView view;
    const SendOpens before = send_opens(n);
    const Status st = f_.receive_view(pid_, id, &view, 0);
    if (st == Status::lnvc_orphaned) note_orphaned(n, before);
    if (!transfer_ok(st) && st != Status::table_full) {
      unexpected("receive_view", n, st);
      return;
    }
    maybe_drop(n, st, /*sender=*/false);
    if (st != Status::ok) return;
    // Read the pinned payload through the view and validate it like a
    // copy-out delivery.
    std::vector<std::uint8_t> buf(view.length);
    const std::size_t got = f_.copy_view(view, buf.data(), buf.size());
    validate_payload(cs_, rank_, n, buf.data(), got, Status::ok,
                     buf.size(), shape_.p.procs);
    if (rng_.chance(60)) {
      const Status rel = f_.release_view(pid_, &view);
      if (rel != Status::ok) unexpected("release_view", n, rel);
    } else {
      me().views.push_back(view);  // release later (or let reap sweep it)
    }
  }

  void do_release_view() {
    if (me().views.empty()) return;
    const std::size_t i = rng_.below(me().views.size());
    MsgView view = me().views[static_cast<std::size_t>(i)];
    me().views.erase(me().views.begin() + static_cast<std::ptrdiff_t>(i));
    const Status st = f_.release_view(pid_, &view);
    if (st != Status::ok) unexpected("release_view", -1, st);
  }

  void do_receive_any() {
    std::vector<LnvcId> ids;
    std::vector<int> names;
    for (int n = 0; n < shape_.n_names; ++n) {
      if (me().recv_id[static_cast<std::size_t>(n)] != kInvalidLnvc) {
        ids.push_back(me().recv_id[static_cast<std::size_t>(n)]);
        names.push_back(n);
      }
    }
    if (ids.empty()) return;
    const std::size_t cap = sizeof(WireHdr) + rng_.below(1400);
    std::vector<std::uint8_t> buf(cap);
    std::size_t got = 0;
    std::size_t index = 0;
    std::vector<SendOpens> before;
    bool all_orphaned = true;
    for (const int n : names) {
      before.push_back(send_opens(n));
      all_orphaned = all_orphaned && known_orphaned(n);
    }
    const Status st = f_.receive_any(pid_, ids, buf.data(), cap, &got,
                                     &index, deadline());
    if (!transfer_ok(st)) {
      unexpected("receive_any", -1, st);
      return;
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
      all_orphaned = all_orphaned && known_orphaned(names[i]);
      if (st == Status::lnvc_orphaned) note_orphaned(names[i], before[i]);
    }
    if (st == Status::timed_out && all_orphaned) {
      // Nothing can ever arrive: the call must say lnvc_orphaned.
      char msg[128];
      std::snprintf(msg, sizeof msg,
                    "rank %d: receive_any over %zu orphaned circuits timed "
                    "out",
                    rank_, ids.size());
      cs_.fail(msg);
    }
    if ((st == Status::ok || st == Status::truncated) &&
        index < names.size()) {
      validate_payload(cs_, rank_, names[index], buf.data(), got, st, cap,
                       shape_.p.procs);
    }
  }

  void do_send_pulse(int n) {
    if (!ensure_send(n)) return;
    const LnvcId id = me().send_id[static_cast<std::size_t>(n)];
    // 6 codes over kPulseSlots slots: the overflow (table_full) and
    // coalescing paths both fire regularly.
    const Status st =
        f_.send_pulse(pid_, id, static_cast<std::uint32_t>(rng_.below(6)));
    if (!transfer_ok(st) && st != Status::table_full) {
      unexpected("send_pulse", n, st);
    }
    maybe_drop(n, st, /*sender=*/true);
  }

  void do_receive_pulse(int n) {
    if (!ensure_recv(n, rng_.chance(75) ? Protocol::fcfs
                                        : Protocol::broadcast)) {
      return;
    }
    const LnvcId id = me().recv_id[static_cast<std::size_t>(n)];
    std::uint32_t code = ~0u;
    std::uint32_t count = 0;
    const Status st = f_.receive_pulse(pid_, id, &code, &count);
    if (!transfer_ok(st)) {
      unexpected("receive_pulse", n, st);
      return;
    }
    maybe_drop(n, st, /*sender=*/false);
    if (st == Status::ok && count != 0 && code >= 6) {
      char msg[128];
      std::snprintf(msg, sizeof msg,
                    "rank %d name %d: pulse code %u never sent", rank_, n,
                    code);
      cs_.fail(msg);
    }
  }

  void do_pollset(int n) {
    PollSetId& ps = me().pollset;
    if (ps == kInvalidPollSet) {
      const Status st = f_.pollset_create(pid_, &ps);
      if (!status_in(st, {Status::ok, Status::table_full})) {
        unexpected("pollset_create", n, st);
      }
      if (st != Status::ok) {
        ps = kInvalidPollSet;
        return;
      }
    }
    const std::uint64_t r = rng_.below(100);
    if (r < 35) {
      const LnvcId id = me().recv_id[static_cast<std::size_t>(n)];
      if (id == kInvalidLnvc) return;
      // rejected = the circuit already belongs to a poll set (possibly a
      // peer's); no_such_lnvc covers both a recycled circuit slot and a
      // poll set torn down by a reap of this rank in an earlier round.
      const Status st = f_.pollset_add(pid_, ps, id);
      if (!status_in(st, {Status::ok, Status::rejected, Status::table_full,
                          Status::no_such_lnvc, Status::not_connected})) {
        unexpected("pollset_add", n, st);
      }
    } else if (r < 45) {
      const LnvcId id = me().recv_id[static_cast<std::size_t>(n)];
      if (id == kInvalidLnvc) return;
      const Status st = f_.pollset_remove(pid_, ps, id);
      if (!status_in(st,
                     {Status::ok, Status::not_connected,
                      Status::no_such_lnvc})) {
        unexpected("pollset_remove", n, st);
      }
    } else if (r < 90) {
      LnvcId ready = kInvalidLnvc;
      const Status st = f_.pollset_wait(pid_, ps, &ready, deadline());
      if (!status_in(st, {Status::ok, Status::timed_out, Status::closed,
                          Status::busy, Status::no_such_lnvc})) {
        unexpected("pollset_wait", n, st);
        return;
      }
      if (st == Status::closed || st == Status::no_such_lnvc) {
        ps = kInvalidPollSet;
        return;
      }
      if (st == Status::ok) {
        if (ready == kInvalidLnvc) {
          cs_.fail("pollset_wait returned ok with no ready circuit");
          return;
        }
        // Drain the winner so level-triggering converges: a copy-out
        // receive plus a pulse drain, validated like any delivery.
        for (int m = 0; m < shape_.n_names; ++m) {
          if (me().recv_id[static_cast<std::size_t>(m)] == ready) {
            do_receive(m, /*blocking=*/false);
            do_receive_pulse(m);
            break;
          }
        }
      }
    } else {
      const Status st = f_.pollset_destroy(pid_, ps);
      if (!status_in(st, {Status::ok, Status::no_such_lnvc})) {
        unexpected("pollset_destroy", n, st);
      }
      ps = kInvalidPollSet;
    }
  }

  void step(std::uint32_t op) {
    const int n = static_cast<int>(rng_.below(
        static_cast<std::uint64_t>(shape_.n_names)));
    switch (op) {
      case kFuzzOpenSend:
        ensure_send(n);
        break;
      case kFuzzOpenRecvFcfs:
        ensure_recv(n, Protocol::fcfs);
        break;
      case kFuzzOpenRecvBcast:
        ensure_recv(n, Protocol::broadcast);
        break;
      case kFuzzCloseSend: {
        const LnvcId id = me().send_id[static_cast<std::size_t>(n)];
        if (id == kInvalidLnvc) break;
        const Status st = f_.close_send(pid_, id);
        me().send_id[static_cast<std::size_t>(n)] = kInvalidLnvc;
        if (!status_in(st, {Status::ok, Status::no_such_lnvc,
                            Status::not_connected})) {
          unexpected("close_send", n, st);
        }
        break;
      }
      case kFuzzCloseRecv: {
        const LnvcId id = me().recv_id[static_cast<std::size_t>(n)];
        if (id == kInvalidLnvc) break;
        const Status st = f_.close_receive(pid_, id);
        me().recv_id[static_cast<std::size_t>(n)] = kInvalidLnvc;
        if (!status_in(st, {Status::ok, Status::no_such_lnvc,
                            Status::not_connected})) {
          unexpected("close_receive", n, st);
        }
        break;
      }
      case kFuzzSend:
        do_send(n, /*vectored=*/false, /*timed=*/false);
        break;
      case kFuzzSendv:
        do_send(n, /*vectored=*/true, /*timed=*/true);
        break;
      case kFuzzSendTimed:
        do_send(n, /*vectored=*/false, /*timed=*/true);
        break;
      case kFuzzTryRecv:
        do_receive(n, /*blocking=*/false);
        break;
      case kFuzzRecvFor:
        do_receive(n, /*blocking=*/true);
        break;
      case kFuzzRecvView:
        do_receive_view(n);
        break;
      case kFuzzRecvAny:
        do_receive_any();
        break;
      case kFuzzReleaseView:
        do_release_view();
        break;
      case kFuzzCheck: {
        const LnvcId id = me().recv_id[static_cast<std::size_t>(n)];
        if (id == kInvalidLnvc) break;
        bool avail = false;
        const Status st = f_.check(pid_, id, &avail);
        if (!status_in(st, {Status::ok, Status::no_such_lnvc,
                            Status::not_connected})) {
          unexpected("check", n, st);
        }
        break;
      }
      case kFuzzSetAdmission: {
        if (!shape_.flip_admission) break;
        if (!ensure_send(n)) break;
        const LnvcId id = me().send_id[static_cast<std::size_t>(n)];
        static constexpr AdmissionPolicy kPolicies[] = {
            AdmissionPolicy::block, AdmissionPolicy::shed_newest,
            AdmissionPolicy::fail_fast};
        const std::uint32_t qb =
            rng_.chance(40) ? 0
                            : 4 + static_cast<std::uint32_t>(rng_.below(60));
        const std::uint32_t qs =
            rng_.chance(60) ? 0 : 1 + static_cast<std::uint32_t>(rng_.below(4));
        const Status st = f_.set_admission(pid_, id, qb, qs,
                                           kPolicies[rng_.below(3)]);
        if (!status_in(st, {Status::ok, Status::no_such_lnvc,
                            Status::not_connected})) {
          unexpected("set_admission", n, st);
        }
        maybe_drop(n, st, /*sender=*/true);
        break;
      }
      case kFuzzSendPulse:
        do_send_pulse(n);
        break;
      case kFuzzRecvPulse:
        do_receive_pulse(n);
        break;
      case kFuzzPollSet:
        do_pollset(n);
        break;
      case kFuzzReap: {
        const ProcessId q = static_cast<ProcessId>(
            rng_.below(static_cast<std::uint64_t>(shape_.p.procs)));
        if (q == pid_ || f_.process_alive(q)) break;
        f_.declare_dead(q);
        const Status st = f_.reap(pid_, q);
        if (!status_in(st, {Status::ok, Status::invalid_argument})) {
          unexpected("reap", static_cast<int>(q), st);
        }
        break;
      }
      default:
        break;
    }
  }

  Facility& f_;
  CaseState& cs_;
  const CaseShape& shape_;
  int rank_;
  ProcessId pid_;
  Rng rng_;
  std::vector<std::uint32_t> draw_;
};

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t hash_trace(const sim::Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const sim::TraceEvent& e : trace.events()) {
    h = fnv_mix(h, e.time_ns);
    h = fnv_mix(h, static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(e.process)));
    h = fnv_mix(h, static_cast<std::uint64_t>(e.kind));
    h = fnv_mix(h, e.detail);
  }
  return h;
}

/// Per-round fault plan: seed-derived kills/pauses, filtered so it never
/// targets an already-dead rank and always leaves at least one
/// cumulatively live rank untargeted (otherwise a round could end with no
/// process able to reap the corpses).
sim::FaultPlan round_plan(const CaseShape& shape, int round,
                          const std::vector<char>& dead) {
  if (shape.p.max_kills <= 0 && shape.p.max_pauses <= 0) return {};
  const std::uint64_t rseed =
      mix64(shape.p.seed, 0x464c5400ull + static_cast<std::uint64_t>(round));
  const sim::FaultPlan raw = sim::FaultPlan::random(
      rseed, shape.p.procs, std::max(shape.p.max_kills, 1), 3'000'000,
      /*first_victim=*/0, shape.p.max_pauses);
  sim::FaultPlan plan;
  std::vector<char> targeted(static_cast<std::size_t>(shape.p.procs), 0);
  for (const sim::FaultAction& a : raw.actions) {
    if (a.process < 0 || a.process >= shape.p.procs) continue;
    if (dead[static_cast<std::size_t>(a.process)] != 0) continue;
    if (a.kind == sim::FaultAction::Kind::pause) {
      plan.actions.push_back(a);
      continue;
    }
    if (shape.p.max_kills <= 0) continue;  // kills disabled, pauses kept
    plan.actions.push_back(a);
    targeted[static_cast<std::size_t>(a.process)] = 1;
  }
  // Keep one live untargeted rank: drop kills from the back until true.
  auto has_survivor = [&] {
    for (int p = 0; p < shape.p.procs; ++p) {
      if (dead[static_cast<std::size_t>(p)] == 0 &&
          targeted[static_cast<std::size_t>(p)] == 0) {
        return true;
      }
    }
    return false;
  };
  while (!has_survivor()) {
    for (std::size_t i = plan.actions.size(); i-- > 0;) {
      if (plan.actions[i].kind != sim::FaultAction::Kind::pause) {
        targeted[static_cast<std::size_t>(plan.actions[i].process)] = 0;
        plan.actions.erase(plan.actions.begin() +
                           static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
  return plan;
}

}  // namespace

const char* fuzz_op_name(std::uint32_t op) noexcept {
  static constexpr const char* kNames[kFuzzOpCount] = {
      "open_send",    "open_recv_fcfs", "open_recv_bcast", "close_send",
      "close_recv",   "send",           "sendv",           "send_timed",
      "receive_poll", "receive_timed",  "receive_view",    "receive_any",
      "release_view", "check",          "set_admission",   "reap",
      "send_pulse",   "receive_pulse",  "pollset"};
  return op < kFuzzOpCount ? kNames[op] : "?";
}

FuzzResult run_fuzz_case(const FuzzParams& params) {
  const CaseShape shape = resolve(params);
  FuzzResult res;
  res.procs = shape.p.procs;
  res.rounds = shape.p.rounds;
  res.ops = shape.p.ops;
  res.max_kills = shape.p.max_kills;
  res.max_pauses = shape.p.max_pauses;
  res.lockfree = shape.p.lockfree;
  res.trace_hash = 0xcbf29ce484222325ull;

  CaseState cs;
  cs.ranks.resize(static_cast<std::size_t>(shape.p.procs));
  cs.sent.resize(static_cast<std::size_t>(shape.p.procs));
  for (auto& a : cs.sent) a.fill(0);
  cs.seen.resize(static_cast<std::size_t>(shape.p.procs));
  for (auto& per_name : cs.seen) {
    for (auto& per_sender : per_name) per_sender.fill(0);
  }
  std::vector<char> dead(static_cast<std::size_t>(shape.p.procs), 0);

  shm::HeapRegion region(shape.config.derived_arena_bytes());
  Facility facility;

  for (int round = 0; round < shape.p.rounds; ++round) {
    sim::Simulator simulator{};
    sim::Trace trace;
    simulator.set_trace(&trace);
    simulator.set_fault_plan(round_plan(shape, round, dead));
    sim::SimPlatform platform(simulator);
    if (round == 0) {
      facility = Facility::create(shape.config, region, platform);
    } else {
      facility.set_platform(platform);
    }
    simulator.spawn_group(shape.p.procs, [&](int rank) {
      if (dead[static_cast<std::size_t>(rank)] != 0) return;
      Script script(facility, cs, shape, rank, round);
      script.run();
    });
    try {
      simulator.run();
    } catch (const sim::DeadlockError& e) {
      // Every blocking op in the script is deadline-bounded, so a global
      // block is a lost wakeup — a real finding.  The aborted arena may
      // hold locks, so no oracle pass here.
      res.ok = false;
      res.failure = std::string("round ") + std::to_string(round) +
                    ": deadlock (lost wakeup?): " + e.what();
      return res;
    }
    res.kills += simulator.kills();
    res.trace_hash = fnv_mix(res.trace_hash, hash_trace(trace));
    simulator.set_trace(nullptr);

    // Round barrier: ledger the new corpses, sweep them from the main
    // thread (reap is idempotent; survivors may already have), and
    // assert the full invariant catalogue at a true quiescence point.
    for (int p = 0; p < shape.p.procs; ++p) {
      if (!simulator.process_alive(p)) {
        dead[static_cast<std::size_t>(p)] = 1;
        cs.ranks[static_cast<std::size_t>(p)].views.clear();
        // The reap below destroys the corpse's poll set with it.
        cs.ranks[static_cast<std::size_t>(p)].pollset = kInvalidPollSet;
      }
    }
    ProcessId survivor = 0;
    for (int p = 0; p < shape.p.procs; ++p) {
      if (dead[static_cast<std::size_t>(p)] == 0) {
        survivor = static_cast<ProcessId>(p);
        break;
      }
    }
    for (int p = 0; p < shape.p.procs; ++p) {
      if (dead[static_cast<std::size_t>(p)] != 0) {
        facility.declare_dead(static_cast<ProcessId>(p));
        (void)facility.reap(survivor, static_cast<ProcessId>(p));
      }
    }
    if (!cs.failure.empty()) {
      res.ok = false;
      res.failure =
          std::string("round ") + std::to_string(round) + ": " + cs.failure;
      return res;
    }
    const InvariantReport report =
        InvariantOracle::check(facility, /*quiescent=*/true);
    ++res.oracle_checks;
    if (!report.ok()) {
      res.ok = false;
      res.failure = std::string("round ") + std::to_string(round) +
                    ": invariant violation(s):\n" + report.summary();
      return res;
    }
    // Bucket-chain shape: at quiescence every descriptor is chained or
    // freelisted, no chain exceeds the live-name count, and the occupancy
    // histogram accounts for every bucket exactly once.
    const DirectoryInfo dir = facility.directory_info();
    std::uint64_t hist_buckets = 0;
    for (const std::uint32_t c : dir.chain_histogram) hist_buckets += c;
    char shape_msg[160];
    shape_msg[0] = '\0';
    if (dir.live_names + dir.free_slots != shape.config.max_lnvcs) {
      std::snprintf(shape_msg, sizeof shape_msg,
                    "directory shape: %u chained + %u free != %u slots",
                    dir.live_names, dir.free_slots, shape.config.max_lnvcs);
    } else if (dir.max_chain > dir.live_names) {
      std::snprintf(shape_msg, sizeof shape_msg,
                    "directory shape: max chain %u > %u live names",
                    dir.max_chain, dir.live_names);
    } else if (hist_buckets != dir.buckets) {
      std::snprintf(shape_msg, sizeof shape_msg,
                    "directory shape: histogram covers %llu of %u buckets",
                    static_cast<unsigned long long>(hist_buckets),
                    dir.buckets);
    }
    if (shape_msg[0] != '\0') {
      res.ok = false;
      res.failure = std::string("round ") + std::to_string(round) + ": " +
                    shape_msg;
      return res;
    }
  }
  const FacilityStats stats = facility.stats();
  res.sends = stats.sends;
  res.receives = stats.receives;
  return res;
}

std::string fuzz_repro_line(const FuzzParams& params,
                            const FuzzResult& result) {
  char line[256];
  std::snprintf(line, sizeof line,
                "mpf_fuzz --seed %llu --procs %d --rounds %d --ops %d "
                "--kills %d --pauses %d --lockfree %d --opmask 0x%x",
                static_cast<unsigned long long>(params.seed), result.procs,
                result.rounds, result.ops, result.max_kills,
                result.max_pauses, result.lockfree, params.opmask);
  return line;
}

}  // namespace mpf::benchlib
