#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <exception>
#include <numeric>
#include <string_view>

#include "mpf/apps/gauss_jordan.hpp"

namespace perfbench {

using mpf::Config;
using mpf::Facility;
using mpf::LnvcId;
using mpf::ProcessId;
using mpf::Protocol;
using mpf::Status;

Session::Session(const Options& o, int n, bool body, Tracer* t)
    : opt(o),
      threads(n),
      run_body(body),
      tracer(t),
      started_ns(static_cast<std::size_t>(n), 0) {
  for (int r = 0; r < n; ++r) {
    tally.push_back(std::make_unique<RankTally>(body));
  }
}

int Session::advance(std::uint64_t now) {
  const int p = phase.load(std::memory_order_relaxed);
  if (p == kWarm && now >= warm_end_ns) {
    window.begin = capture(fac);
    if (tracer != nullptr) tracer->set_slot(kSlotWindow);
    phase.store(kTimed, std::memory_order_release);
    return kTimed;
  }
  if (p == kTimed && now >= end_ns) {
    if (tracer != nullptr) tracer->set_slot(kSlotOther);
    window.end = capture(fac);
    phase.store(kStop, std::memory_order_release);
    return kStop;
  }
  return p;
}

bool Session::check(int rank, Status s, const char* what) {
  RankTally& t = *tally[static_cast<std::size_t>(rank)];
  ++t.attempted;
  if (s == Status::ok) return true;
  ++t.failed;
  fail(std::string(what) + " by rank " + std::to_string(rank) + ": " +
       mpf::to_string(s));
  return false;
}

void Session::fail(const std::string& why) {
  const std::lock_guard<std::mutex> lk(why_mu_);
  if (!bad_.exchange(true)) why_ = why;
}

std::string Session::why() const {
  const std::lock_guard<std::mutex> lk(why_mu_);
  return why_;
}

namespace {

constexpr std::uint64_t kStopSeq = ~std::uint64_t{0};

// Facility calls as the workloads issue them: spanned when tracing, and
// counted (attempted / failed) always.
bool open_send(Session& s, int rank, const std::string& name, LnvcId* id) {
  Status st;
  {
    const Scope sc(s.tracer, Span::open, 0);
    st = s.fac.open_send(static_cast<ProcessId>(rank), name, id);
  }
  return s.check(rank, st, "open_send");
}

bool open_receive(Session& s, int rank, const std::string& name,
                  LnvcId* id) {
  Status st;
  {
    const Scope sc(s.tracer, Span::open, 0);
    st = s.fac.open_receive(static_cast<ProcessId>(rank), name,
                            Protocol::fcfs, id);
  }
  return s.check(rank, st, "open_receive");
}

bool send(Session& s, Facility& f, int rank, LnvcId id, const void* p,
          std::size_t n, std::uint64_t msg) {
  Status st;
  {
    const Scope sc(s.tracer, Span::send, msg);
    st = f.send(static_cast<ProcessId>(rank), id, p, n);
  }
  return s.check(rank, st, "send");
}

bool receive(Session& s, Facility& f, int rank, LnvcId id, void* p,
             std::size_t cap, std::size_t* len, std::uint64_t msg) {
  Status st;
  {
    const Scope sc(s.tracer, Span::recv, msg);
    st = f.receive(static_cast<ProcessId>(rank), id, p, cap, len);
  }
  return s.check(rank, st, "receive");
}

/// Traced run only: sample one circuit's queue depth every 64th message.
void sample_depth(Session& s, const Facility& f, LnvcId id,
                  std::uint64_t n) {
  if (s.tracer == nullptr || n % 64 != 0) return;
  const std::size_t d = f.queued(id);
  s.depth.add(d);
  s.depth_max = std::max<std::uint64_t>(s.depth_max, d);
}

// --- pingpong ---------------------------------------------------------------
// The paper's base benchmark across two cores: one 16 B message in flight
// over two FCFS circuits, so the time goes into the wake/wait path.

struct Ping {
  std::uint64_t seq;
  std::uint64_t tag;
};
static_assert(sizeof(Ping) == 16);

class PingPong final : public Workload {
 public:
  explicit PingPong(const Options& o) : seed_(o.seed), corrupt_(o.corrupt) {}
  int threads() const override { return 2; }
  Config config() const override {
    Config c;
    c.max_processes = 2;
    return c;
  }
  void open(int rank, Session& s) override {
    if (rank == 0) {
      open_send(s, 0, "ping", &ping_);
      open_receive(s, 0, "pong", &pong_);
    } else {
      open_receive(s, 1, "ping", &ping_rx_);
      open_send(s, 1, "pong", &pong_tx_);
    }
  }
  void run(int rank, Session& s) override {
    Facility f = s.fac;
    if (rank == 0) {
      client(s, f);
    } else {
      server(s, f);
    }
  }

 private:
  void client(Session& s, Facility& f) {
    RankTally& t = *s.tally[0];
    for (std::uint64_t seq = 0;; ++seq) {
      const int p = s.advance(now_ns());
      if (p == kStop) break;
      const Ping out{seq, mix(seed_, seq)};
      Ping in{};
      std::size_t len = 0;
      const std::uint64_t t0 = now_ns();
      if (!send(s, f, 0, ping_, &out, sizeof out, seq) ||
          !receive(s, f, 0, pong_, &in, sizeof in, &len, seq)) {
        break;
      }
      const std::uint64_t t1 = now_ns();
      if (len != sizeof in || in.seq != out.seq || in.tag != out.tag) {
        s.fail("pingpong: echo differs from request " + std::to_string(seq));
        break;
      }
      if (p == kTimed) {
        t.lat.add(t1 - t0);
        t.msgs += 2;
        sample_depth(s, f, pong_, seq);
      }
    }
    const Ping stop{kStopSeq, 0};
    send(s, f, 0, ping_, &stop, sizeof stop, kStopSeq);
  }

  void server(Session& s, Facility& f) {
    for (;;) {
      Ping m{};
      std::size_t len = 0;
      if (!receive(s, f, 1, ping_rx_, &m, sizeof m, &len, 0)) return;
      if (len != sizeof m) {
        s.fail("pingpong: request of " + std::to_string(len) + " bytes");
      }
      if (m.seq == kStopSeq) return;
      if (corrupt_ && m.seq == 1000) m.tag ^= 1;
      if (!send(s, f, 1, pong_tx_, &m, sizeof m, m.seq)) return;
    }
  }

  std::uint64_t seed_;
  bool corrupt_;
  LnvcId ping_ = mpf::kInvalidLnvc, pong_ = mpf::kInvalidLnvc;
  LnvcId ping_rx_ = mpf::kInvalidLnvc, pong_tx_ = mpf::kInvalidLnvc;
};

// --- funnel -----------------------------------------------------------------
// The paper's FCFS benchmark: unthrottled senders push 1 KiB messages (a
// 103-block chain) into one FCFS receiver; the pool holds them back.  Two
// senders, not three: three threads leave one core of four to the harness
// and the host, where four made every preemption a stall of the pipeline.

constexpr int kFunnelSenders = 2;
constexpr std::size_t kFunnelWords = 1024 / sizeof(std::uint64_t);

class Funnel final : public Workload {
 public:
  explicit Funnel(const Options& o) : seed_(o.seed), corrupt_(o.corrupt) {}
  int threads() const override { return kFunnelSenders + 1; }
  // Beyond p90 a message's latency is the time its sender spent preempted
  // or napping in the pool-exhaustion wait, which moved the p99 by 2-10x
  // from run to run with the host's load.
  double tail_quantile() const override { return 0.90; }
  Config config() const override {
    Config c;
    c.max_processes = kFunnelSenders + 1;
    return c;
  }
  void open(int rank, Session& s) override {
    if (rank == 0) {
      open_receive(s, 0, "funnel", &rx_);
    } else {
      open_send(s, rank, "funnel", &tx_[static_cast<std::size_t>(rank)]);
    }
  }
  void run(int rank, Session& s) override {
    Facility f = s.fac;
    if (rank == 0) {
      receiver(s, f);
    } else {
      sender(s, f, rank);
    }
  }
  void finish(Session& s) override {
    for (int r = 1; r <= kFunnelSenders; ++r) {
      const auto i = static_cast<std::size_t>(r);
      if (expect_[i] != sent_[i]) {
        s.fail("funnel: sender " + std::to_string(r) + " sent " +
               std::to_string(sent_[i]) + ", " + std::to_string(expect_[i]) +
               " delivered");
      }
    }
  }

 private:
  // Word 0: sender, 1: seq, 2: send timestamp, 3..: seeded body.
  void fill(std::array<std::uint64_t, kFunnelWords>& m, int rank,
            std::uint64_t seq) const {
    const std::uint64_t base =
        mix(seed_ ^ static_cast<std::uint64_t>(rank), seq);
    m[0] = static_cast<std::uint64_t>(rank);
    m[1] = seq;
    for (std::size_t i = 3; i < kFunnelWords; ++i) {
      m[i] = base + i * 0x9e3779b97f4a7c15ull;
    }
  }

  void sender(Session& s, Facility& f, int rank) {
    std::array<std::uint64_t, kFunnelWords> m{};
    const auto i = static_cast<std::size_t>(rank);
    // Locals, not members, in the loop: the receiver writes expect_ on
    // every message, and a shared line would be the harness's contention.
    const LnvcId tx = tx_[i];
    std::uint64_t seq = 0;
    for (; s.phase.load(std::memory_order_acquire) != kStop; ++seq) {
      fill(m, rank, seq);
      if (corrupt_ && rank == 1 && seq == 1000) m[kFunnelWords - 1] ^= 1;
      m[2] = now_ns();
      if (!send(s, f, rank, tx, m.data(), sizeof m, seq)) break;
    }
    sent_[i] = seq;
    m[0] = static_cast<std::uint64_t>(rank);
    m[1] = kStopSeq;
    send(s, f, rank, tx, m.data(), sizeof m, kStopSeq);
  }

  void receiver(Session& s, Facility& f) {
    RankTally& t = *s.tally[0];
    std::array<std::uint64_t, kFunnelWords> m{};
    std::array<std::uint64_t, kFunnelWords> want{};
    int ends = 0;
    for (std::uint64_t n = 0; ends < kFunnelSenders; ++n) {
      const int p = s.advance(now_ns());
      std::size_t len = 0;
      if (!receive(s, f, 0, rx_, m.data(), sizeof m, &len, n)) return;
      const std::uint64_t t1 = now_ns();
      const std::uint64_t r = m[0];
      if (len != sizeof m || r < 1 || r > kFunnelSenders) {
        s.fail("funnel: malformed message");
        continue;
      }
      if (m[1] == kStopSeq) {
        ++ends;
        continue;
      }
      // A wrong message is recorded and the drain goes on, so the senders
      // are never left blocked on a full pool.
      if (m[1] != expect_[r]) {
        s.fail("funnel: sender " + std::to_string(r) + " seq " +
               std::to_string(m[1]) + " arrived, expected " +
               std::to_string(expect_[r]));
        expect_[r] = m[1];
      }
      fill(want, static_cast<int>(r), m[1]);
      if (std::memcmp(&m[3], &want[3], (kFunnelWords - 3) * 8) != 0) {
        s.fail("funnel: payload of sender " + std::to_string(r) + " seq " +
               std::to_string(m[1]) + " corrupted");
      }
      ++expect_[r];
      if (p == kTimed) {
        t.lat.add(t1 - m[2]);
        ++t.msgs;
        sample_depth(s, f, rx_, n);
      }
    }
  }

  std::uint64_t seed_;
  bool corrupt_;
  LnvcId rx_ = mpf::kInvalidLnvc;
  std::array<LnvcId, kFunnelSenders + 1> tx_{};
  std::array<std::uint64_t, kFunnelSenders + 1> sent_{};    // by sender
  std::array<std::uint64_t, kFunnelSenders + 1> expect_{};  // by receiver
};

// --- fanin ------------------------------------------------------------------
// One server in receive_any over 1.5k request circuits; one client rotates
// through them in a seeded order with one request outstanding, so the idle
// circuits are server state, not load.  With two clients whole runs settled
// faster or slower and the throughput moved by 17% from run to run.

constexpr int kClients = 1;
constexpr int kPerClient = 1500;

struct Request {
  std::uint16_t client;
  std::uint16_t circuit;
  std::uint32_t tag;
  std::uint64_t seq;
};
static_assert(sizeof(Request) == 16);

class FanIn final : public Workload {
 public:
  explicit FanIn(const Options& o) : seed_(o.seed), corrupt_(o.corrupt) {
    for (int c = 1; c <= kClients; ++c) {
      auto& order = order_[static_cast<std::size_t>(c)];
      order.resize(kPerClient);
      std::iota(order.begin(), order.end(), 0);
      mpf::rt::SplitMix64 rng(mix(seed_, static_cast<std::uint64_t>(c)));
      for (int i = kPerClient - 1; i > 0; --i) {
        std::swap(order[static_cast<std::size_t>(i)],
                  order[rng.below(static_cast<std::uint64_t>(i) + 1)]);
      }
    }
  }
  int threads() const override { return kClients + 1; }
  Config config() const override {
    Config c;
    c.max_processes = kClients + 1;
    c.max_lnvcs = 2048;
    return c;
  }
  void open(int rank, Session& s) override {
    if (rank == 0) {
      ids_.assign(kClients * kPerClient, mpf::kInvalidLnvc);
      for (int c = 1; c <= kClients; ++c) {
        for (int k = 0; k < kPerClient; ++k) {
          open_receive(s, 0, name(c, k), &ids_[index(c, k)]);
        }
        open_send(s, 0, "ack." + std::to_string(c),
                  &ack_tx_[static_cast<std::size_t>(c)]);
      }
      server_open_.store(true, std::memory_order_release);
      return;
    }
    // Clients connect once the server has created every circuit, so the
    // descriptor slots follow the server's order in every session instead
    // of an open race that reshuffles the memory receive_any scans.
    while (!server_open_.load(std::memory_order_acquire)) {
      mpf::sync::cpu_relax();
    }
    auto& req = req_[static_cast<std::size_t>(rank)];
    req.assign(kPerClient, mpf::kInvalidLnvc);
    for (const int k : order_[static_cast<std::size_t>(rank)]) {
      open_send(s, rank, name(rank, k), &req[static_cast<std::size_t>(k)]);
    }
    open_receive(s, rank, "ack." + std::to_string(rank),
                 &ack_rx_[static_cast<std::size_t>(rank)]);
  }
  void run(int rank, Session& s) override {
    Facility f = s.fac;
    if (rank == 0) {
      server(s, f);
    } else {
      client(s, f, rank);
    }
  }

 private:
  static std::string name(int c, int k) {
    return "req." + std::to_string(c) + "." + std::to_string(k);
  }
  static std::size_t index(int c, int k) {
    return static_cast<std::size_t>((c - 1) * kPerClient + k);
  }

  void client(Session& s, Facility& f, int c) {
    RankTally& t = *s.tally[static_cast<std::size_t>(c)];
    const auto ci = static_cast<std::size_t>(c);
    const auto& order = order_[ci];
    for (std::uint64_t seq = 0;; ++seq) {
      const int p = s.phase.load(std::memory_order_acquire);
      if (p == kStop) break;
      const int k = order[seq % kPerClient];
      const Request out{static_cast<std::uint16_t>(c),
                        static_cast<std::uint16_t>(k),
                        static_cast<std::uint32_t>(mix(seed_, seq ^ ci << 56)),
                        seq};
      Request in{};
      std::size_t len = 0;
      const std::uint64_t t0 = now_ns();
      if (!send(s, f, c, req_[ci][static_cast<std::size_t>(k)], &out,
                sizeof out, seq) ||
          !receive(s, f, c, ack_rx_[ci], &in, sizeof in, &len, seq)) {
        break;
      }
      const std::uint64_t t1 = now_ns();
      if (len != sizeof in || std::memcmp(&in, &out, sizeof in) != 0) {
        s.fail("fanin: ack differs from request " + std::to_string(seq) +
               " of client " + std::to_string(c));
        break;
      }
      if (p == kTimed) t.lat.add(t1 - t0);
    }
    const int k = order[0];
    const Request stop{static_cast<std::uint16_t>(c),
                       static_cast<std::uint16_t>(k), 0, kStopSeq};
    send(s, f, c, req_[ci][static_cast<std::size_t>(k)], &stop, sizeof stop,
         kStopSeq);
  }

  void server(Session& s, Facility& f) {
    RankTally& t = *s.tally[0];
    int stops = 0;
    while (stops < kClients) {
      const int p = s.advance(now_ns());
      Request r{};
      std::size_t len = 0;
      std::size_t at = 0;
      Status st;
      {
        const Scope sc(s.tracer, Span::any, 0);
        st = f.receive_any(0, ids_, &r, sizeof r, &len, &at);
      }
      if (!s.check(0, st, "receive_any")) return;
      if (at >= ids_.size()) {
        s.fail("fanin: receive_any returned index " + std::to_string(at));
        return;
      }
      // The circuit names the client; a request that disagrees is recorded
      // and still acked, so no client is left waiting.
      const int client = static_cast<int>(at / kPerClient) + 1;
      if (len != sizeof r || index(r.client, r.circuit) != at) {
        s.fail("fanin: request arrived on the wrong circuit");
      }
      if (r.seq == kStopSeq) {
        ++stops;
        continue;
      }
      if (corrupt_ && r.seq == 100) r.tag ^= 1;
      const LnvcId ack = ack_tx_[static_cast<std::size_t>(client)];
      if (!send(s, f, 0, ack, &r, sizeof r, r.seq)) return;
      if (p == kTimed) {
        t.msgs += 2;
        sample_depth(s, f, ack, t.msgs / 2);
      }
    }
  }

  std::uint64_t seed_;
  bool corrupt_;
  std::array<std::vector<int>, kClients + 1> order_;
  std::vector<LnvcId> ids_;                          // server's receive set
  std::array<LnvcId, kClients + 1> ack_tx_{};        // server -> client c
  std::array<std::vector<LnvcId>, kClients + 1> req_;  // client c's sends
  std::array<LnvcId, kClients + 1> ack_rx_{};
  std::atomic<bool> server_open_{false};
};

// --- gauss_jordan -----------------------------------------------------------
// The paper's application: apps::gj::worker on a seeded system, FCFS pivot
// candidates plus BROADCAST 8 KiB pivot rows, with real arithmetic between.

constexpr int kRanks = 4;
constexpr int kOrder = 1024;
/// Solves before the window may open, whatever the clock says.
constexpr int kWarmSolves = 1;
/// ||Ax - b||_inf bound for a correct solve of the diagonally boosted
/// system; observed residuals are ~1e-13.
constexpr double kResidualTol = 1e-8;

class GaussJordan final : public Workload {
 public:
  explicit GaussJordan(const Options& o)
      : corrupt_(o.corrupt),
        problem_(mpf::apps::gj::random_problem(kOrder, o.seed)),
        solve_barrier_(kRanks) {}
  int threads() const override { return kRanks; }
  // Compute-bound solves do not show the per-arena modes, and each window
  // pays a warm-up solve.
  int windows() const override { return 8; }
  Config config() const override {
    Config c;
    c.max_processes = kRanks;
    return c;
  }
  void open(int rank, Session& s) override {
    (void)rank;
    (void)s;  // the worker opens its own circuits
  }
  void run(int rank, Session& s) override {
    Facility f = s.fac;
    RankTally& t = *s.tally[static_cast<std::size_t>(rank)];
    for (int iter = 0;; ++iter) {
      if (rank == 0) {
        decision_.store(iter < kWarmSolves ? kWarm : s.advance(now_ns()),
                        std::memory_order_relaxed);
      }
      solve_barrier_.arrive_and_wait();
      const int d = decision_.load(std::memory_order_relaxed);
      if (d == kStop) return;
      const std::uint64_t t0 = now_ns();
      std::vector<double> x;
      try {
        x = mpf::apps::gj::worker(f, rank, kRanks, problem_, "gj");
      } catch (const std::exception& e) {
        s.fail(std::string("gauss_jordan: ") + e.what());
        ++t.failed;
        return;
      }
      if (rank != 0) continue;
      const std::uint64_t t1 = now_ns();
      ++t.attempted;
      if (corrupt_ && iter == kWarmSolves) x[0] += 1.0;
      const double res = mpf::apps::gj::max_residual(problem_, x);
      worst_ = std::max(worst_, res);
      if (!(res <= kResidualTol)) {
        ++t.failed;
        s.fail("gauss_jordan: residual " + std::to_string(res));
      }
      if (d == kTimed) {
        t.lat.add(t1 - t0);
        ++solves_;
      }
    }
  }
  void finish(Session& s) override {
    // Every delivery of a solve, counted exactly: per pivot step kRanks
    // candidate reports, one advice and one pivot row broadcast to all
    // kRanks, then kOrder solution entries.
    const std::uint64_t per_solve =
        static_cast<std::uint64_t>(kOrder) * (3 * kRanks) + kOrder;
    s.tally[0]->msgs = solves_ * per_solve;
    if (!s.run_body || solves_ == 0) return;
    const double got = s.window.delta(&mpf::FacilityStats::receives);
    if (got != static_cast<double>(s.tally[0]->msgs)) {
      s.fail("gauss_jordan: facility delivered " + std::to_string(got) +
             " messages in the window, expected " +
             std::to_string(s.tally[0]->msgs));
    }
  }
  std::vector<Extra> extras(const Session& s) const override {
    (void)s;
    return {{"solves", static_cast<double>(solves_), "count"},
            {"max_residual", worst_, "1"}};
  }

 private:
  bool corrupt_;
  mpf::apps::gj::Problem problem_;
  HotBarrier solve_barrier_;
  std::atomic<int> decision_{kWarm};
  std::uint64_t solves_ = 0;
  double worst_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"pingpong", "funnel",
                                                 "fanin", "gauss_jordan"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "pingpong") return std::make_unique<PingPong>(opt);
  if (opt.workload == "funnel") return std::make_unique<Funnel>(opt);
  if (opt.workload == "fanin") return std::make_unique<FanIn>(opt);
  if (opt.workload == "gauss_jordan") {
    return std::make_unique<GaussJordan>(opt);
  }
  return nullptr;
}

}  // namespace perfbench
