// Timed waits: wall-clock deadlines natively, virtual-time deadlines under
// the simulator (where the timeout is exact and deterministic), and the one
// timeout rule every wait shares — kNoTimeout (or any timeout too large
// for the clock) waits forever, 0 polls.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "mpf/core/channel.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/core/ports.hpp"
#include "mpf/core/rendezvous.hpp"
#include "mpf/runtime/timer.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/sim/sim_platform.hpp"

namespace {

using namespace mpf;

struct TimeoutTest : ::testing::Test {
  Config config = [] {
    Config c;
    c.max_lnvcs = 8;
    c.max_processes = 8;
    return c;
  }();
  shm::HeapRegion region{config.derived_arena_bytes()};
  Facility f{Facility::create(config, region)};
};

TEST_F(TimeoutTest, ExpiresWhenNothingArrives) {
  LnvcId rx;
  ASSERT_EQ(f.open_receive(0, "idle", Protocol::fcfs, &rx), Status::ok);
  char buf[8];
  std::size_t len = 0;
  rt::WallTimer timer;
  EXPECT_EQ(f.receive(0, rx, buf, sizeof(buf), &len, 30'000'000),
            Status::timed_out);
  const double waited = timer.elapsed_s();
  EXPECT_GE(waited, 0.025);
  EXPECT_LT(waited, 2.0);
}

TEST_F(TimeoutTest, DeliversWhenMessageArrivesInTime) {
  LnvcId rx;
  ASSERT_EQ(f.open_receive(0, "busy", Protocol::fcfs, &rx), Status::ok);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    LnvcId tx;
    ASSERT_EQ(f.open_send(1, "busy", &tx), Status::ok);
    int v = 17;
    ASSERT_EQ(f.send(1, tx, &v, sizeof(v)), Status::ok);
    ASSERT_EQ(f.close_send(1, tx), Status::ok);
  });
  int got = 0;
  std::size_t len = 0;
  EXPECT_EQ(f.receive(0, rx, &got, sizeof(got), &len, 5'000'000'000ull),
            Status::ok);
  EXPECT_EQ(got, 17);
  sender.join();
}

TEST_F(TimeoutTest, ZeroTimeoutIsAPoll) {
  LnvcId tx, rx;
  ASSERT_EQ(f.open_send(0, "p", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "p", Protocol::fcfs, &rx), Status::ok);
  char buf[8];
  std::size_t len = 0;
  EXPECT_EQ(f.receive(1, rx, buf, sizeof(buf), &len, 0),
            Status::timed_out);
  int v = 3;
  ASSERT_EQ(f.send(0, tx, &v, sizeof(v)), Status::ok);
  EXPECT_EQ(f.receive(1, rx, buf, sizeof(buf), &len, 0), Status::ok);
}

TEST_F(TimeoutTest, PortWrapper) {
  Participant p(f, 0);
  ReceivePort rx = p.open_receive("w", Protocol::broadcast);
  std::vector<std::byte> buf(16);
  Received r{};
  EXPECT_FALSE(rx.receive_for(buf, 10'000'000, &r));
  Participant s(f, 1);
  SendPort tx = s.open_send("w");
  tx.send("hello");
  EXPECT_TRUE(rx.receive_for(buf, 10'000'000, &r));
  EXPECT_EQ(r.length, 5u);
}

// ------------------------------------------- huge timeouts wait forever

/// Runs `late` on a thread after ~100 ms, while the caller blocks.
class Later {
 public:
  template <typename F>
  explicit Later(F late)
      : thread_([late] {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          late();
        }) {}
  ~Later() { thread_.join(); }
  Later(const Later&) = delete;
  Later& operator=(const Later&) = delete;

 private:
  std::thread thread_;
};

/// Every wait given a timeout too large to add to the clock must block
/// until the late message (or room) arrives, not time out at once.
struct HugeTimeout : TimeoutTest,
                     ::testing::WithParamInterface<std::uint64_t> {
  const std::uint64_t timeout = GetParam();
  rt::WallTimer timer;
  /// A receiver (pid 0) on `name` whose message pid 1 sends ~100 ms late.
  LnvcId late_circuit(const char* name, int value) {
    LnvcId rx = kInvalidLnvc;
    EXPECT_EQ(f.open_receive(0, name, Protocol::fcfs, &rx), Status::ok);
    LnvcId tx = kInvalidLnvc;
    EXPECT_EQ(f.open_send(1, name, &tx), Status::ok);
    late_ = std::make_unique<Later>([this, tx, value] {
      EXPECT_EQ(f.send(1, tx, &value, sizeof(value)), Status::ok);
    });
    return rx;
  }
  void expect_waited() {
    late_.reset();
    EXPECT_GE(timer.elapsed_s(), 0.05);
  }

 private:
  std::unique_ptr<Later> late_;
};

TEST_P(HugeTimeout, Receive) {
  const LnvcId rx = late_circuit("r", 17);
  int got = 0;
  std::size_t len = 0;
  EXPECT_EQ(f.receive(0, rx, &got, sizeof(got), &len, timeout), Status::ok);
  EXPECT_EQ(got, 17);
  expect_waited();
}

TEST_P(HugeTimeout, ReceiveView) {
  const LnvcId rx = late_circuit("v", 18);
  MsgView view;
  ASSERT_EQ(f.receive_view(0, rx, &view, timeout), Status::ok);
  int got = 0;
  EXPECT_EQ(f.copy_view(view, &got, sizeof(got)), sizeof(got));
  EXPECT_EQ(got, 18);
  EXPECT_EQ(f.release_view(0, &view), Status::ok);
  expect_waited();
}

TEST_P(HugeTimeout, ReceiveAny) {
  LnvcId idle = kInvalidLnvc;
  ASSERT_EQ(f.open_receive(0, "idle", Protocol::fcfs, &idle), Status::ok);
  const LnvcId ids[] = {idle, late_circuit("a", 19)};
  int got = 0;
  std::size_t len = 0, index = 9;
  EXPECT_EQ(f.receive_any(0, ids, &got, sizeof(got), &len, &index, timeout),
            Status::ok);
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(got, 19);
  expect_waited();
}

TEST_P(HugeTimeout, PollSetWait) {
  const LnvcId rx = late_circuit("p", 20);
  PollSetId ps = kInvalidPollSet;
  ASSERT_EQ(f.pollset_create(0, &ps), Status::ok);
  ASSERT_EQ(f.pollset_add(0, ps, rx), Status::ok);
  LnvcId ready = kInvalidLnvc;
  EXPECT_EQ(f.pollset_wait(0, ps, &ready, timeout), Status::ok);
  EXPECT_EQ(ready, rx);
  expect_waited();
}

TEST_P(HugeTimeout, QuotaParkedSend) {
  LnvcId rx = kInvalidLnvc, tx = kInvalidLnvc;
  ASSERT_EQ(f.open_receive(0, "q", Protocol::fcfs, &rx), Status::ok);
  ASSERT_EQ(f.open_send(1, "q", &tx), Status::ok);
  ASSERT_EQ(f.set_admission(1, tx, 1, 0, AdmissionPolicy::block), Status::ok);
  const int v = 21;
  ASSERT_EQ(f.send(1, tx, &v, sizeof(v)), Status::ok);  // fills the quota
  {
    Later drain([&] {
      int got = 0;
      std::size_t len = 0;
      EXPECT_EQ(f.receive(0, rx, &got, sizeof(got), &len), Status::ok);
    });
    EXPECT_EQ(f.send(1, tx, &v, sizeof(v), timeout), Status::ok);
  }
  EXPECT_GE(timer.elapsed_s(), 0.05);
  EXPECT_EQ(f.stats().sends_timed_out, 0u);
}

TEST_P(HugeTimeout, ReceivePortReceiveFor) {
  Participant p(f, 0);
  ReceivePort rx = p.open_receive("port", Protocol::fcfs);
  Participant s(f, 1);
  SendPort tx = s.open_send("port");
  std::vector<std::byte> buf(16);
  Received r{};
  {
    Later send([&] { tx.send("late"); });
    EXPECT_TRUE(rx.receive_for(buf, timeout, &r));
  }
  EXPECT_EQ(r.length, 4u);
  EXPECT_GE(timer.elapsed_s(), 0.05);
}

TEST_P(HugeTimeout, ChannelSendFor) {
  std::vector<std::byte> memory(Channel::footprint(64));
  Channel ch = Channel::create(memory.data(), 64);
  const std::array<std::byte, 12> payload{};
  while (ch.send_for(payload, 0) == Status::ok) {
  }
  {
    Later drain([&] {
      std::array<std::byte, 16> buf{};
      (void)ch.receive(buf);
    });
    EXPECT_EQ(ch.send_for(payload, timeout), Status::ok);
  }
  EXPECT_GE(timer.elapsed_s(), 0.05);
}

TEST_P(HugeTimeout, RendezvousSendFor) {
  RendezvousCell cell;
  Rendezvous r(cell);
  const std::array<std::byte, 8> payload{};
  {
    Later take([&] {
      Rendezvous peer(cell);
      std::array<std::byte, 8> buf{};
      EXPECT_EQ(peer.receive(buf), payload.size());
    });
    EXPECT_EQ(r.send_for(payload, timeout), Status::ok);
  }
  EXPECT_GE(timer.elapsed_s(), 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Timeouts, HugeTimeout,
    ::testing::Values(Facility::kNoTimeout, Facility::kNoTimeout - 5),
    [](const ::testing::TestParamInfo<std::uint64_t>& p) {
      return p.param == Facility::kNoTimeout ? "NoTimeout" : "NearMax";
    });

// ------------------------------------------------------------ the poll rule

/// Timeout 0 is one poll, alike for receive, receive_view and receive_any:
/// nothing queued is timed_out, an idle circuit whose last sender died is
/// lnvc_orphaned.
struct PollRule : TimeoutTest {
  LnvcId empty[2] = {kInvalidLnvc, kInvalidLnvc};
  LnvcId orphaned[2] = {kInvalidLnvc, kInvalidLnvc};
  char buf[8] = {};
  std::size_t len = 0;
  std::size_t index = 0;
  MsgView view;

  void SetUp() override {
    const char* names[] = {"e0", "e1", "o0", "o1"};
    LnvcId* rx[] = {&empty[0], &empty[1], &orphaned[0], &orphaned[1]};
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(f.open_receive(0, names[i], Protocol::fcfs, rx[i]),
                Status::ok);
      LnvcId tx = kInvalidLnvc;
      // pid 1 sends on the empty circuits and stays alive; pid 2 sends on
      // the orphaned ones and dies.
      ASSERT_EQ(f.open_send(i < 2 ? 1 : 2, names[i], &tx), Status::ok);
    }
    f.declare_dead(2);
    ASSERT_EQ(f.reap(1, 2), Status::ok);
  }
};

TEST_F(PollRule, Receive) {
  EXPECT_EQ(f.receive(0, empty[0], buf, sizeof buf, &len, 0),
            Status::timed_out);
  EXPECT_EQ(f.receive(0, orphaned[0], buf, sizeof buf, &len, 0),
            Status::lnvc_orphaned);
}

TEST_F(PollRule, ReceiveView) {
  EXPECT_EQ(f.receive_view(0, empty[0], &view, 0), Status::timed_out);
  EXPECT_FALSE(view.valid());
  EXPECT_EQ(f.receive_view(0, orphaned[0], &view, 0), Status::lnvc_orphaned);
  EXPECT_FALSE(view.valid());
}

TEST_F(PollRule, ReceiveAny) {
  // One circuit (the single-circuit path) and two (the watch path).
  EXPECT_EQ(f.receive_any(0, std::span(empty, 1), buf, sizeof buf, &len,
                          &index, 0),
            Status::timed_out);
  EXPECT_EQ(f.receive_any(0, empty, buf, sizeof buf, &len, &index, 0),
            Status::timed_out);
  EXPECT_EQ(f.receive_any(0, std::span(orphaned, 1), buf, sizeof buf, &len,
                          &index, 0),
            Status::lnvc_orphaned);
  EXPECT_EQ(f.receive_any(0, orphaned, buf, sizeof buf, &len, &index, 0),
            Status::lnvc_orphaned);
}

TEST(StatusPrinter, PrintsTheEnumeratorName) {
  EXPECT_EQ(::testing::PrintToString(Status::timed_out), "timed_out");
  EXPECT_EQ(::testing::PrintToString(Status::lnvc_orphaned), "lnvc_orphaned");
}

TEST(TimeoutSim, VirtualDeadlineIsExact) {
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  sim::Simulator simulator;
  sim::SimPlatform platform(simulator);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region, platform);
  sim::Time woke_at = 0;
  simulator.spawn([&] {
    LnvcId rx;
    ASSERT_EQ(f.open_receive(0, "t", Protocol::fcfs, &rx), Status::ok);
    char buf[8];
    std::size_t len = 0;
    const sim::Time start = simulator.now();
    ASSERT_EQ(f.receive(0, rx, buf, sizeof(buf), &len, 250'000'000),
              Status::timed_out);
    woke_at = simulator.now() - start;
  });
  simulator.run();
  // Deterministic: the requested interval plus the modeled fixed receive
  // cost (charged before the deadline starts) and lock reacquisition.
  EXPECT_GE(woke_at, 250'000'000u);
  EXPECT_LT(woke_at, 256'000'000u);
}

TEST(TimeoutSim, NotifyBeforeDeadlineWins) {
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  sim::Simulator simulator;
  sim::SimPlatform platform(simulator);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region, platform);
  int got = 0;
  simulator.spawn([&] {
    LnvcId rx;
    ASSERT_EQ(f.open_receive(0, "t", Protocol::fcfs, &rx), Status::ok);
    std::size_t len = 0;
    ASSERT_EQ(f.receive(0, rx, &got, sizeof(got), &len, 1'000'000'000),
              Status::ok);
  });
  simulator.spawn([&] {
    simulator.advance(50'000'000);
    LnvcId tx;
    ASSERT_EQ(f.open_send(1, "t", &tx), Status::ok);
    int v = 88;
    ASSERT_EQ(f.send(1, tx, &v, sizeof(v)), Status::ok);
  });
  simulator.run();
  EXPECT_EQ(got, 88);
}

TEST(TimeoutSim, TimedSleepIsNotADeadlock) {
  // All processes asleep, but one with a deadline: the conductor must
  // promote it rather than declare deadlock.
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  sim::Simulator simulator;
  sim::SimPlatform platform(simulator);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region, platform);
  simulator.spawn([&] {
    LnvcId rx;
    ASSERT_EQ(f.open_receive(0, "never", Protocol::fcfs, &rx), Status::ok);
    char buf[4];
    std::size_t len = 0;
    EXPECT_EQ(f.receive(0, rx, buf, sizeof(buf), &len, 10'000'000),
              Status::timed_out);
  });
  EXPECT_NO_THROW(simulator.run());
}

}  // namespace
