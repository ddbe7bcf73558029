// A blocked process costs no CPU: every native blocking wait sleeps on its
// futex word after a bounded spin.  Each case blocks one thread for
// ~300 ms of wall time and requires its thread CPU time (getrusage
// RUSAGE_THREAD) to stay under 10% of the wall time it spent blocked.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "mpf/core/facility.hpp"
#include "mpf/core/rendezvous.hpp"
#include "mpf/runtime/timer.hpp"
#include "mpf/shm/region.hpp"

namespace {

using namespace mpf;

double thread_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

/// Run `blocked` on its own thread, call `release` 300 ms later, and check
/// the blocked thread's CPU bill.
void expect_idle_while_blocked(const std::function<void()>& blocked,
                               const std::function<void()>& release) {
  std::atomic<bool> entered{false};
  double cpu_s = 0;
  double wall_s = 0;
  std::thread waiter([&] {
    const double cpu0 = thread_cpu_s();
    rt::WallTimer timer;
    entered.store(true);
    blocked();
    wall_s = timer.elapsed_s();
    cpu_s = thread_cpu_s() - cpu0;
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  release();
  waiter.join();
  EXPECT_GE(wall_s, 0.25);
  EXPECT_LT(cpu_s, 0.1 * wall_s)
      << "blocked " << wall_s * 1e3 << " ms, burned " << cpu_s * 1e3
      << " ms of CPU";
}

constexpr std::size_t kMsg = 100;  // 10 blocks of the default 10 B payload

struct IdleCpuTest : ::testing::Test {
  Config config = [] {
    Config c;
    c.max_lnvcs = 8;
    c.max_processes = 8;
    return c;
  }();
  std::unique_ptr<shm::HeapRegion> region;
  Facility f;
  LnvcId tx = kInvalidLnvc;
  LnvcId rx = kInvalidLnvc;
  std::array<std::byte, kMsg> payload{};

  /// Create the facility with `config` and connect sender 0 to receiver 1.
  void connect() {
    region = std::make_unique<shm::HeapRegion>(config.derived_arena_bytes());
    f = Facility::create(config, *region);
    ASSERT_EQ(f.open_send(0, "idle", &tx), Status::ok);
    ASSERT_EQ(f.open_receive(1, "idle", Protocol::fcfs, &rx), Status::ok);
  }
  /// Send until a send would have to wait (pool or quota full).
  void fill() {
    int sent = 0;
    while (f.send(0, tx, payload.data(), kMsg, 0) == Status::ok) ++sent;
    ASSERT_GT(sent, 0);
  }
  void receive_one() {
    std::array<std::byte, kMsg> buf{};
    std::size_t len = 0;
    ASSERT_EQ(f.receive(1, rx, buf.data(), buf.size(), &len), Status::ok);
  }
};

TEST_F(IdleCpuTest, BlockedReceive) {
  connect();
  expect_idle_while_blocked(
      [&] { receive_one(); },
      [&] {
        ASSERT_EQ(f.send(0, tx, payload.data(), kMsg), Status::ok);
      });
}

TEST_F(IdleCpuTest, PoolExhaustedSend) {
  config.message_blocks = 64;
  config.block_policy = BlockPolicy::wait;
  connect();
  fill();
  expect_idle_while_blocked(
      [&] {
        EXPECT_EQ(f.send(0, tx, payload.data(), kMsg), Status::ok);
      },
      [&] { receive_one(); });
  EXPECT_GE(f.stats().exhaustion_waits, 1u);
}

TEST_F(IdleCpuTest, QuotaParkedSend) {
  config.lnvc_quota_blocks = 20;
  config.admission_policy = AdmissionPolicy::block;
  connect();
  fill();
  expect_idle_while_blocked(
      [&] {
        EXPECT_EQ(f.send(0, tx, payload.data(), kMsg), Status::ok);
      },
      [&] { receive_one(); });
  EXPECT_GE(f.stats().quota_parks, 1u);
}

TEST(IdleCpu, RendezvousReceive) {
  RendezvousCell cell;
  Rendezvous rv(cell);
  std::array<std::byte, 16> out{};
  std::thread sender;
  expect_idle_while_blocked(
      [&] { EXPECT_EQ(rv.receive(out), out.size()); },
      [&] {
        sender = std::thread([&] {
          const std::array<std::byte, 16> msg{};
          rv.send(msg);
        });
      });
  sender.join();
}

}  // namespace
