// The RAII port layer: construction, moves, close semantics, typed
// helpers, and exception mapping.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "mpf/core/ports.hpp"
#include "mpf/shm/region.hpp"

// Heap allocations made by this thread while `g_count_news` is set: the
// check that a steady-state multi-circuit receive allocates nothing.
namespace {
thread_local bool g_count_news = false;
std::atomic<std::size_t> g_news{0};
}  // namespace

// The replacements pair malloc with free; GCC cannot see that through
// inlined new/delete expressions and warns at every one.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_count_news) g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mpf;

struct PortsTest : ::testing::Test {
  Config config = [] {
    Config c;
    c.max_lnvcs = 8;
    c.max_processes = 8;
    return c;
  }();
  shm::HeapRegion region{config.derived_arena_bytes()};
  Facility f{Facility::create(config, region)};
};

TEST_F(PortsTest, PortsCloseOnDestruction) {
  {
    Participant p(f, 0);
    SendPort tx = p.open_send("scoped");
    EXPECT_TRUE(tx.open());
    EXPECT_TRUE(f.lnvc_exists("scoped"));
  }
  EXPECT_FALSE(f.lnvc_exists("scoped"));
}

TEST_F(PortsTest, ExplicitCloseIsIdempotent) {
  Participant p(f, 0);
  SendPort tx = p.open_send("x");
  tx.close();
  EXPECT_FALSE(tx.open());
  tx.close();  // second close: harmless
  EXPECT_FALSE(f.lnvc_exists("x"));
}

TEST_F(PortsTest, SendOnClosedPortThrows) {
  Participant p(f, 0);
  SendPort tx = p.open_send("x");
  tx.close();
  EXPECT_THROW(tx.send("data"), MpfError);
}

TEST_F(PortsTest, MoveTransfersOwnership) {
  Participant p(f, 0);
  SendPort a = p.open_send("mv");
  const LnvcId id = a.id();
  SendPort b = std::move(a);
  EXPECT_FALSE(a.open());
  EXPECT_TRUE(b.open());
  EXPECT_EQ(b.id(), id);
  b.send("still works");
  // Move assignment closes the target's old connection.
  SendPort c = p.open_send("other");
  c = std::move(b);
  EXPECT_FALSE(f.lnvc_exists("other"));
  EXPECT_TRUE(c.open());
  EXPECT_TRUE(f.lnvc_exists("mv"));
}

TEST_F(PortsTest, ReceivePortMoveKeepsProtocol) {
  Participant p(f, 1);
  ReceivePort a = p.open_receive("mv", Protocol::broadcast);
  ReceivePort b = std::move(a);
  EXPECT_EQ(b.protocol(), Protocol::broadcast);
  EXPECT_FALSE(a.open());
  EXPECT_TRUE(b.open());
}

TEST_F(PortsTest, TypedValueRoundTrip) {
  Participant s(f, 0);
  Participant r(f, 1);
  SendPort tx = s.open_send("typed");
  ReceivePort rx = r.open_receive("typed", Protocol::fcfs);
  struct Payload {
    double a;
    int b;
  };
  tx.send_value(Payload{2.5, -3});
  const auto got = rx.receive_value<Payload>();
  EXPECT_DOUBLE_EQ(got.a, 2.5);
  EXPECT_EQ(got.b, -3);
}

TEST_F(PortsTest, ReceiveValueSizeMismatchThrows) {
  Participant s(f, 0);
  Participant r(f, 1);
  SendPort tx = s.open_send("typed");
  ReceivePort rx = r.open_receive("typed", Protocol::fcfs);
  tx.send_value(std::int16_t{5});
  EXPECT_THROW((void)rx.receive_value<std::int64_t>(), MpfError);
}

TEST_F(PortsTest, ReceiveBytesSizesExactly) {
  Participant s(f, 0);
  Participant r(f, 1);
  SendPort tx = s.open_send("bytes");
  ReceivePort rx = r.open_receive("bytes", Protocol::fcfs);
  tx.send("12345");
  const auto bytes = rx.receive_bytes();
  EXPECT_EQ(bytes.size(), 5u);
}

TEST_F(PortsTest, TruncatedReceiveReportsViaFlagNotException) {
  Participant s(f, 0);
  Participant r(f, 1);
  SendPort tx = s.open_send("tr");
  ReceivePort rx = r.open_receive("tr", Protocol::fcfs);
  tx.send("0123456789");
  std::vector<std::byte> small(4);
  const Received got = rx.receive(small);
  EXPECT_TRUE(got.truncated);
  EXPECT_EQ(got.length, 4u);
}

TEST_F(PortsTest, OpenErrorsSurfaceAsExceptions) {
  Participant p(f, 1);
  ReceivePort a = p.open_receive("conv", Protocol::fcfs);
  EXPECT_THROW((void)p.open_receive("conv", Protocol::broadcast), MpfError);
  try {
    (void)p.open_receive("conv", Protocol::broadcast);
    FAIL() << "expected MpfError";
  } catch (const MpfError& e) {
    EXPECT_EQ(e.status(), Status::protocol_conflict);
  }
}

TEST_F(PortsTest, DefaultConstructedPortsAreInert) {
  SendPort tx;
  ReceivePort rx;
  EXPECT_FALSE(tx.open());
  EXPECT_FALSE(rx.open());
  tx.close();
  rx.close();  // no facility: must not crash
}

TEST_F(PortsTest, ReceiveAnyForBuildsItsIdListWithoutTheHeap) {
  Participant consumer(f, 1);
  Participant producer(f, 0);
  ReceivePort a = consumer.open_receive("a", Protocol::fcfs);
  ReceivePort b = consumer.open_receive("b", Protocol::fcfs);
  ReceivePort c = consumer.open_receive("c", Protocol::fcfs);
  SendPort tx = producer.open_send("c");
  ReceivePort* ports[] = {&a, &b, &c};
  std::vector<std::byte> buf(32);
  for (int i = 0; i < 4; ++i) {  // the first call may set up per-process state
    tx.send("ping");
    ReceivedAny r;
    g_news.store(0);
    g_count_news = true;
    const bool got =
        receive_any_for(f, 1, ports, buf, Facility::kNoTimeout, &r);
    g_count_news = false;
    ASSERT_TRUE(got);
    EXPECT_EQ(r.index, 2u);
    EXPECT_EQ(r.length, 4u);
    if (i > 0) {
      EXPECT_EQ(g_news.load(), 0u) << "call " << i;
    }
  }
}

TEST(PortsMany, ReceiveAnyForOverMoreThanTheInlineIdsWorks) {
  Config config;
  config.max_lnvcs = 80;
  config.max_processes = 2;
  shm::HeapRegion region(config.derived_arena_bytes());
  Facility f = Facility::create(config, region);
  Participant consumer(f, 1);
  Participant producer(f, 0);
  std::vector<ReceivePort> rx;
  std::vector<ReceivePort*> ports;
  for (int i = 0; i < 70; ++i) {
    rx.push_back(consumer.open_receive("c" + std::to_string(i),
                                       Protocol::fcfs));
  }
  for (ReceivePort& p : rx) ports.push_back(&p);
  SendPort tx = producer.open_send("c69");
  tx.send("last");
  std::vector<std::byte> buf(16);
  ReceivedAny r;
  ASSERT_TRUE(receive_any_for(f, 1, ports, buf, 0, &r));
  EXPECT_EQ(r.index, 69u);
  EXPECT_EQ(r.length, 4u);
  EXPECT_FALSE(receive_any_for(f, 1, ports, buf, 0, &r)) << "nothing left";
}

}  // namespace
