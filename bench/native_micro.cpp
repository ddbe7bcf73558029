// Native (real hardware, google-benchmark) microbenchmarks of the MPF
// primitives and the §5 future-work transports.  These complement the
// simulated figure benches: same code, wall-clock time, this machine.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "mpf/core/channel.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/core/ports.hpp"
#include "mpf/core/rendezvous.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/sync/parker.hpp"
#include "mpf/sync/spinlock.hpp"

namespace {

using namespace mpf;

Config micro_config() {
  Config c;
  c.max_lnvcs = 16;
  c.max_processes = 8;
  c.block_payload = 64;
  c.message_blocks = 16384;
  return c;
}

/// Loop-back send+receive of one message (the paper's base benchmark).
void BM_LnvcLoopback(benchmark::State& state) {
  const std::size_t len = state.range(0);
  shm::HeapRegion region(micro_config().derived_arena_bytes());
  Facility f = Facility::create(micro_config(), region);
  Participant self(f, 0);
  SendPort tx = self.open_send("loop");
  ReceivePort rx = self.open_receive("loop", Protocol::fcfs);
  std::vector<std::byte> out(len, std::byte{1});
  std::vector<std::byte> in(len);
  for (auto _ : state) {
    tx.send(out);
    benchmark::DoNotOptimize(rx.receive(in));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * len);
}
BENCHMARK(BM_LnvcLoopback)->Arg(16)->Arg(256)->Arg(1024)->Arg(4096);

/// check_receive on an empty LNVC (the polling primitive).
void BM_CheckReceiveEmpty(benchmark::State& state) {
  shm::HeapRegion region(micro_config().derived_arena_bytes());
  Facility f = Facility::create(micro_config(), region);
  Participant self(f, 0);
  ReceivePort rx = self.open_receive("empty", Protocol::fcfs);
  for (auto _ : state) benchmark::DoNotOptimize(rx.check());
}
BENCHMARK(BM_CheckReceiveEmpty);

/// Open + close of a send connection (LNVC create/destroy cycle).
void BM_OpenCloseCycle(benchmark::State& state) {
  shm::HeapRegion region(micro_config().derived_arena_bytes());
  Facility f = Facility::create(micro_config(), region);
  for (auto _ : state) {
    LnvcId id = kInvalidLnvc;
    (void)f.open_send(0, "cycle", &id);
    (void)f.close_send(0, id);
  }
}
BENCHMARK(BM_OpenCloseCycle);

/// SPSC channel round trip (future-work lock-free path).
void BM_ChannelLoopback(benchmark::State& state) {
  const std::size_t len = state.range(0);
  std::vector<std::byte> memory(Channel::footprint(1 << 16));
  Channel ch = Channel::create(memory.data(), 1 << 16);
  std::vector<std::byte> out(len, std::byte{1});
  std::vector<std::byte> in(len);
  for (auto _ : state) {
    (void)ch.send(out);
    benchmark::DoNotOptimize(ch.receive(in));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * len);
}
BENCHMARK(BM_ChannelLoopback)->Arg(16)->Arg(256)->Arg(1024)->Arg(4096);

/// Rendezvous hand-off between two threads (future-work single copy).
void BM_RendezvousHandoff(benchmark::State& state) {
  static RendezvousCell* cell = nullptr;
  if (state.thread_index() == 0) cell = new RendezvousCell();
  const std::size_t len = 1024;
  std::vector<std::byte> buf(len, std::byte{1});
  for (auto _ : state) {
    Rendezvous r(*cell);
    if (state.thread_index() == 0) {
      r.send(buf);
    } else {
      benchmark::DoNotOptimize(r.receive(buf));
    }
  }
  if (state.thread_index() == 0) {
    delete cell;
    cell = nullptr;
  }
}
BENCHMARK(BM_RendezvousHandoff)->Threads(2)->UseRealTime();

/// Wake-to-return hand-off between two threads through two WaitNodes with
/// the default spin.  Each thread's iteration is one round trip; the time
/// column (iterations summed over both threads) and `ns_per_handoff` are
/// per hand-off.  Iteration i waits for the i-th wake of its node, so
/// neither side can miss a wake that lands before it parks.
void BM_ParkHandoff(benchmark::State& state) {
  static sync::WaitNode* nodes = nullptr;  // thread i parks on nodes[i]
  if (state.thread_index() == 0) nodes = new sync::WaitNode[2];
  const int me = state.thread_index();
  std::uint32_t expected = 0;
  for (auto _ : state) {
    if (me == 0) sync::Parker::wake(nodes[1]);
    benchmark::DoNotOptimize(sync::Parker::park(
        nodes[me], expected, sync::kNoParkDeadline, sync::kDefaultParkSpinNs));
    if (me == 1) sync::Parker::wake(nodes[0]);
    expected += sync::Parker::kStep;
  }
  if (me == 0) {
    state.counters["ns_per_handoff"] = benchmark::Counter(
        2.0 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    delete[] nodes;
    nodes = nullptr;
  }
}
BENCHMARK(BM_ParkHandoff)->Threads(2)->UseRealTime();

/// Spinlock cost: uncontended acquire/release.
template <typename Lock>
void BM_LockUncontended(benchmark::State& state) {
  Lock lock;
  for (auto _ : state) {
    lock.lock();
    benchmark::DoNotOptimize(&lock);
    lock.unlock();
  }
}
BENCHMARK(BM_LockUncontended<mpf::sync::SpinLock>);

/// Robust lock cost: uncontended acquire through the native platform with a
/// facility-like RobustOp (tagged, probing, 100 ms suspicion), then release.
void BM_LockRobustUncontended(benchmark::State& state) {
  sync::SpinLock lock;
  Platform& p = native_platform();
  for (auto _ : state) {
    RobustOp op;
    op.tag = sync::SpinLock::tag_for(0);
    op.alive = [](void*, std::uint32_t) { return true; };
    op.suspicion_ns = 100'000'000;
    p.lock_robust(lock, op);
    benchmark::DoNotOptimize(&lock);
    p.unlock(lock);
  }
}
BENCHMARK(BM_LockRobustUncontended);

/// Spinlock cost: contended increment from several threads.
template <typename Lock>
void BM_LockContended(benchmark::State& state) {
  static Lock* lock = nullptr;
  static std::uint64_t counter = 0;
  if (state.thread_index() == 0) {
    lock = new Lock();
    counter = 0;
  }
  for (auto _ : state) {
    lock->lock();
    ++counter;
    lock->unlock();
  }
  if (state.thread_index() == 0) {
    benchmark::DoNotOptimize(counter);
    delete lock;
    lock = nullptr;
  }
}
BENCHMARK(BM_LockContended<mpf::sync::SpinLock>)->Threads(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
