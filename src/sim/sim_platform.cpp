#include "mpf/sim/sim_platform.hpp"

namespace mpf::sim {

void SimPlatform::lock(sync::SpinLock& cell) {
  if (Simulator::current() == nullptr) {
    cell.lock();  // pre-run setup: real, uncontended
    return;
  }
  sim_->mutex_lock(&cell);
}

void SimPlatform::unlock(sync::SpinLock& cell) {
  if (Simulator::current() == nullptr) {
    cell.unlock();
    return;
  }
  sim_->mutex_unlock(&cell);
}

void SimPlatform::lock_robust(sync::SpinLock& cell, RobustOp& op) {
  if (Simulator::current() == nullptr) {
    // Pre-run setup / post-run audit: the real cell was never locked by
    // simulated processes, so the base robust spin acquires immediately.
    Platform::lock_robust(cell, op);
    return;
  }
  sim_->mutex_lock_robust(&cell, op);
}

bool SimPlatform::wait_for(sync::SpinLock& mutex_cell,
                           sync::EventCount& cond_cell,
                           std::uint64_t timeout_ns, RobustOp* op) {
  return sim_->cond_wait_for(&mutex_cell, &cond_cell, timeout_ns, op);
}

bool SimPlatform::park(sync::WaitNode& node, std::uint32_t expected,
                       std::uint64_t deadline_ns, std::uint64_t spin_ns) {
  if (Simulator::current() == nullptr) {
    return sync::Parker::park(node, expected, deadline_ns, spin_ns);
  }
  // The spin phase is a real-hardware latency dodge; under the virtual
  // clock the park itself is free, so go straight to the wait resource.
  (void)spin_ns;
  for (;;) {
    if (sync::Parker::moved(node, expected)) return true;
    std::uint64_t timeout = ~std::uint64_t{0};
    if (deadline_ns != sync::kNoParkDeadline) {
      const std::uint64_t now = sim_->now();
      if (now >= deadline_ns) return false;
      timeout = deadline_ns - now;
    }
    if (!sim_->park_wait(&node.epoch, timeout)) {
      // Timed out — but an unpark may have bumped the epoch at exactly the
      // promotion instant; the epoch is the source of truth.
      return sync::Parker::moved(node, expected);
    }
  }
}

void SimPlatform::unpark(sync::WaitNode& node) {
  node.epoch.fetch_add(sync::Parker::kStep, std::memory_order_seq_cst);
  sim_->park_wake(&node.epoch);
}

bool SimPlatform::is_alive(std::uint32_t pid) const {
  return sim_->process_alive(static_cast<int>(pid));
}

void SimPlatform::notify_all(sync::EventCount& cond_cell) {
  sim_->cond_notify_all(&cond_cell);
}

void SimPlatform::charge_send_fixed() {
  sim_->count_send();  // fault trigger: kill at the n-th send entry
  sim_->advance(sim_->model().send_fixed_ns);
}
void SimPlatform::charge_recv_fixed() {
  sim_->advance(sim_->model().recv_fixed_ns);
}
void SimPlatform::charge_check() { sim_->advance(sim_->model().check_ns); }
void SimPlatform::charge_open_close() {
  sim_->advance(sim_->model().open_close_ns);
}
void SimPlatform::charge_copy(std::size_t bytes, std::size_t nblocks) {
  sim_->charge_copy(bytes, nblocks);
}
void SimPlatform::charge_copy_nodes(std::size_t bytes, std::size_t nblocks,
                                    std::uint32_t read_node,
                                    std::uint32_t write_node,
                                    std::uint32_t exec_node) {
  sim_->charge_copy_numa(bytes, nblocks, read_node, write_node, exec_node);
}
void SimPlatform::charge_view(std::size_t bytes, std::size_t nblocks) {
  // Zero-copy: no bus/copy bytes move; the view walks the block chain.
  (void)bytes;
  sim_->advance(static_cast<double>(nblocks) *
                sim_->model().block_overhead_ns);
}
void SimPlatform::charge_ops(double ops) {
  sim_->advance(ops * sim_->model().op_ns);
}
void SimPlatform::charge_flops(double flops) {
  sim_->advance(flops * sim_->model().flop_ns);
}
void SimPlatform::on_buffer_alloc(std::size_t bytes) {
  sim_->footprint_alloc(bytes);
}
void SimPlatform::on_buffer_free(std::size_t bytes) {
  sim_->footprint_free(bytes);
}
void SimPlatform::touch(std::size_t bytes) { sim_->charge_touch(bytes); }

std::uint64_t SimPlatform::now_ns() const { return sim_->now(); }

void SimPlatform::yield() {
  // Polling loops must consume virtual time or they would livelock the
  // conductor; one check_ns quantum per probe mirrors a real poll cost.
  sim_->advance(sim_->model().check_ns);
}

}  // namespace mpf::sim
