// Platform implementation that runs MPF inside the Balance-21000
// discrete-event simulation.
//
// Locks and condition waits become simulator resources; every primitive and
// copy charges virtual time from the MachineModel.  Calls made outside a
// simulated process (single-threaded setup on the main thread before
// Simulator::run()) fall back to real spinlock behaviour and charge
// nothing; a condition wait there returns at once (a spurious wakeup) and
// a notify does nothing — setup code has nobody to wait for.
#pragma once

#include "mpf/core/platform.hpp"
#include "mpf/sim/simulator.hpp"

namespace mpf::sim {

class SimPlatform final : public Platform {
 public:
  explicit SimPlatform(Simulator& sim) noexcept : sim_(&sim) {}

  void lock(sync::SpinLock& cell) override;
  void unlock(sync::SpinLock& cell) override;
  void lock_robust(sync::SpinLock& cell, RobustOp& op) override;
  bool wait_for(sync::SpinLock& mutex_cell, sync::EventCount& cond_cell,
                std::uint64_t timeout_ns, RobustOp* op = nullptr) override;
  void notify_all(sync::EventCount& cond_cell) override;
  bool park(sync::WaitNode& node, std::uint32_t expected,
            std::uint64_t deadline_ns, std::uint64_t spin_ns) override;
  void unpark(sync::WaitNode& node) override;
  [[nodiscard]] bool is_alive(std::uint32_t pid) const override;

  void charge_send_fixed() override;
  void charge_recv_fixed() override;
  void charge_check() override;
  void charge_open_close() override;
  void charge_copy(std::size_t bytes, std::size_t nblocks) override;
  void charge_copy_nodes(std::size_t bytes, std::size_t nblocks,
                         std::uint32_t read_node, std::uint32_t write_node,
                         std::uint32_t exec_node) override;
  void charge_view(std::size_t bytes, std::size_t nblocks) override;
  void charge_ops(double ops) override;
  void charge_flops(double flops) override;
  void on_buffer_alloc(std::size_t bytes) override;
  void on_buffer_free(std::size_t bytes) override;
  void touch(std::size_t bytes) override;

  [[nodiscard]] std::uint64_t now_ns() const override;
  void yield() override;

  [[nodiscard]] const char* name() const noexcept override {
    return "balance21000-sim";
  }

  [[nodiscard]] Simulator& simulator() noexcept { return *sim_; }

 private:
  Simulator* sim_;
};

}  // namespace mpf::sim
