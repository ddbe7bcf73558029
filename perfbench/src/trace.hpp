// The traced run's instruments, all outside the library:
//   * spans around the benchmark's own calls into the public Facility
//     functions (core.*), and
//   * TracingPlatform, a Platform handed to Facility::create that delegates
//     every call to native_platform() and times or counts the sync and copy
//     hooks the core layer sends through that seam (sync.*, copy counts).
// Seam spans nest under the core call that caused them through a
// thread-local span stack; spans of one message share its id.  Spans are
// kept in memory and written out as Chrome trace-event JSON at the end.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mpf/core/platform.hpp"

namespace perfbench {

enum class Span : std::uint8_t {
  open,  // core: open_send / open_receive
  send,  // core: send
  recv,  // core: receive
  any,   // core: receive_any
  lock,  // sync seam: lock_robust
  wait,  // sync seam: wait / wait_for
  park,  // sync seam: park
  kCount
};
inline constexpr std::size_t kSpans = static_cast<std::size_t>(Span::kCount);
[[nodiscard]] const char* span_name(Span s) noexcept;

/// Counted (untimed) seam events.
enum class Count : std::uint8_t {
  unpark,
  notify,
  copy_calls,
  copy_bytes,
  copy_blocks,
  kCount
};
inline constexpr std::size_t kCounts = static_cast<std::size_t>(Count::kCount);

/// Which bucket a record lands in: everything before the timed window, or
/// the timed window itself (per-message ratios use only the latter).
enum Slot : int { kSlotOther = 0, kSlotWindow = 1 };

struct SpanStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  Reservoir dur{std::size_t{1} << 15};
  Reservoir self{std::size_t{1} << 15};
};

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root
  std::uint64_t msg = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  Span name = Span::open;
};

/// One thread's trace state; written only by its owner thread.
struct ThreadTrace {
  explicit ThreadTrace(int tid);

  struct Frame {
    Span name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t start;
    std::uint64_t child_ns;
  };

  int tid;
  std::array<std::array<SpanStats, kSpans>, 2> spans;
  std::array<std::array<std::uint64_t, kCounts>, 2> counts{};
  std::array<Frame, 16> stack{};
  int depth = 0;
  int overflow = 0;  // begins past the stack's depth, ended first
  std::uint64_t next_id = 1;
  std::uint64_t msg = 0;
  std::vector<SpanRecord> log;  // first spans of the timed window
};

class Tracer {
 public:
  /// Route subsequent records to `slot` (the session calls this as its
  /// timed window opens and closes).
  void set_slot(int slot) noexcept {
    slot_.store(slot, std::memory_order_relaxed);
  }
  [[nodiscard]] int slot() const noexcept {
    return slot_.load(std::memory_order_relaxed);
  }

  /// Bind the calling thread to a fresh ThreadTrace.
  void attach(int tid);
  /// Unbind the calling thread (its data stays for the report).
  static void detach() noexcept;

  void begin(Span s, std::uint64_t msg);
  void end();
  void count(Count c, std::uint64_t n = 1);

  /// Sum of one span's calls / time over all threads in `slot`.
  [[nodiscard]] std::uint64_t calls(Span s, int slot) const;
  [[nodiscard]] std::uint64_t total_ns(Span s, int slot) const;
  [[nodiscard]] std::uint64_t counted(Count c, int slot) const;
  /// Quantile of a span's duration (or self time) over all threads.
  [[nodiscard]] double quantile_ns(Span s, int slot, double q,
                                   bool self) const;
  /// Write the recorded spans as Chrome trace-event JSON.
  void write_json(const std::string& path) const;

 private:
  std::atomic<int> slot_{kSlotOther};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// RAII span around one call; a no-op when `t` is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* t, Span s, std::uint64_t msg) : t_(t) {
    if (t_ != nullptr) t_->begin(s, msg);
  }
  ~Scope() {
    if (t_ != nullptr) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

/// Delegates every call to native_platform(); spans the lock, wait and park
/// hooks and counts unpark, notify_all and the copy charges.
class TracingPlatform final : public mpf::Platform {
 public:
  explicit TracingPlatform(Tracer& tracer)
      : inner_(mpf::native_platform()), tracer_(tracer) {}

  void lock(mpf::sync::SpinLock& cell) override { inner_.lock(cell); }
  void unlock(mpf::sync::SpinLock& cell) override { inner_.unlock(cell); }
  void lock_robust(mpf::sync::SpinLock& cell, mpf::RobustOp& op) override;
  void wait(mpf::sync::SpinLock& m, mpf::sync::EventCount& c,
            mpf::RobustOp* op) override;
  bool wait_for(mpf::sync::SpinLock& m, mpf::sync::EventCount& c,
                std::uint64_t timeout_ns, mpf::RobustOp* op) override;
  void notify_all(mpf::sync::EventCount& c) override;
  bool park(mpf::sync::WaitNode& node, std::uint32_t expected,
            std::uint64_t deadline_ns, std::uint64_t spin_ns) override;
  void unpark(mpf::sync::WaitNode& node) override;
  [[nodiscard]] bool is_alive(std::uint32_t pid) const override {
    return inner_.is_alive(pid);
  }
  void charge_send_fixed() override { inner_.charge_send_fixed(); }
  void charge_recv_fixed() override { inner_.charge_recv_fixed(); }
  void charge_check() override { inner_.charge_check(); }
  void charge_open_close() override { inner_.charge_open_close(); }
  void charge_copy(std::size_t bytes, std::size_t nblocks) override;
  void charge_copy_nodes(std::size_t bytes, std::size_t nblocks,
                         std::uint32_t read_node, std::uint32_t write_node,
                         std::uint32_t exec_node) override;
  void charge_view(std::size_t bytes, std::size_t nblocks) override {
    inner_.charge_view(bytes, nblocks);
  }
  void charge_ops(double ops) override { inner_.charge_ops(ops); }
  void charge_flops(double flops) override { inner_.charge_flops(flops); }
  void on_buffer_alloc(std::size_t bytes) override {
    inner_.on_buffer_alloc(bytes);
  }
  void on_buffer_free(std::size_t bytes) override {
    inner_.on_buffer_free(bytes);
  }
  void touch(std::size_t bytes) override { inner_.touch(bytes); }
  [[nodiscard]] std::uint64_t now_ns() const override {
    return inner_.now_ns();
  }
  void yield() override { inner_.yield(); }
  [[nodiscard]] const char* name() const noexcept override {
    return "native+trace";
  }

 private:
  mpf::Platform& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
