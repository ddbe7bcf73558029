// The transport seam: one interface over the three message-transfer
// policies this repo implements.
//
// The paper's §5 sketches a family of simplifications of the general LNVC
// machinery — one-to-one channels that drop all locking, synchronous
// rendezvous that drops the intermediate buffer.  lnvc.cpp, channel.cpp
// and rendezvous.cpp all share the same shape (enqueue/claim, pin/copy or
// direct hand-off, release, blocking + wakeup, sim time-charging); this
// header names that shape so the ablation benches (bench/ablation_transfer)
// can drive every policy through one call surface and measure what each
// piece of generality costs.
//
// Adapters are thin: they own no state beyond references to the underlying
// endpoints and add no per-message overhead beyond one virtual dispatch,
// so the bench measures the policies, not the seam.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mpf/core/channel.hpp"
#include "mpf/core/errors.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/core/rendezvous.hpp"
#include "mpf/core/types.hpp"

namespace mpf {

/// What a transfer policy can do; drives both bench configuration and
/// graceful fallback (a caller probing zero_copy_view before receive_view
/// never sees invalid_argument).
struct TransportCaps {
  bool zero_copy_view = false;   ///< receive_view / release_view work
  bool scatter_gather = false;   ///< send_v gathers without coalescing
  bool many_to_many = false;     ///< more than one process per side
  bool cross_process = false;    ///< endpoints may be fork()ed processes
};

/// Outcome of a copying receive, aligned across policies: `length` is the
/// bytes copied into the caller's buffer and `truncated` reports a short
/// buffer (the policy consumed the whole message either way).
struct RecvResult {
  std::size_t length = 0;
  bool truncated = false;
};

/// One endpoint pair of a message-transfer policy.  send* operate on this
/// endpoint's transmit side, receive* on its receive side.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  [[nodiscard]] virtual TransportCaps caps() const noexcept = 0;

  /// Send of one contiguous message.  Every policy honors the facility's
  /// timeout contract: Status::timed_out once `timeout_ns` elapses without
  /// the message being accepted (virtual time under the simulator); 0
  /// polls, kNoTimeout (the default) waits forever.
  virtual Status send(const void* data, std::size_t len,
                      std::uint64_t timeout_ns = kNoTimeout) = 0;
  /// Scatter-gather send, under the same timeout contract as send.  The
  /// default coalesces into one contiguous staging buffer and calls send
  /// (so the channel and rendezvous adapters bound it the same way) —
  /// policies with native gather override it.
  virtual Status send_v(std::span<const ConstBuffer> iov,
                        std::uint64_t timeout_ns = kNoTimeout);
  /// Blocking copying receive.
  virtual Status receive(void* buf, std::size_t cap, RecvResult* out) = 0;

  /// Zero-copy receive/release; only valid when caps().zero_copy_view.
  /// The base class reports invalid_argument.
  virtual Status receive_view(MsgView* out);
  virtual Status release_view(MsgView* view);
  /// Materialize a view's offset spans into pointer spans valid in this
  /// process's mapping.  Empty when caps().zero_copy_view is false.
  [[nodiscard]] virtual std::vector<ConstBuffer> materialize(
      const MsgView& view) const;
};

/// The general facility path: block chains or slab extents, any number of
/// senders and receivers, zero-copy views, gathers without coalescing.
class LnvcTransport final : public Transport {
 public:
  LnvcTransport(Facility& facility, ProcessId pid, LnvcId tx, LnvcId rx)
      : facility_(&facility), pid_(pid), tx_(tx), rx_(rx) {}

  [[nodiscard]] const char* name() const noexcept override { return "lnvc"; }
  [[nodiscard]] TransportCaps caps() const noexcept override {
    return {.zero_copy_view = true,
            .scatter_gather = true,
            .many_to_many = true,
            .cross_process = true};
  }
  Status send(const void* data, std::size_t len,
              std::uint64_t timeout_ns = kNoTimeout) override;
  Status send_v(std::span<const ConstBuffer> iov,
                std::uint64_t timeout_ns = kNoTimeout) override;
  Status receive(void* buf, std::size_t cap, RecvResult* out) override;
  Status receive_view(MsgView* out) override;
  Status release_view(MsgView* view) override;
  [[nodiscard]] std::vector<ConstBuffer> materialize(
      const MsgView& view) const override;

 private:
  Facility* facility_;
  ProcessId pid_;
  LnvcId tx_;
  LnvcId rx_;
};

/// The paper's §5 one-to-one simplification: SPSC ring, no locks, no
/// block chains, no views.
class ChannelTransport final : public Transport {
 public:
  ChannelTransport(Channel tx, Channel rx) : tx_(tx), rx_(rx) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "channel";
  }
  [[nodiscard]] TransportCaps caps() const noexcept override {
    return {.cross_process = true};
  }
  Status send(const void* data, std::size_t len,
              std::uint64_t timeout_ns = kNoTimeout) override;
  Status receive(void* buf, std::size_t cap, RecvResult* out) override;

 private:
  Channel tx_;
  Channel rx_;
};

/// The paper's §5 synchronous simplification: direct sender-buffer to
/// receiver-buffer copy, both parties block until the hand-off.
class RendezvousTransport final : public Transport {
 public:
  RendezvousTransport(Rendezvous tx, Rendezvous rx) : tx_(tx), rx_(rx) {}

  [[nodiscard]] const char* name() const noexcept override {
    return "rendezvous";
  }
  [[nodiscard]] TransportCaps caps() const noexcept override {
    // Shared address space, one pair per transfer, no views.
    return {};
  }
  Status send(const void* data, std::size_t len,
              std::uint64_t timeout_ns = kNoTimeout) override;
  Status receive(void* buf, std::size_t cap, RecvResult* out) override;

 private:
  Rendezvous tx_;
  Rendezvous rx_;
};

}  // namespace mpf
