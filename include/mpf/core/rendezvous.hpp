// Synchronous (rendezvous) message transfer — the paper's §5 future work.
//
// "To support synchronous message passing, copying of data from a sending
// buffer to a linked message buffer and then to the receiving buffer is
// unnecessary; direct data transfer is possible."  A Rendezvous point
// pairs one sender with one receiver and moves the payload with a single
// copy, straight from the sender's buffer into the receiver's.
//
// Limitation (documented): because the transfer dereferences the sender's
// buffer address from the receiver's context, both parties must share an
// address space — threads or simulated processes, not fork()ed processes
// with private buffers.  The general LNVC path has no such restriction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "mpf/core/errors.hpp"
#include "mpf/core/platform.hpp"
#include "mpf/sync/parker.hpp"
#include "mpf/sync/spinlock.hpp"

namespace mpf {

/// Shared state of one rendezvous point; place in memory visible to both
/// parties (zero-init ready).
struct RendezvousCell {
  sync::SpinLock lock;
  sync::EventCount cond;
  std::uint32_t state = 0;  ///< 0 idle, 1 offered, 2 taken
  std::uint32_t length = 0;
  const void* sender_buf = nullptr;
  std::size_t copied = 0;
};

/// Synchronous transfer endpoint over a shared cell.  Any number of
/// senders/receivers may use one cell; each transfer pairs exactly one of
/// each and both block until the hand-off completes.
class Rendezvous {
 public:
  Rendezvous() = default;
  Rendezvous(RendezvousCell& cell, Platform& platform = native_platform())
      : cell_(&cell), platform_(&platform) {}

  /// Block until a receiver has taken the payload (one direct copy).
  void send(std::span<const std::byte> payload);
  /// Timed variant: Status::timed_out if no receiver completed the
  /// hand-off within `timeout_ns` (virtual time under the simulator; 0
  /// polls, kNoTimeout waits forever).
  /// An expired offer is withdrawn under the cell lock, so a later
  /// receiver never sees a stale buffer pointer; once a receiver has
  /// started the copy the send completes normally regardless of the
  /// deadline (synchronous semantics — the buffer was already read).
  Status send_for(std::span<const std::byte> payload,
                  std::uint64_t timeout_ns);
  /// Block until a sender offers; copy directly from its buffer.
  /// Returns bytes copied (a short buffer receives the prefix; when
  /// `truncated` is non-null it reports whether that happened — same
  /// contract as Facility::receive / Channel::receive).
  std::size_t receive(std::span<std::byte> buffer, bool* truncated = nullptr);

 private:
  /// Shared body of send / send_for: the same two-phase hand-off, with
  /// both waits bounded unless deadline_ns is kNoDeadline.
  Status send_impl(std::span<const std::byte> payload,
                   std::uint64_t deadline_ns);
  /// Wait (cell lock held) until state == want; false on deadline expiry.
  bool await_state(std::uint32_t want, std::uint64_t deadline_ns);

  RendezvousCell* cell_ = nullptr;
  Platform* platform_ = nullptr;
};

}  // namespace mpf
