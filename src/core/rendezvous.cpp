#include "mpf/core/rendezvous.hpp"

#include <cstring>

namespace mpf {

bool Rendezvous::await_state(std::uint32_t want, std::uint64_t deadline_ns) {
  Platform& p = *platform_;
  RendezvousCell& c = *cell_;
  while (c.state != want) {
    std::uint64_t timeout_ns = kNoDeadline;  // ~0: no timeout
    if (deadline_ns != kNoDeadline) {
      const std::uint64_t now = p.now_ns();
      if (now >= deadline_ns) return false;
      timeout_ns = deadline_ns - now;
    }
    p.wait_for(c.lock, c.cond, timeout_ns);
  }
  return true;
}

Status Rendezvous::send_impl(std::span<const std::byte> payload,
                             std::uint64_t deadline_ns) {
  Platform& p = *platform_;
  RendezvousCell& c = *cell_;
  p.lock(c.lock);
  // Phase 1: one offer at a time — wait for the slot to be idle.  Nothing
  // to roll back yet on a deadline.
  if (!await_state(0, deadline_ns)) {
    p.unlock(c.lock);
    return Status::timed_out;
  }
  c.state = 1;
  c.length = static_cast<std::uint32_t>(payload.size());
  c.sender_buf = payload.data();
  p.notify_all(c.cond);
  // Phase 2: block until a receiver has completed the direct copy
  // (synchronous semantics: the send buffer may be reused as soon as the
  // send returns).  Receivers copy and flip the state to 2 while holding
  // the cell lock, so observing state == 1 here (lock held) means no copy
  // is in progress and an expired offer can be withdrawn safely.
  const bool copied = await_state(2, deadline_ns);
  c.state = 0;
  c.sender_buf = nullptr;
  p.unlock(c.lock);
  p.notify_all(c.cond);  // admit the next offer
  return copied ? Status::ok : Status::timed_out;
}

void Rendezvous::send(std::span<const std::byte> payload) {
  send_impl(payload, kNoDeadline);
}

Status Rendezvous::send_for(std::span<const std::byte> payload,
                            std::uint64_t timeout_ns) {
  return send_impl(payload, platform_->deadline_after(timeout_ns));
}

std::size_t Rendezvous::receive(std::span<std::byte> buffer,
                                bool* truncated) {
  Platform& p = *platform_;
  RendezvousCell& c = *cell_;
  p.lock(c.lock);
  await_state(1, kNoDeadline);
  if (truncated != nullptr) *truncated = c.length > buffer.size();
  const std::size_t copy = std::min<std::size_t>(c.length, buffer.size());
  std::memcpy(buffer.data(), c.sender_buf, copy);
  // The whole point: one copy, no block chain (nblocks = 0).
  p.charge_copy(c.length, 0);
  p.touch(c.length);
  c.copied = copy;
  c.state = 2;
  p.unlock(c.lock);
  p.notify_all(c.cond);
  return copy;
}

}  // namespace mpf
