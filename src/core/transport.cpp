#include "mpf/core/transport.hpp"

#include <cstring>

namespace mpf {

Status Transport::send_v(std::span<const ConstBuffer> iov,
                         std::uint64_t timeout_ns) {
  // Coalescing fallback for policies without native gather: one extra
  // copy into contiguous staging, then the plain send path.
  std::size_t total = 0;
  for (const ConstBuffer& b : iov) {
    if (b.data == nullptr && b.len != 0) return Status::invalid_argument;
    total += b.len;
  }
  std::vector<std::byte> staged(total);
  std::size_t at = 0;
  for (const ConstBuffer& b : iov) {
    std::memcpy(staged.data() + at, b.data, b.len);
    at += b.len;
  }
  return send(staged.data(), staged.size(), timeout_ns);
}

Status Transport::receive_view(MsgView* out) {
  (void)out;
  return Status::invalid_argument;  // probe caps().zero_copy_view first
}

Status Transport::release_view(MsgView* view) {
  (void)view;
  return Status::invalid_argument;
}

std::vector<ConstBuffer> Transport::materialize(const MsgView& view) const {
  (void)view;
  return {};  // no view support, nothing to resolve
}

// --- LNVC ---------------------------------------------------------------

Status LnvcTransport::send(const void* data, std::size_t len,
                           std::uint64_t timeout_ns) {
  return facility_->send(pid_, tx_, data, len, timeout_ns);
}

Status LnvcTransport::send_v(std::span<const ConstBuffer> iov,
                             std::uint64_t timeout_ns) {
  return facility_->send_v(pid_, tx_, iov, timeout_ns);
}

Status LnvcTransport::receive(void* buf, std::size_t cap, RecvResult* out) {
  std::size_t len = 0;
  const Status s = facility_->receive(pid_, rx_, buf, cap, &len);
  if (out != nullptr) {
    out->length = len;
    out->truncated = s == Status::truncated;
  }
  return s;
}

Status LnvcTransport::receive_view(MsgView* out) {
  return facility_->receive_view(pid_, rx_, out);
}

Status LnvcTransport::release_view(MsgView* view) {
  return facility_->release_view(pid_, view);
}

std::vector<ConstBuffer> LnvcTransport::materialize(
    const MsgView& view) const {
  return facility_->materialize(view);
}

// --- Channel ------------------------------------------------------------

Status ChannelTransport::send(const void* data, std::size_t len,
                              std::uint64_t timeout_ns) {
  // invalid_argument for a record over capacity/2.
  return tx_.send_for({static_cast<const std::byte*>(data), len}, timeout_ns);
}

Status ChannelTransport::receive(void* buf, std::size_t cap,
                                 RecvResult* out) {
  bool truncated = false;
  const std::size_t len =
      rx_.receive({static_cast<std::byte*>(buf), cap}, &truncated);
  if (out != nullptr) {
    out->length = len;
    out->truncated = truncated;
  }
  return truncated ? Status::truncated : Status::ok;
}

// --- Rendezvous ---------------------------------------------------------

Status RendezvousTransport::send(const void* data, std::size_t len,
                                 std::uint64_t timeout_ns) {
  return tx_.send_for({static_cast<const std::byte*>(data), len},
                      timeout_ns);
}

Status RendezvousTransport::receive(void* buf, std::size_t cap,
                                    RecvResult* out) {
  bool truncated = false;
  const std::size_t len =
      rx_.receive({static_cast<std::byte*>(buf), cap}, &truncated);
  if (out != nullptr) {
    out->length = len;
    out->truncated = truncated;
  }
  return truncated ? Status::truncated : Status::ok;
}

}  // namespace mpf
