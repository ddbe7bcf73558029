#include "mpf/core/channel.hpp"

#include <cstring>
#include <stdexcept>

namespace mpf {
namespace {

constexpr std::uint32_t kLenBytes = sizeof(std::uint32_t);

std::size_t round_pow2(std::size_t v) {
  std::size_t p = 64;
  while (p < v) p <<= 1;
  return p;
}

/// Modeled cost of the simplified path: a handful of cursor updates, no
/// lock, no descriptor walk (vs ~3 ms for the general LNVC path).
constexpr double kChannelFixedOps = 150;

}  // namespace

std::size_t Channel::footprint(std::size_t ring_bytes) noexcept {
  return sizeof(ChannelHeader) + round_pow2(ring_bytes);
}

Channel Channel::create(void* memory, std::size_t ring_bytes,
                        Platform& platform) {
  auto* hdr = ::new (memory) ChannelHeader();
  hdr->capacity = static_cast<std::uint32_t>(round_pow2(ring_bytes));
  hdr->magic = ChannelHeader::kMagic;
  return Channel(hdr, platform);
}

Channel Channel::attach(void* memory, Platform& platform) {
  auto* hdr = static_cast<ChannelHeader*>(memory);
  if (hdr->magic != ChannelHeader::kMagic) {
    throw std::invalid_argument("Channel::attach: no channel at address");
  }
  return Channel(hdr, platform);
}

void Channel::write_wrapped(std::uint64_t pos, const void* src,
                            std::size_t len) {
  const std::size_t cap = header_->capacity;
  const std::size_t at = pos & (cap - 1);
  const std::size_t first = std::min(len, cap - at);
  std::memcpy(ring() + at, src, first);
  std::memcpy(ring(), static_cast<const std::byte*>(src) + first,
              len - first);
}

void Channel::read_wrapped(std::uint64_t pos, void* dst,
                           std::size_t len) const {
  const std::size_t cap = header_->capacity;
  const std::size_t at = pos & (cap - 1);
  const std::size_t first = std::min(len, cap - at);
  std::memcpy(dst, ring() + at, first);
  std::memcpy(static_cast<std::byte*>(dst) + first, ring(), len - first);
}

Status Channel::send_impl(std::span<const std::byte> payload,
                          std::uint64_t timeout_ns) {
  const std::size_t record = kLenBytes + payload.size();
  if (record > header_->capacity / 2) return Status::invalid_argument;
  platform_->charge_ops(kChannelFixedOps);
  const std::uint64_t deadline = platform_->deadline_after(timeout_ns);
  const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  // Wait for room (SPSC: only the consumer moves head).
  while (tail + record - header_->head.load(std::memory_order_acquire) >
         header_->capacity) {
    if (deadline != kNoDeadline && platform_->now_ns() >= deadline) {
      return Status::timed_out;
    }
    platform_->yield();
  }
  const auto len32 = static_cast<std::uint32_t>(payload.size());
  write_wrapped(tail, &len32, kLenBytes);
  write_wrapped(tail + kLenBytes, payload.data(), payload.size());
  platform_->charge_copy(payload.size(), 0);
  header_->tail.store(tail + record, std::memory_order_release);
  return Status::ok;
}

bool Channel::send(std::span<const std::byte> payload) {
  return send_impl(payload, kNoTimeout) == Status::ok;
}

Status Channel::send_for(std::span<const std::byte> payload,
                         std::uint64_t timeout_ns) {
  return send_impl(payload, timeout_ns);
}

bool Channel::ready() const noexcept {
  return header_->head.load(std::memory_order_relaxed) !=
         header_->tail.load(std::memory_order_acquire);
}

bool Channel::try_receive(std::span<std::byte> buffer, std::size_t* out_len,
                          bool* truncated) {
  const std::uint64_t head = header_->head.load(std::memory_order_relaxed);
  if (head == header_->tail.load(std::memory_order_acquire)) return false;
  platform_->charge_ops(kChannelFixedOps);
  std::uint32_t len32 = 0;
  read_wrapped(head, &len32, kLenBytes);
  const std::size_t copy = std::min<std::size_t>(len32, buffer.size());
  read_wrapped(head + kLenBytes, buffer.data(), copy);
  platform_->charge_copy(len32, 0);
  header_->head.store(head + kLenBytes + len32, std::memory_order_release);
  if (out_len != nullptr) *out_len = copy;
  if (truncated != nullptr) *truncated = len32 > buffer.size();
  return true;
}

std::size_t Channel::receive(std::span<std::byte> buffer, bool* truncated) {
  std::size_t len = 0;
  while (!try_receive(buffer, &len, truncated)) platform_->yield();
  return len;
}

}  // namespace mpf
