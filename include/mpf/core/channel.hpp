// Lock-free one-to-one channel — the paper's §5 future work.
//
// "If only one-to-one communication is implemented, all locking associated
// with message handling is removed."  This is that simplified system: a
// single-producer single-consumer ring of length-prefixed records in shared
// memory.  No locks, no block chains, one copy per side into contiguous
// storage.  The ablation bench (bench/ablation_channel) measures what the
// generality of LNVCs costs relative to this.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "mpf/core/errors.hpp"
#include "mpf/core/platform.hpp"

namespace mpf {

/// Shared-memory state of a channel.  Lives at the start of the memory the
/// caller provides; the ring storage follows it.
struct ChannelHeader {
  static constexpr std::uint32_t kMagic = 0x4d504643;  // "MPFC"
  std::uint32_t magic = 0;
  std::uint32_t capacity = 0;  ///< ring bytes (power of two)
  alignas(64) std::atomic<std::uint64_t> head{0};  ///< consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail{0};  ///< producer cursor
};

/// SPSC byte-message channel over caller-provided (shared) memory.
/// Exactly one producer and one consumer may use it concurrently.
class Channel {
 public:
  /// Bytes of backing memory needed for a ring of `ring_bytes` capacity.
  [[nodiscard]] static std::size_t footprint(std::size_t ring_bytes) noexcept;

  /// Format `memory` (zeroed, at least footprint(ring_bytes)) as a channel.
  /// ring_bytes is rounded up to a power of two.
  static Channel create(void* memory, std::size_t ring_bytes,
                        Platform& platform = native_platform());
  /// Attach to a channel another process created at `memory`.
  static Channel attach(void* memory,
                        Platform& platform = native_platform());

  Channel() = default;

  /// Blocking send of one message (spins with platform yield when full).
  /// Messages larger than capacity/2 are rejected.
  bool send(std::span<const std::byte> payload);
  /// Send that gives up once `timeout_ns` of platform time passes without
  /// room in the ring (Status::timed_out; virtual time under the
  /// simulator, wall time natively).  The facility's timeout contract:
  /// 0 polls (a full ring fails immediately), kNoTimeout waits forever.
  /// Oversized messages are invalid_argument, as for send().
  Status send_for(std::span<const std::byte> payload,
                  std::uint64_t timeout_ns);
  /// Blocking receive of one message; returns bytes copied.  A short
  /// buffer receives the prefix and the rest of the record is discarded —
  /// same contract as Facility::receive, which copies the prefix and
  /// returns Status::truncated.  When `truncated` is non-null it reports
  /// whether that happened.
  std::size_t receive(std::span<std::byte> buffer, bool* truncated = nullptr);
  /// Non-blocking probe: true if a message is waiting.
  [[nodiscard]] bool ready() const noexcept;
  /// Non-blocking receive; returns false when empty.  Truncation reporting
  /// as for receive().
  bool try_receive(std::span<std::byte> buffer, std::size_t* out_len,
                   bool* truncated = nullptr);

  [[nodiscard]] std::size_t capacity() const noexcept {
    return header_ != nullptr ? header_->capacity : 0;
  }
  [[nodiscard]] bool valid() const noexcept { return header_ != nullptr; }

 private:
  Channel(ChannelHeader* header, Platform& platform)
      : header_(header), platform_(&platform) {}
  [[nodiscard]] std::byte* ring() const noexcept {
    return reinterpret_cast<std::byte*>(header_ + 1);
  }
  void write_wrapped(std::uint64_t pos, const void* src, std::size_t len);
  void read_wrapped(std::uint64_t pos, void* dst, std::size_t len) const;
  /// Shared body of send / send_for: one room-wait loop, bounded unless
  /// timeout_ns is kNoTimeout.
  Status send_impl(std::span<const std::byte> payload,
                   std::uint64_t timeout_ns);

  ChannelHeader* header_ = nullptr;
  Platform* platform_ = nullptr;
};

}  // namespace mpf
