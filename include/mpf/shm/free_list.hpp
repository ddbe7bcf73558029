// Fixed-size-node free lists in shared memory.
//
// Paper §3.1: "During MPF initialization, a free list of linked message
// blocks is created in shared memory.  Space allocated from this free list
// is used for messages during program execution.  Like message blocks,
// LNVC, send, and receive descriptors are linked into free lists when not
// in use."  This type is that mechanism for the single-node pools
// (message headers, connections, slab extents): nodes are carved from the
// arena once, then recycled forever through an intrusive stack.  Message
// blocks, which are taken and returned as chains, live in a
// shm::RunAllocator instead.  A spinlock guards the list; the lock word
// is part of the structure so the whole thing is position-independent.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpf/shm/arena.hpp"
#include "mpf/shm/ref.hpp"
#include "mpf/sync/spinlock.hpp"

namespace mpf::shm {

/// Intrusive singly linked free stack of fixed-size nodes.  The first 8
/// bytes of every node are reused as the next-link while the node is
/// free; node contents are otherwise untouched.  Zero-init ready.
class FreeList {
 public:
  /// Node-size floor of the free-list pools: at most two nodes share a
  /// 64-byte line.
  static constexpr std::size_t kMinNodeBytes = 32;

  FreeList() noexcept = default;
  FreeList(const FreeList&) = delete;
  FreeList& operator=(const FreeList&) = delete;

  /// Allocate `count` nodes of `node_bytes` each from the arena and push
  /// them all.  Called once from init(); not thread-safe against pop/push.
  void carve(Arena& arena, std::size_t node_bytes, std::size_t count);

  /// Pop one node; returns kNullOffset when the list is empty.
  [[nodiscard]] Offset pop(Arena& arena) noexcept;

  /// Push one node back.
  void push(Arena& arena, Offset node) noexcept;

  [[nodiscard]] std::size_t available() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t node_bytes() const noexcept { return node_bytes_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  static Offset& link_of(Arena& arena, Offset node) noexcept {
    return *static_cast<Offset*>(arena.raw(node));
  }

  sync::SpinLock lock_;
  std::atomic<std::uint64_t> count_{0};
  Offset head_ = kNullOffset;
  std::uint64_t node_bytes_ = 0;
  std::uint64_t capacity_ = 0;
};

}  // namespace mpf::shm
