#include "mpf/shm/free_list.hpp"

#include <stdexcept>

namespace mpf::shm {

void FreeList::carve(Arena& arena, std::size_t node_bytes, std::size_t count) {
  if (node_bytes < kMinNodeBytes) {
    throw std::invalid_argument("FreeList: node below the 32-byte floor");
  }
  node_bytes_ = node_bytes;
  capacity_ = count;
  if (count == 0) return;
  // Allocate one contiguous slab; nodes are 8-aligned so the link word is
  // naturally aligned.
  const std::size_t stride = (node_bytes + 7) & ~std::size_t{7};
  const Offset slab = arena.allocate(stride * count, 64);
  for (std::size_t i = 0; i + 1 < count; ++i) {
    link_of(arena, slab + i * stride) = slab + (i + 1) * stride;
  }
  link_of(arena, slab + (count - 1) * stride) = kNullOffset;
  head_ = slab;
  count_.store(count, std::memory_order_release);
}

Offset FreeList::pop(Arena& arena) noexcept {
  lock_.lock();
  const Offset node = head_;
  if (node != kNullOffset) {
    head_ = link_of(arena, node);
    count_.fetch_sub(1, std::memory_order_relaxed);
  }
  lock_.unlock();
  return node;
}

void FreeList::push(Arena& arena, Offset node) noexcept {
  lock_.lock();
  link_of(arena, node) = head_;
  head_ = node;
  count_.fetch_add(1, std::memory_order_relaxed);
  lock_.unlock();
}

}  // namespace mpf::shm
