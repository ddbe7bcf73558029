// Coalescing run allocator for message blocks in shared memory.
//
// Paper §3.1 keeps messages as chains of linked blocks taken from a free
// list.  A free *list* of recycled chains never coalesces: splits, partial
// takes and out-of-order returns shuffle it until one 1 KiB chain leaves
// address order dozens of times, and every copy touches that many
// scattered cache lines.  This allocator keeps the chain format (blocks
// linked through their first words) but tracks free blocks in a bitmap
// over the one contiguous range it carved, so freed neighbours merge back
// into runs and a chain is handed out as a few address-ordered runs.
//
// Payload bytes live out of line.  Next to the link range the allocator
// carves a parallel payload array in which node i's bytes sit at
// payload_base + i * payload_bytes, so the bytes of an address-ordered
// run are one contiguous stretch.  run_at and for_each_run walk a chain
// run by run (a run continues while a link names node + stride): copies
// pay one memcpy per run instead of one per block, and this header is the
// one place that knows where a block's bytes live.
//
// Seam-link invariant: the link word of every *free* block names its
// address successor (node + stride, even for the last node).  A run of
// free blocks is therefore already a well-formed chain; pop_chain writes
// links only at the seams between the runs it takes (and the terminating
// null), and push_chain restores a link only where the returned chain
// leaves address order.
//
// Locking: like FreeList, a spinlock inside the structure orders every
// pop_chain and push_chain, so link rewrites always happen in the critical
// section that flips the bits.  Allocation paths additionally hold their
// pool shard's lock around each call, which lets them advance a journal
// record in the same section; a reaper relies on this lock alone.  The
// free count and the bitmap words are atomics read relaxed, so unlocked
// peeks and statistics scans are race-free.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "mpf/shm/arena.hpp"
#include "mpf/shm/ref.hpp"
#include "mpf/sync/spinlock.hpp"

namespace mpf::shm {

class RunAllocator {
 public:
  /// Free-run shape of the bitmap (statistics; mpf_inspect).
  struct RunStats {
    std::size_t runs = 0;     ///< maximal runs of free blocks
    std::size_t largest = 0;  ///< blocks in the longest run
  };

  RunAllocator() noexcept = default;
  RunAllocator(const RunAllocator&) = delete;
  RunAllocator& operator=(const RunAllocator&) = delete;

  /// One address-ordered run of a chain inside this allocator's range.
  struct Run {
    std::size_t blocks = 0;          ///< nodes in the run
    Offset payload = kNullOffset;    ///< payload bytes of its first node
    Offset next = kNullOffset;       ///< link that follows its last node
  };

  /// Allocate `count` nodes of `node_bytes` each (rounded up to 8) as one
  /// contiguous range, plus its bitmap, all free, and a parallel array of
  /// `payload_bytes` per node (none when 0).  Called once from init.
  void carve(Arena& arena, std::size_t node_bytes, std::size_t count,
             std::size_t payload_bytes = 0);

  /// Take up to `want` nodes as a null-terminated chain linked through
  /// first words: from the first free run past the cursor that holds them
  /// all, else gathered run by run next-fit from the cursor.  Returns the
  /// head, writes the number obtained and (when `tail` is non-null) the
  /// last node.
  [[nodiscard]] Offset pop_chain(Arena& arena, std::size_t want,
                                 std::size_t& got,
                                 Offset* tail = nullptr) noexcept;

  /// Return the longest prefix, at most `count` nodes, of the chain at
  /// `head` that lies in this allocator's range.  Returns the number of
  /// nodes taken back and writes to `next` the link that followed the
  /// last of them (read before that link is restored).
  std::size_t push_chain(Arena& arena, Offset head, std::size_t count,
                         Offset& next) noexcept;

  [[nodiscard]] bool contains(Offset node) const noexcept {
    return node - base_ < capacity_ * stride_;
  }
  [[nodiscard]] std::size_t available() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t node_bytes() const noexcept { return stride_; }
  [[nodiscard]] Offset base() const noexcept { return base_; }
  [[nodiscard]] Offset end() const noexcept {
    return base_ + capacity_ * stride_;
  }
  /// The payload array: node i's bytes at payload_base() + i * payload_bytes().
  [[nodiscard]] std::size_t payload_bytes() const noexcept { return payload_; }
  [[nodiscard]] Offset payload_base() const noexcept { return payload_base_; }
  [[nodiscard]] Offset payload_end() const noexcept {
    return payload_base_ + capacity_ * payload_;
  }
  [[nodiscard]] Offset payload_of(Offset node) const noexcept {
    return payload_base_ + index_of(node) * payload_;
  }

  /// The run of the chain at `node` (which this range must contain): up to
  /// `max` nodes (at least one) while each link names its address
  /// successor inside the range.
  [[nodiscard]] Run run_at(const Arena& arena, Offset node,
                           std::size_t max) const noexcept;

  /// Node index <-> offset over the carved range.
  [[nodiscard]] Offset node(std::size_t index) const noexcept {
    return base_ + index * stride_;
  }
  [[nodiscard]] std::size_t index_of(Offset node) const noexcept {
    return (node - base_) / stride_;
  }
  /// Whether node `index` is free (relaxed read of its bitmap bit).
  [[nodiscard]] bool is_free(const Arena& arena,
                             std::size_t index) const noexcept {
    return (map(arena)[index >> 6].load(std::memory_order_relaxed) >>
            (index & 63)) & 1;
  }
  /// Bitmap words (capacity rounded up to 64 bits) and one word's value;
  /// bits at or beyond capacity() must stay clear.
  [[nodiscard]] std::size_t words() const noexcept {
    return (capacity_ + 63) / 64;
  }
  [[nodiscard]] std::uint64_t word(const Arena& arena,
                                   std::size_t w) const noexcept {
    return map(arena)[w].load(std::memory_order_relaxed);
  }
  /// Count the free runs with relaxed reads (exact when the owner's lock
  /// is held or the pool is at rest).
  [[nodiscard]] RunStats runs(const Arena& arena) const noexcept;

 private:
  static constexpr std::size_t kNoRun = ~std::size_t{0};

  /// First node of the first free run, scanning from node `from` and
  /// wrapping once, that holds at least `want` nodes (a run straddling
  /// `from` counts whole); kNoRun if none.
  [[nodiscard]] std::size_t find_run(const Arena& arena, std::size_t from,
                                     std::size_t want) const noexcept;
  [[nodiscard]] std::atomic<std::uint64_t>* map(
      const Arena& arena) const noexcept {
    return static_cast<std::atomic<std::uint64_t>*>(arena.raw(map_));
  }

  sync::SpinLock lock_;
  std::atomic<std::uint64_t> count_{0};
  Offset base_ = kNullOffset;  ///< first node of the carved range
  Offset map_ = kNullOffset;   ///< bitmap: bit i set = node i free
  Offset payload_base_ = kNullOffset;  ///< payload array (node order)
  std::uint64_t stride_ = 0;
  std::uint64_t payload_ = 0;  ///< payload bytes per node
  std::uint64_t capacity_ = 0;
  std::uint64_t cursor_ = 0;   ///< next-fit start (node index)
};

/// Walk the first `bytes` payload bytes of the chain at `head` run by run,
/// calling fn(payload offset, byte count) once per run.  `owner(node)`
/// names the allocator whose range holds `node`; it is asked only when a
/// chain leaves the current range (a seam into a stolen stretch).
template <class Owner, class Fn>
void for_each_run(const Arena& arena, Offset head, std::size_t bytes,
                  Owner&& owner, Fn&& fn) {
  const RunAllocator* runs = nullptr;
  Offset node = head;
  while (bytes > 0) {
    if (runs == nullptr || !runs->contains(node)) runs = &owner(node);
    const std::size_t per = runs->payload_bytes();
    const RunAllocator::Run run =
        runs->run_at(arena, node, (bytes + per - 1) / per);
    const std::size_t n = std::min(bytes, run.blocks * per);
    fn(run.payload, n);
    bytes -= n;
    node = run.next;
  }
}

}  // namespace mpf::shm
