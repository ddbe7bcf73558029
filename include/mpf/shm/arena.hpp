// Position-independent allocation arena.
//
// The arena turns a raw Region into a typed allocator whose bookkeeping
// lives *inside* the region, so any process mapping the region sees the
// same state.  Allocation is a lock-free atomic bump; recycling of
// fixed-size objects is handled by RunAllocator (message blocks,
// run_allocator.hpp) and FreeList (descriptors, free_list.hpp), as in the
// paper's design where all dynamic structures are carved from shared
// memory at init() and linked into free lists thereafter.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

#include "mpf/shm/ref.hpp"
#include "mpf/shm/region.hpp"

namespace mpf::shm {

/// Lives at offset 0 of every arena-backed region.
struct ArenaHeader {
  static constexpr std::uint64_t kMagic = 0x4d50463837ull;  // "MPF87"
  std::uint64_t magic = 0;
  std::uint64_t capacity = 0;                ///< usable bytes incl. header
  std::atomic<std::uint64_t> cursor{0};      ///< next free byte offset
  std::atomic<std::uint64_t> live_bytes{0};  ///< currently allocated (stats)
  std::atomic<std::uint64_t> peak_bytes{0};  ///< high-water mark (stats)
};

/// Thrown when an allocation does not fit.  MPF sizes the arena from
/// init(max_lnvcs, max_processes) just as the paper describes; exceeding it
/// is a configuration error, not an OOM to paper over.
class ArenaExhausted : public std::bad_alloc {
 public:
  const char* what() const noexcept override {
    return "mpf::shm::Arena exhausted (increase Config::arena_bytes)";
  }
};

/// View of an arena inside a mapped region.  The Arena object itself is a
/// cheap per-process handle; all shared state is in the region.
class Arena {
 public:
  /// Format a fresh region (zero-filled) as an arena.
  static Arena create(Region& region);
  /// Attach to a region already formatted by create() (e.g. after
  /// PosixShmRegion::attach in another process).  Validates the magic.
  static Arena attach(Region& region);

  Arena() = default;

  /// Allocate `bytes` aligned to `align`; returns the arena offset.
  /// Throws ArenaExhausted when the region is full.
  Offset allocate(std::size_t bytes, std::size_t align = 8);

  /// Return bytes to the live-byte accounting (the space itself is only
  /// reused through the carved pools; the bump cursor never rewinds).
  void account_free(std::size_t bytes) noexcept;

  /// Typed allocation + default construction.  T must be safe to place in
  /// process-shared memory: trivially destructible, no internal pointers.
  template <typename T, typename... Args>
  Ref<T> make(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "shared-memory objects must be trivially destructible");
    const Offset off = allocate(sizeof(T), alignof(T));
    ::new (raw(off)) T(static_cast<Args&&>(args)...);
    return Ref<T>{off};
  }

  /// Allocate an uninitialised array of `n` T's; returns offset of first.
  template <typename T>
  Offset make_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    const Offset off = allocate(sizeof(T) * n, alignof(T));
    for (std::size_t i = 0; i < n; ++i) ::new (raw(off + i * sizeof(T))) T();
    return off;
  }

  /// Resolve a typed reference.  Null refs resolve to nullptr.
  template <typename T>
  [[nodiscard]] T* get(Ref<T> ref) const noexcept {
    return ref.null() ? nullptr
                      : std::launder(reinterpret_cast<T*>(raw(ref.off)));
  }

  /// Per-mapping resolver: materialize an offset-based record (e.g. a
  /// MsgView span) against THIS process's mapping of the region.  Same
  /// operation as get(); the name marks call sites whose result is a raw
  /// pointer that must be re-derived in every process — the Ref itself is
  /// the only form that may cross a mapping boundary.
  template <typename T>
  [[nodiscard]] T* resolve(Ref<T> ref) const noexcept {
    return get(ref);
  }

  /// Offset of an object known to live in this arena.
  template <typename T>
  [[nodiscard]] Ref<T> ref_of(const T* ptr) const noexcept {
    return Ref<T>{static_cast<Offset>(reinterpret_cast<const std::byte*>(ptr) -
                                      base_)};
  }

  [[nodiscard]] void* raw(Offset off) const noexcept { return base_ + off; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t used() const noexcept;
  [[nodiscard]] std::size_t live_bytes() const noexcept;
  [[nodiscard]] std::size_t peak_bytes() const noexcept;
  [[nodiscard]] bool valid() const noexcept { return base_ != nullptr; }

 private:
  [[nodiscard]] ArenaHeader* header() const noexcept {
    return reinterpret_cast<ArenaHeader*>(base_);
  }

  std::byte* base_ = nullptr;
  std::size_t capacity_ = 0;
};

}  // namespace mpf::shm
