#include "mpf/shm/run_allocator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace mpf::shm {

namespace {

Offset& link_of(Arena& arena, Offset node) noexcept {
  return *static_cast<Offset*>(arena.raw(node));
}

/// Bits [lo, lo + n) of one word, n in [1, 64].
std::uint64_t bit_range(unsigned lo, std::size_t n) noexcept {
  const std::uint64_t ones = n >= 64 ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << n) - 1;
  return ones << lo;
}

}  // namespace

void RunAllocator::carve(Arena& arena, std::size_t node_bytes,
                         std::size_t count, std::size_t payload_bytes) {
  if (node_bytes < sizeof(Offset)) {
    throw std::invalid_argument("RunAllocator: node too small for a link word");
  }
  stride_ = (node_bytes + 7) & ~std::size_t{7};
  capacity_ = count;
  payload_ = payload_bytes;
  if (count == 0) return;
  base_ = arena.allocate(stride_ * count, 64);
  for (std::size_t i = 0; i < count; ++i) {
    link_of(arena, node(i)) = node(i + 1);
  }
  map_ = arena.allocate(words() * sizeof(std::uint64_t), 64);
  auto* m = map(arena);
  for (std::size_t w = 0; w < words(); ++w) {
    const std::size_t bits = std::min<std::size_t>(64, count - w * 64);
    m[w].store(bit_range(0, bits), std::memory_order_relaxed);
  }
  if (payload_bytes > 0) {
    payload_base_ = arena.allocate(payload_bytes * count, 64);
  }
  count_.store(count, std::memory_order_release);
}

Offset RunAllocator::pop_chain(Arena& arena, std::size_t want,
                               std::size_t& got, Offset* tail) noexcept {
  got = 0;
  if (tail != nullptr) *tail = kNullOffset;
  if (want == 0) return kNullOffset;
  lock_.lock();
  const std::size_t have = count_.load(std::memory_order_relaxed);
  want = std::min(want, have);
  if (want == 0) {
    lock_.unlock();
    return kNullOffset;
  }
  auto* m = map(arena);
  const std::size_t nwords = words();
  // Prefer the first run from the cursor that holds the whole request;
  // gather runs next-fit only when none does.
  std::size_t pos = find_run(arena, cursor_, want);
  if (pos == kNoRun) pos = cursor_;
  Offset head = kNullOffset;
  Offset last = kNullOffset;
  while (got < want) {
    // Next free node at or after pos, wrapping; one exists because
    // got < want <= have.
    std::size_t w = pos >> 6;
    std::uint64_t bits = m[w].load(std::memory_order_relaxed) &
                         (~std::uint64_t{0} << (pos & 63));
    while (bits == 0) {
      w = w + 1 == nwords ? 0 : w + 1;
      bits = m[w].load(std::memory_order_relaxed);
    }
    const std::size_t start = (w << 6) + std::countr_zero(bits);
    // Clear the run word by word until it ends or the need is met.
    std::size_t b = start;
    for (;;) {
      const std::size_t wi = b >> 6;
      const auto lo = static_cast<unsigned>(b & 63);
      const std::uint64_t word = m[wi].load(std::memory_order_relaxed);
      const std::size_t n = std::min<std::size_t>(
          std::countr_one(word >> lo), want - got - (b - start));
      m[wi].store(word & ~bit_range(lo, n), std::memory_order_relaxed);
      b += n;
      if (lo + n < 64 || got + (b - start) == want || b >= capacity_) break;
    }
    const Offset first = node(start);
    if (last == kNullOffset) {
      head = first;
    } else {
      link_of(arena, last) = first;  // seam between two runs
    }
    last = node(b - 1);
    got += b - start;
    pos = b >= capacity_ ? 0 : b;
  }
  link_of(arena, last) = kNullOffset;
  cursor_ = pos;
  count_.store(have - got, std::memory_order_relaxed);
  lock_.unlock();
  if (tail != nullptr) *tail = last;
  return head;
}

RunAllocator::Run RunAllocator::run_at(const Arena& arena, Offset node,
                                      std::size_t max) const noexcept {
  const Offset last = std::min(end(), node + std::max<std::size_t>(max, 1) *
                                                 stride_) - stride_;
  Run run;
  run.payload = payload_of(node);
  run.blocks = 1;
  Offset link = *static_cast<const Offset*>(arena.raw(node));
  while (node != last && link == node + stride_) {
    node = link;
    link = *static_cast<const Offset*>(arena.raw(node));
    ++run.blocks;
  }
  run.next = link;
  return run;
}

std::size_t RunAllocator::find_run(const Arena& arena, std::size_t from,
                                   std::size_t want) const noexcept {
  const auto* m = map(arena);
  std::size_t b = from;
  // Bits still to examine: once round, plus enough to finish a run that
  // began before `from`.
  std::size_t left = capacity_ + want;
  std::size_t run_start = 0;
  std::size_t run_len = 0;
  while (left > 0) {
    if (b == capacity_) {
      b = 0;
      run_len = 0;  // a run never continues across the wrap
    }
    const auto lo = static_cast<unsigned>(b & 63);
    const auto span = static_cast<unsigned>(
        std::min<std::size_t>({64 - lo, capacity_ - b, left}));
    const std::uint64_t bits =
        (m[b >> 6].load(std::memory_order_relaxed) >> lo) &
        (span == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << span) - 1);
    for (unsigned i = 0; i < span;) {
      const auto zeros = std::min<unsigned>(
          static_cast<unsigned>(std::countr_zero(bits >> i)), span - i);
      if (zeros > 0) {
        run_len = 0;
        i += zeros;
        continue;
      }
      const auto ones = std::min<unsigned>(
          static_cast<unsigned>(std::countr_one(bits >> i)), span - i);
      if (run_len == 0) run_start = b + i;
      run_len += ones;
      if (run_len >= want) return run_start;
      i += ones;
    }
    b += span;
    left -= span;
  }
  return kNoRun;
}

std::size_t RunAllocator::push_chain(Arena& arena, Offset head,
                                     std::size_t count,
                                     Offset& next) noexcept {
  auto* m = map(arena);
  std::size_t pushed = 0;
  Offset cur = head;
  lock_.lock();
  while (pushed < count && contains(cur)) {
    // Walk one address-ordered run of the chain, then mark it free.
    const std::size_t start = index_of(cur);
    std::size_t len = 1;
    Offset link = link_of(arena, cur);
    while (pushed + len < count && start + len < capacity_ &&
           link == cur + stride_) {
      cur = link;
      link = link_of(arena, cur);
      ++len;
    }
    for (std::size_t b = start; b < start + len;) {
      const auto lo = static_cast<unsigned>(b & 63);
      const std::size_t n = std::min<std::size_t>(64 - lo, start + len - b);
      const std::size_t wi = b >> 6;
      m[wi].store(m[wi].load(std::memory_order_relaxed) | bit_range(lo, n),
                  std::memory_order_relaxed);
      b += n;
    }
    // The run's last link (a seam, or the chain's tail) goes back to
    // naming its address successor.
    if (link != cur + stride_) link_of(arena, cur) = cur + stride_;
    pushed += len;
    cur = link;
  }
  count_.store(count_.load(std::memory_order_relaxed) + pushed,
               std::memory_order_relaxed);
  lock_.unlock();
  next = cur;
  return pushed;
}

RunAllocator::RunStats RunAllocator::runs(const Arena& arena) const noexcept {
  RunStats s;
  std::size_t run = 0;
  const auto close = [&] {
    if (run == 0) return;
    ++s.runs;
    s.largest = std::max(s.largest, run);
    run = 0;
  };
  for (std::size_t w = 0; w < words(); ++w) {
    const std::uint64_t bits = word(arena, w);
    for (unsigned b = 0; b < 64;) {
      const std::uint64_t rest = bits >> b;
      if (rest == 0) {
        close();
        break;
      }
      const auto zeros = static_cast<unsigned>(std::countr_zero(rest));
      if (zeros > 0) close();
      const auto ones = static_cast<unsigned>(std::countr_one(rest >> zeros));
      run += ones;
      b += zeros + ones;
    }
  }
  close();
  return s;
}

}  // namespace mpf::shm
