// Word-at-a-time search over on-disk allocation bitmaps (Linux's
// lib/find_bit.c). Bit i lives in byte i / 8 at position i % 8, the layout
// every file system here writes; a 64-bit little-endian load therefore
// holds bits [64w, 64w + 64) in order, with bit 64w + j at position j.
//
// Host-side only: callers charge their own virtual scan cost, so a faster
// search leaves virtual time unchanged.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace bsim::blk {

static_assert(std::endian::native == std::endian::little,
              "bitmap words are loaded in little-endian bit order");

namespace detail {

/// Bits [64w, 64w + 64) of `bits`; bytes past the end of the span read as
/// all ones (in use), so they never look free.
inline std::uint64_t bitmap_word(std::span<const std::byte> bits,
                                 std::size_t w) {
  const std::size_t off = w * 8;
  std::uint64_t v = ~std::uint64_t{0};
  std::memcpy(&v, bits.data() + off,
              std::min<std::size_t>(8, bits.size() - off));
  return v;
}

/// Ones at bit positions [from, 64) of a word.
inline std::uint64_t mask_from(std::size_t from) {
  return from >= 64 ? 0 : ~std::uint64_t{0} << from;
}

}  // namespace detail

/// The first clear bit in [lo, hi), or `hi` if every bit there is set.
inline std::size_t find_next_zero_bit(std::span<const std::byte> bits,
                                      std::size_t lo, std::size_t hi) {
  assert(hi <= bits.size() * 8);
  while (lo < hi) {
    const std::size_t w = lo / 64;
    // Bits below `lo` count as set so the search starts at `lo`.
    const std::uint64_t v =
        detail::bitmap_word(bits, w) | ~detail::mask_from(lo % 64);
    const int i = std::countr_one(v);
    if (i < 64) return std::min(w * 64 + static_cast<std::size_t>(i), hi);
    lo = (w + 1) * 64;
  }
  return hi;
}

/// The number of set bits in [lo, hi) (Linux's bitmap_weight).
inline std::size_t count_set_bits(std::span<const std::byte> bits,
                                  std::size_t lo, std::size_t hi) {
  assert(hi <= bits.size() * 8);
  std::size_t n = 0;
  while (lo < hi) {
    const std::size_t w = lo / 64;
    const std::size_t end = std::min(hi, (w + 1) * 64);
    const std::uint64_t mask =
        detail::mask_from(lo % 64) & ~detail::mask_from(end - w * 64);
    n += static_cast<std::size_t>(
        std::popcount(detail::bitmap_word(bits, w) & mask));
    lo = end;
  }
  return n;
}

}  // namespace bsim::blk
