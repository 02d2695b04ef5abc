// Unit tests for the word-at-a-time bitmap search (blockdev/bitmap.h)
// against a reference bit-by-bit loop: unaligned bounds, all-ones words,
// a partly used last word, and full bitmaps.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "blockdev/bitmap.h"
#include "sim/rng.h"

namespace bsim::test {
namespace {

using blk::count_set_bits;
using blk::find_next_zero_bit;

bool bit(const std::vector<std::byte>& bits, std::size_t i) {
  return (bits[i / 8] & (std::byte{1} << (i % 8))) != std::byte{0};
}

void set_bit(std::vector<std::byte>& bits, std::size_t i) {
  bits[i / 8] |= std::byte{1} << (i % 8);
}

std::size_t ref_find_next_zero_bit(const std::vector<std::byte>& bits,
                                   std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    if (!bit(bits, i)) return i;
  }
  return hi;
}

std::size_t ref_count_set_bits(const std::vector<std::byte>& bits,
                               std::size_t lo, std::size_t hi) {
  std::size_t n = 0;
  for (std::size_t i = lo; i < hi; ++i) n += bit(bits, i) ? 1 : 0;
  return n;
}

/// `nbytes` of bitmap where each bit is set with probability
/// `set_per_mille`/1000; dense maps make runs of all-ones words.
std::vector<std::byte> random_bitmap(sim::Rng& rng, std::size_t nbytes,
                                     std::uint64_t set_per_mille) {
  std::vector<std::byte> bits(nbytes);
  for (std::size_t i = 0; i < nbytes * 8; ++i) {
    if (rng.below(1000) < set_per_mille) set_bit(bits, i);
  }
  return bits;
}

TEST(BitmapTest, MatchesBitLoopOnRandomBitmaps) {
  constexpr std::uint64_t kDensities[] = {0, 500, 900, 990, 999, 1000};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Rng rng(seed);
    // Sizes that are not multiples of 8 bytes end in a partial word load.
    const std::size_t nbytes = 1 + rng.below(700);
    const auto bits = random_bitmap(rng, nbytes, kDensities[seed % 6]);
    const std::size_t nbits = nbytes * 8;
    for (int q = 0; q < 200; ++q) {
      std::size_t lo = rng.below(nbits + 1);
      std::size_t hi = rng.below(nbits + 1);
      if (lo > hi) std::swap(lo, hi);
      ASSERT_EQ(find_next_zero_bit(bits, lo, hi),
                ref_find_next_zero_bit(bits, lo, hi))
          << "seed " << seed << " [" << lo << ", " << hi << ")";
      ASSERT_EQ(count_set_bits(bits, lo, hi),
                ref_count_set_bits(bits, lo, hi))
          << "seed " << seed << " [" << lo << ", " << hi << ")";
    }
  }
}

TEST(BitmapTest, SkipsAllOnesWordsToALaterZero) {
  std::vector<std::byte> bits(64, std::byte{0xFF});
  bits[45] = std::byte{0xEF};  // bit 45 * 8 + 4 = 364 is the only zero
  EXPECT_EQ(find_next_zero_bit(bits, 0, 512), 364u);
  EXPECT_EQ(find_next_zero_bit(bits, 63, 512), 364u);  // unaligned lo
  EXPECT_EQ(find_next_zero_bit(bits, 364, 365), 364u);
  EXPECT_EQ(find_next_zero_bit(bits, 365, 512), 512u);
  EXPECT_EQ(find_next_zero_bit(bits, 0, 364), 364u);   // zero at hi: none
  EXPECT_EQ(count_set_bits(bits, 0, 512), 511u);
  EXPECT_EQ(count_set_bits(bits, 300, 400), 99u);
}

TEST(BitmapTest, PartlyUsedLastWordIgnoresBitsAtOrPastHi) {
  // 13 bytes: the last load covers bytes 8..12 only. Bits [0, 100) are
  // set; [100, 104) are clear but lie outside [lo, hi) for hi = 100.
  std::vector<std::byte> bits(13);
  for (std::size_t i = 0; i < 100; ++i) set_bit(bits, i);
  EXPECT_EQ(find_next_zero_bit(bits, 0, 100), 100u);
  EXPECT_EQ(find_next_zero_bit(bits, 70, 99), 99u);
  EXPECT_EQ(find_next_zero_bit(bits, 0, 104), 100u);
  EXPECT_EQ(find_next_zero_bit(bits, 101, 104), 101u);
  EXPECT_EQ(count_set_bits(bits, 0, 104), 100u);
  EXPECT_EQ(count_set_bits(bits, 65, 100), 35u);
}

TEST(BitmapTest, FullBitmapHasNoZeroBit) {
  const std::vector<std::byte> bits(4096, std::byte{0xFF});
  const std::size_t nbits = bits.size() * 8;
  for (const std::size_t lo : {std::size_t{0}, std::size_t{1},
                               std::size_t{63}, std::size_t{64},
                               std::size_t{1000}, nbits - 1, nbits}) {
    EXPECT_EQ(find_next_zero_bit(bits, lo, nbits), nbits) << lo;
  }
  EXPECT_EQ(count_set_bits(bits, 0, nbits), nbits);
}

TEST(BitmapTest, EmptyRangeFindsNothing) {
  const std::vector<std::byte> bits(16);
  EXPECT_EQ(find_next_zero_bit(bits, 37, 37), 37u);
  EXPECT_EQ(count_set_bits(bits, 37, 37), 0u);
}

}  // namespace
}  // namespace bsim::test
