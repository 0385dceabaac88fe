// CRC-32 known answers, slicing-by-8 vs a byte-at-a-time reference, and
// crc32_combine against CRCs of concatenated buffers.
#include "serial/checksum.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <string>

namespace jacepp::serial {
namespace {

/// The textbook byte-at-a-time table CRC (same polynomial, same init and
/// final XOR): the reference the slicing-by-8 loop must match bit for bit.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Bytes random_bytes(std::mt19937_64& rng, std::size_t size) {
  Bytes b(size);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng());
  return b;
}

std::uint32_t crc_of(const std::string& s) {
  return crc32(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc_of(""), 0u);
  EXPECT_EQ(crc_of("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc_of("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc_of("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

TEST(Crc32, MatchesByteAtATimeReferenceAtEveryLengthAndAlignment) {
  std::mt19937_64 rng(7);
  const Bytes data = random_bytes(rng, 257 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 257; ++len) {
      ASSERT_EQ(crc32(data.data() + offset, len),
                reference_crc32(data.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, MatchesReferenceOnLargeBuffers) {
  std::mt19937_64 rng(8);
  const Bytes data = random_bytes(rng, (1u << 17) + 5);
  EXPECT_EQ(crc32(data), reference_crc32(data.data(), data.size()));
}

TEST(Crc32, CombineEqualsCrcOfConcatenation) {
  std::mt19937_64 rng(9);
  const Bytes data = random_bytes(rng, (1u << 17) + 333);
  auto check = [&](std::size_t total, std::size_t split) {
    const std::uint32_t a = crc32(data.data(), split);
    const std::uint32_t b = crc32(data.data() + split, total - split);
    ASSERT_EQ(crc32_combine(a, b, total - split), crc32(data.data(), total))
        << "total " << total << " split " << split;
  };
  // Edge splits: |B| = 0, |A| = 0, |B| above 2^16.
  check(data.size(), data.size());
  check(data.size(), 0);
  check(data.size(), 17);
  check(0, 0);
  for (int i = 0; i < 200; ++i) {
    const std::size_t total = rng() % (data.size() + 1);
    const std::size_t split = total == 0 ? 0 : rng() % (total + 1);
    check(total, split);
  }
}

}  // namespace
}  // namespace jacepp::serial
