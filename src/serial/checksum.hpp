// CRC-32 (ISO-HDLC polynomial, the zlib/PNG variant) for frame integrity.
//
// Checkpoint frames (core/checkpoint) carry two of these: one over the frame
// bytes themselves (detects a corrupted frame) and one over the full
// reconstructed state (detects a broken baseline+delta chain even when every
// individual frame is intact).
//
// crc32 is slicing-by-8: eight 256-entry tables let each step fold 8 input
// bytes with 8 independent lookups instead of 8 dependent ones. Words are
// assembled from bytes explicitly, so results do not depend on host
// endianness. crc32_combine derives crc(A‖B) from crc(A), crc(B) and |B|
// without touching the bytes (zlib's GF(2) method), which lets a full
// checkpoint frame reuse its state CRC for the trailing frame CRC.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "serial/serial.hpp"

namespace jacepp::serial {

namespace detail {

inline constexpr std::uint32_t kCrc32Poly = 0xEDB88320u;  // reflected

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic byte table; tables[k][b] is the CRC state after
/// byte b is followed by k zero bytes.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) != 0 ? kCrc32Poly ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// a(x) * b(x) mod P(x) over GF(2), in the reflected bit order of the CRC
/// (bit 31 is x^0).
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1) != 0 ? (b >> 1) ^ kCrc32Poly : b >> 1;
  }
  return product;
}

/// x^(2^k) mod P(x) for k = 0..31.
constexpr std::array<std::uint32_t, 32> make_x2n_table() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = 1u << 30;  // x^1
  t[0] = p;
  for (std::size_t k = 1; k < 32; ++k) t[k] = p = multmodp(p, p);
  return t;
}

inline constexpr std::array<std::uint32_t, 32> kX2nTable = make_x2n_table();

}  // namespace detail

/// CRC-32 of `size` bytes at `data` (init/final XOR 0xFFFFFFFF, reflected).
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const auto& t = detail::kCrc32Tables;
  std::uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = c ^ detail::load_le32(data);
    const std::uint32_t hi = detail::load_le32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(const Bytes& data) {
  return crc32(data.data(), data.size());
}

/// crc32(A‖B) from crc_a = crc32(A), crc_b = crc32(B) and len_b = |B|:
/// crc_a is advanced over len_b zero bytes by multiplying with
/// x^(8·len_b) mod P, assembled from the x^(2^k) table.
inline std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                                   std::uint64_t len_b) {
  std::uint32_t shift = 1u << 31;  // x^0
  for (unsigned k = 3; len_b != 0; len_b >>= 1, ++k) {
    if ((len_b & 1) != 0) shift = detail::multmodp(detail::kX2nTable[k & 31], shift);
  }
  return detail::multmodp(shift, crc_a) ^ crc_b;
}

}  // namespace jacepp::serial
