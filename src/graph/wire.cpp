#include "graph/wire.hpp"

#include <array>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace gclus::io::wire {

namespace {

// The CRC is kept inverted while bytes are folded in: each path below
// takes and returns the register, crc32c applies the ~ at both ends.

/// Reflected Castagnoli polynomial.
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: row 0 folds in one byte; row k folds in a byte
/// followed by k zero bytes.
constexpr Crc32cTables make_tables() {
  Crc32cTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ ((c & 1u) != 0 ? kCrc32cPoly : 0u);
    }
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32cTables kTables = make_tables();

std::uint32_t table_update(std::uint32_t c, const std::byte* p,
                           std::size_t len) {
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint64_t w = read_le_at<std::uint64_t>(p) ^ c;
    c = kTables[7][w & 0xFF] ^ kTables[6][(w >> 8) & 0xFF] ^
        kTables[5][(w >> 16) & 0xFF] ^ kTables[4][(w >> 24) & 0xFF] ^
        kTables[3][(w >> 32) & 0xFF] ^ kTables[2][(w >> 40) & 0xFF] ^
        kTables[1][(w >> 48) & 0xFF] ^ kTables[0][w >> 56];
  }
  for (; len > 0; ++p, --len) {
    c = (c >> 8) ^ kTables[0][(c ^ static_cast<std::uint32_t>(*p)) & 0xFF];
  }
  return c;
}

using UpdateFn = std::uint32_t (*)(std::uint32_t, const std::byte*,
                                   std::size_t);

#if defined(__x86_64__)
// CMake sets no -march, so the instruction is enabled for this function
// alone and chosen at run time.
__attribute__((target("sse4.2"))) std::uint32_t sse42_update(
    std::uint32_t c, const std::byte* p, std::size_t len) {
  std::uint64_t c64 = c;
  for (; len >= 8; p += 8, len -= 8) {
    c64 = _mm_crc32_u64(c64, read_le_at<std::uint64_t>(p));
  }
  c = static_cast<std::uint32_t>(c64);
  for (; len > 0; ++p, --len) {
    c = _mm_crc32_u8(c, static_cast<unsigned char>(*p));
  }
  return c;
}

UpdateFn pick_update() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") ? sse42_update : table_update;
}
#else
UpdateFn pick_update() { return table_update; }
#endif

}  // namespace

std::uint32_t crc32c(std::uint32_t crc, const void* p, std::size_t len) {
  static const UpdateFn update = pick_update();
  return ~update(~crc, static_cast<const std::byte*>(p), len);
}

std::uint32_t crc32c_table(std::uint32_t crc, const void* p,
                           std::size_t len) {
  return ~table_update(~crc, static_cast<const std::byte*>(p), len);
}

}  // namespace gclus::io::wire
