// The sectioned-file container shared by every binary format, plus the
// little-endian helpers its dialect is written in.
//
// CSR v2 (plain and compressed; graph/io.cpp) and the oracle artifact
// sidecar (server/artifact.cpp) are one container: a fixed little-endian
// header that records the byte position of each payload section,
// 64-byte-aligned sections in declaration order with zero padding between
// them, and a CRC32C checksum over the sections, stored zero-extended in
// an 8-byte header field.  Each format declares its sections once, as a
// table of `Section`s, and the functions below are the single definition
// of that container: the writer places (place_sections), checksums
// (checksum_sections) and emits (emit_sections) from the table, and the
// reader bounds-checks (sections_fit), reads (read_section) and checksums
// it the same way — so the formats cannot drift, and a checksum computed
// by one writer verifies in the other's reader.  Headers (magic, version,
// flags, reserved fields) stay with each format.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <vector>

namespace gclus::io::wire {

/// CRC32C (Castagnoli; RFC 3720 §B.4) of the `len` bytes at `p`,
/// continuing the checksum `crc` of the bytes before them: 0 starts a
/// stream, and crc32c(crc32c(0, a), b) == crc32c(0, a ++ b).  Serial; uses
/// the SSE4.2 crc32 instruction on x86-64 CPUs that have it (checked once
/// at run time), else crc32c_table — on every other host too, since the
/// CI builds and tests no other instruction path (an ARMv8 one waits for
/// an ARM runner and workload to measure it on).  Allocates nothing.
[[nodiscard]] std::uint32_t crc32c(std::uint32_t crc, const void* p,
                                   std::size_t len);

/// The table path of crc32c (slicing-by-8), the same values on every
/// host; public so tests can check the instruction path against it.
[[nodiscard]] std::uint32_t crc32c_table(std::uint32_t crc, const void* p,
                                         std::size_t len);

inline constexpr bool kLittleEndian = std::endian::native == std::endian::little;

template <typename T>
T byteswap_int(T v) {
  static_assert(sizeof(T) == 2 || sizeof(T) == 4 || sizeof(T) == 8,
                "byteswap_int supports 16-, 32- and 64-bit integers");
  auto u = static_cast<std::uint64_t>(v);
  if constexpr (sizeof(T) == 2) {
    u = __builtin_bswap16(static_cast<std::uint16_t>(u));
  } else if constexpr (sizeof(T) == 4) {
    u = __builtin_bswap32(static_cast<std::uint32_t>(u));
  } else {
    u = __builtin_bswap64(u);
  }
  return static_cast<T>(u);
}

template <typename T>
T to_le(T v) {
  return kLittleEndian ? v : byteswap_int(v);
}
template <typename T>
T from_le(T v) {
  return to_le(v);
}

inline constexpr std::uint64_t align_up(std::uint64_t pos,
                                        std::uint64_t align) {
  return (pos + align - 1) / align * align;
}

/// Stores `v` little-endian at `p` — for assembling a header buffer in
/// memory when its checksum must cover the header bytes themselves.
template <typename T>
void store_le_at(std::byte* p, T v) {
  const T le = to_le(v);
  std::memcpy(p, &le, sizeof(T));
}

template <typename T>
T read_le_at(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return from_le(v);
}

inline void write_zeros(std::ofstream& out, std::uint64_t count) {
  static constexpr std::array<char, 64> zeros{};
  while (count > 0) {
    const std::uint64_t n = std::min<std::uint64_t>(count, zeros.size());
    out.write(zeros.data(), static_cast<std::streamsize>(n));
    count -= n;
  }
}

// ---- section table ----------------------------------------------------------

inline constexpr std::uint64_t kSectionAlign = 64;

/// One payload section as its format declares it.
struct Section {
  std::uint64_t pos = 0;    ///< byte position in the file
  std::uint64_t count = 0;  ///< element count
  std::uint64_t width = 1;  ///< bytes per element: 1, 4 or 8
  /// May be absent, recorded as position 0 with no elements.
  bool optional = false;
  /// The elements in host byte order: the writer's source array, or the
  /// reader's view of (or copy from) the file.  Null only when count is 0.
  const void* data = nullptr;
};

/// Writer: positions each section of `table` on the first aligned byte at
/// or after the end of the one before it, the first at or after `start`.
inline void place_sections(std::span<Section> table, std::uint64_t start) {
  for (Section& s : table) {
    s.pos = align_up(start, kSectionAlign);
    start = s.pos + s.count * s.width;
  }
}

/// Feeds `s`'s elements to `sink(bytes, len)` in little-endian byte order:
/// one pass over the array on little-endian hosts.
template <typename Sink>
void for_each_le_chunk(const Section& s, Sink&& sink) {
  const auto* p = static_cast<const std::byte*>(s.data);
  if constexpr (kLittleEndian) {
    sink(p, static_cast<std::size_t>(s.count * s.width));
  } else {
    std::array<std::byte, 8> le{};
    for (std::uint64_t i = 0; i < s.count; ++i, p += s.width) {
      std::reverse_copy(p, p + s.width, le.begin());
      sink(le.data(), static_cast<std::size_t>(s.width));
    }
  }
}

/// Continues the CRC32C stream `crc` over the sections of `table`, in
/// order, as their little-endian bytes.
inline std::uint32_t checksum_sections(std::uint32_t crc,
                                       std::span<const Section> table) {
  for (const Section& s : table) {
    for_each_le_chunk(s, [&](const std::byte* p, std::size_t len) {
      crc = crc32c(crc, p, len);
    });
  }
  return crc;
}

/// Writer: `header`, then each placed section of `table` behind the zero
/// padding that brings the file to its position.
inline void emit_sections(std::ofstream& out,
                          std::span<const std::byte> header,
                          std::span<const Section> table) {
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  std::uint64_t written = header.size();
  for (const Section& s : table) {
    write_zeros(out, s.pos - written);
    for_each_le_chunk(s, [&](const std::byte* p, std::size_t len) {
      out.write(reinterpret_cast<const char*>(p),
                static_cast<std::streamsize>(len));
    });
    written = s.pos + s.count * s.width;
  }
}

/// Reader: true when every section of `table` starts on an aligned byte at
/// or after the end of the one before it (the first at or after `start`)
/// and ends inside a file of `size` bytes.  An optional section at
/// position 0 with no elements is absent and skipped.  Overflow-safe:
/// each count is bounded by the file before its end is computed.
inline bool sections_fit(std::span<const Section> table, std::uint64_t start,
                         std::uint64_t size) {
  for (const Section& s : table) {
    if (s.optional && s.pos == 0 && s.count == 0) continue;
    if (s.pos < start || s.pos % kSectionAlign != 0 || s.pos > size ||
        s.count > (size - s.pos) / s.width) {
      return false;
    }
    start = s.pos + s.count * s.width;
  }
  return true;
}

/// Reader: hands out section `s` (which passed sections_fit) of the file
/// image `file` as `view` — in place when `in_place` (a little-endian host
/// viewing pinned bytes), else decoded into `owned` — and points `s.data`
/// at it for checksum_sections.
template <typename T>
void read_section(Section& s, const std::byte* file, bool in_place,
                  std::span<const T>& view, std::vector<T>& owned) {
  const auto count = static_cast<std::size_t>(s.count);
  if (in_place) {
    view = {reinterpret_cast<const T*>(file + s.pos), count};
  } else {
    owned.resize(count);
    if (count > 0) std::memcpy(owned.data(), file + s.pos, count * sizeof(T));
    if constexpr (!kLittleEndian) {
      for (auto& v : owned) v = from_le(v);
    }
    view = owned;
  }
  s.data = view.data();
}

}  // namespace gclus::io::wire
