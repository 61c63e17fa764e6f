// Whether an address lies in a file-backed mapping of this process — how
// the tests and bench_io tell a graph that views an mmap-ed file in place
// from one whose arrays are on the heap, now that a Graph has one storage
// mode and no accessor says where its arrays live.  Reads /proc/self/maps,
// so it is Linux only: elsewhere kCanSeeMappings is false and callers skip
// the check.  Free of gtest, so benches can include it too.
#pragma once

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

namespace gclus::testutil {

#ifdef __linux__
inline constexpr bool kCanSeeMappings = true;
#else
inline constexpr bool kCanSeeMappings = false;
#endif

/// True when `p` lies in a mapping of this process with a nonzero inode
/// (a mapped file, unlinked or not); false for heap, stack and anonymous
/// memory, and wherever kCanSeeMappings is false.
inline bool in_file_mapping(const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    // "lo-hi perms offset dev inode [path]", addresses in hex.
    std::istringstream fields(line);
    std::uintptr_t lo = 0, hi = 0;
    char dash = 0;
    std::string perms, offset, dev;
    std::uint64_t inode = 0;
    fields >> std::hex >> lo >> dash >> hi >> perms >> offset >> dev >>
        std::dec >> inode;
    if (addr >= lo && addr < hi) return inode != 0;
  }
  return false;
}

}  // namespace gclus::testutil
