// Strict numeric parsing, shared by every flag / parameter / environment
// reader in the tree.
//
// Before this header existed the repo had five copy-pasted strtoull
// wrappers (QueryServer env defaults, the MR engine's spill overrides,
// registry parameter validation, and two example CLIs) plus one bare
// atoi, each with its own idea of what "invalid" means — some accepted
// "64k", some accepted "-1" wrapped modulo 2^64, some silently returned
// 0.  parse_u64 is the single definition: a value parses iff it is a
// nonempty run of decimal digits that fits in 64 bits.  No sign, no
// leading/trailing whitespace, no trailing garbage, no silent overflow
// wrap — every caller rejects the same inputs, so "GCLUS_SERVER_WORKERS=8
// " failing in one subsystem cannot quietly succeed in another.
//
// env_u64 adds the environment-variable policy on top: unset/empty reads
// as the fallback (the normal case), while a *malformed* or out-of-range
// value is reported once to stderr and also falls back — configuration
// typos must be visible, but an env typo aborting a long decomposition
// would be worse than the typo.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

#include "common/status.hpp"

namespace gclus {

/// Parses a base-10 unsigned 64-bit integer.  kInvalidArgument unless
/// `text` is entirely decimal digits and the value fits in a u64:
/// "", "12x", " 7", "+3", "-0", and 2^64 are all rejected; "007" is 7.
[[nodiscard]] StatusOr<std::uint64_t> parse_u64(std::string_view text);

/// Reads the environment variable `name` through parse_u64.  Returns
/// `fallback` when the variable is unset or empty; when it is set but
/// malformed or parses outside [minimum, maximum], warns on stderr (naming
/// the variable and the offending value) and returns `fallback`.
[[nodiscard]] std::uint64_t env_u64(
    const char* name, std::uint64_t fallback, std::uint64_t minimum = 0,
    std::uint64_t maximum = std::numeric_limits<std::uint64_t>::max());

}  // namespace gclus
