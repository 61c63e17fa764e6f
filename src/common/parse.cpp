#include "common/parse.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace gclus {

StatusOr<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) {
    return InvalidArgumentError("expected an unsigned integer, got \"\"");
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return InvalidArgumentError("'" + std::string(text) +
                                  "' is not an unsigned integer");
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > kMax / 10 || (v == kMax / 10 && digit > kMax % 10)) {
      return InvalidArgumentError("'" + std::string(text) +
                                  "' overflows a 64-bit unsigned integer");
    }
    v = v * 10 + digit;
  }
  return v;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                      std::uint64_t minimum, std::uint64_t maximum) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const auto parsed = parse_u64(env);
  if (!parsed.ok() || *parsed < minimum || *parsed > maximum) {
    std::string range = ">= " + std::to_string(minimum);
    if (maximum != std::numeric_limits<std::uint64_t>::max()) {
      range = "in [" + std::to_string(minimum) + ", " +
              std::to_string(maximum) + "]";
    }
    std::fprintf(stderr,
                 "%s=%s is not a valid unsigned integer %s; using %llu\n",
                 name, env, range.c_str(),
                 static_cast<unsigned long long>(fallback));
    return fallback;
  }
  return *parsed;
}

}  // namespace gclus
