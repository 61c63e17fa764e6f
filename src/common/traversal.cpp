#include "common/traversal.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace gclus {

const char* traversal_mode_name(TraversalMode mode) {
  switch (mode) {
    case TraversalMode::kPushOnly:
      return "push";
    case TraversalMode::kPullOnly:
      return "pull";
    case TraversalMode::kAuto:
      break;
  }
  return "auto";
}

bool decide_direction(bool pulling, std::size_t frontier_size,
                      std::size_t num_nodes,
                      std::uint64_t frontier_degree_sum,
                      std::uint64_t remaining_degree_sum,
                      const GrowthOptions& options) {
  switch (options.mode) {
    case TraversalMode::kPushOnly:
      return false;
    case TraversalMode::kPullOnly:
      return true;
    case TraversalMode::kAuto:
      break;
  }
  if (pulling) {
    return static_cast<double>(frontier_size) >=
           static_cast<double>(num_nodes) / options.beta;
  }
  return static_cast<double>(frontier_degree_sum) >
         static_cast<double>(remaining_degree_sum) / options.alpha;
}

GrowthOptions default_growth_options() {
  static const GrowthOptions cached = [] {
    GrowthOptions o;
    if (const char* env = std::getenv("GCLUS_GROWTH_MODE")) {
      if (std::strcmp(env, "push") == 0) {
        o.mode = TraversalMode::kPushOnly;
      } else if (std::strcmp(env, "pull") == 0) {
        o.mode = TraversalMode::kPullOnly;
      } else {
        if (std::strcmp(env, "auto") != 0) {
          std::fprintf(stderr,
                       "GCLUS_GROWTH_MODE=%s not recognized "
                       "(expected push|pull|auto); using auto\n",
                       env);
        }
        o.mode = TraversalMode::kAuto;
      }
    }
    return o;
  }();
  return cached;
}

}  // namespace gclus
