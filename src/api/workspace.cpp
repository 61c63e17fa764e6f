#include "api/workspace.hpp"

#include "common/check.hpp"

namespace gclus {

namespace {

std::size_t nested_bytes(const std::vector<std::vector<NodeId>>& vv) {
  std::size_t total = 0;
  for (const auto& v : vv) total += v.capacity() * sizeof(NodeId);
  return total;
}

}  // namespace

void GrowthScratch::ensure(NodeId n, std::size_t workers) {
  if (node_capacity < n) {
    level = std::make_unique_for_overwrite<Dist[]>(n);
    cluster = std::make_unique_for_overwrite<ClusterId[]>(n);
    node_capacity = n;
  }
  if (frontier.size() < workers) frontier.resize(workers);
  if (next_frontier.size() < workers) next_frontier.resize(workers);
}

std::size_t GrowthScratch::bytes() const {
  return std::size_t{node_capacity} * (sizeof(Dist) + sizeof(ClusterId)) +
         uncovered_candidates.capacity() * sizeof(NodeId) +
         nested_bytes(frontier) + nested_bytes(next_frontier);
}

GrowthScratch* Workspace::acquire_growth(NodeId n, std::size_t workers) {
  GCLUS_CHECK(!growth_in_use_.exchange(true),
              "Workspace growth scratch is already lent to a live GrowthState;"
              " use one Workspace per concurrent run");
  ++growth_acquires_;
  growth_.ensure(n, workers);
  return &growth_;
}

void Workspace::release_growth(const GrowthScratch* s) {
  GCLUS_CHECK(s == &growth_ && growth_in_use_.exchange(false),
              "release_growth of a scratch this Workspace did not lend");
}

}  // namespace gclus
