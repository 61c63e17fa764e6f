#include "api/workspace.hpp"

#include "common/check.hpp"

namespace gclus {

namespace {

template <typename T>
void ensure_atomic_capacity(std::vector<T>& v, std::size_t n) {
  // std::atomic is neither copyable nor movable, so a too-small
  // vector is replaced wholesale; a large-enough one is kept as-is (kernels
  // index only [0, n)).
  if (v.size() < n) v = std::vector<T>(n);
}

template <typename T>
std::size_t nested_bytes(const std::vector<std::vector<T>>& vv) {
  std::size_t total = 0;
  for (const auto& v : vv) total += v.capacity() * sizeof(T);
  return total;
}

}  // namespace

void GrowthScratch::ensure(NodeId n, std::size_t workers) {
  ensure_atomic_capacity(claim, n);
  covered.resize(n);
  dist.resize(n);
  uncovered_candidates.resize(n);
  if (next_frontier.size() < workers) next_frontier.resize(workers);
  if (sample.size() < workers) sample.resize(workers);
}

std::size_t GrowthScratch::bytes() const {
  return claim.size() * sizeof(claim[0]) + covered.capacity() +
         dist.capacity() * sizeof(Dist) +
         frontier.capacity() * sizeof(NodeId) +
         uncovered_candidates.capacity() * sizeof(NodeId) +
         nested_bytes(next_frontier) + nested_bytes(sample);
}

void BfsScratch::ensure(NodeId n, std::size_t workers) {
  ensure_atomic_capacity(dist, n);
  if (local_next.size() < workers) local_next.resize(workers);
  frontier.clear();
  candidates.clear();
}

std::size_t BfsScratch::bytes() const {
  return dist.size() * sizeof(dist[0]) + frontier.capacity() * sizeof(NodeId) +
         candidates.capacity() * sizeof(NodeId) + nested_bytes(local_next);
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

BfsScratch* Workspace::acquire_bfs(NodeId n, std::size_t workers) {
  GCLUS_CHECK(!bfs_in_use_.exchange(true),
              "Workspace BFS scratch is already lent to a live traversal;"
              " use one Workspace per concurrent run");
  ++bfs_acquires_;
  bfs_.ensure(n, workers);
  return &bfs_;
}

void Workspace::release_bfs(const BfsScratch* s) {
  GCLUS_CHECK(s == &bfs_ && bfs_in_use_.exchange(false),
              "release_bfs of a scratch this Workspace did not lend");
}

std::size_t Workspace::bytes() const { return growth_.bytes() + bfs_.bytes(); }

}  // namespace gclus
