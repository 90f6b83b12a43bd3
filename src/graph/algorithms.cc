#include "graph/algorithms.h"

#include <algorithm>
#include <queue>

#include "support/require.h"

namespace dhc::graph {

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  DHC_REQUIRE(source < g.n(), "bfs source " << source << " out of range");
  std::vector<std::uint32_t> dist(g.n(), kUnreachable);
  std::vector<NodeId> frontier{source};
  dist[source] = 0;
  std::uint32_t level = 0;
  std::vector<NodeId> next;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (const NodeId v : frontier) {
      for (const NodeId w : g.neighbors(v)) {
        if (dist[w] == kUnreachable) {
          dist[w] = level;
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

std::uint32_t eccentricity(const Graph& g, NodeId source) {
  std::uint32_t ecc = 0;
  for (const std::uint32_t d : bfs_distances(g, source)) {
    if (d != kUnreachable) ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t exact_diameter(const Graph& g) {
  if (g.n() < 2) return 0;
  DHC_REQUIRE(is_connected(g), "exact_diameter requires a connected graph");
  std::uint32_t diameter = 0;
  for (NodeId v = 0; v < g.n(); ++v) diameter = std::max(diameter, eccentricity(g, v));
  return diameter;
}

bool is_connected(const Graph& g) {
  if (g.n() <= 1) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t d) { return d == kUnreachable; });
}

Components connected_components(const Graph& g) {
  Components comp;
  comp.label.assign(g.n(), kUnreachable);
  std::vector<NodeId> stack;
  for (NodeId root = 0; root < g.n(); ++root) {
    if (comp.label[root] != kUnreachable) continue;
    stack.push_back(root);
    comp.label[root] = comp.count;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const NodeId w : g.neighbors(v)) {
        if (comp.label[w] == kUnreachable) {
          comp.label[w] = comp.count;
          stack.push_back(w);
        }
      }
    }
    ++comp.count;
  }
  return comp;
}

}  // namespace dhc::graph
