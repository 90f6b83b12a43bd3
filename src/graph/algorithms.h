// Classic graph algorithms used by the simulator and the experiments.
//
// BFS distances back the CONGEST BFS-tree tests, the diameter routines back
// the Chung–Lu Θ(ln n / ln ln n) diameter experiment (EXP-D1) that the
// paper's round accounting leans on, and connectivity backs failure
// injection (disconnected inputs must fail gracefully, not hang).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"

namespace dhc::graph {

/// Distance label for unreachable nodes.
inline constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();

/// Hop distances from `source` (kUnreachable where disconnected).
std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source);

/// Eccentricity of `source` within its component (max finite BFS distance).
std::uint32_t eccentricity(const Graph& g, NodeId source);

/// Exact diameter via all-sources BFS — O(n·m), intended for n ≲ 10⁴.
/// Returns 0 for graphs with fewer than 2 nodes; requires connectivity.
std::uint32_t exact_diameter(const Graph& g);

/// True iff the graph is connected (vacuously true for n <= 1).
bool is_connected(const Graph& g);

/// Component id per node (0-based, by discovery order) and component count.
struct Components {
  std::vector<std::uint32_t> label;
  std::uint32_t count = 0;
};
Components connected_components(const Graph& g);

}  // namespace dhc::graph
