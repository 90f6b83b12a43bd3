#include "core/sequential.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/path_treap.h"
#include "core/sequential_linear.h"
#include "support/require.h"

namespace dhc::core {

using graph::CycleOrder;
using graph::Graph;

double theorem2_step_bound(graph::NodeId n) {
  return 7.0 * static_cast<double>(n) * std::log(static_cast<double>(std::max<NodeId>(n, 2)));
}

namespace {

// A draw's result: the target and the directed CSR id of head → target
// (row_offsets[head] + rank of target in head's row).
struct Draw {
  NodeId target;
  std::size_t id;
};

// The rotation-extension walk of paper Alg. 1 (Angluin–Valiant; Theorem 2's
// step model), shared by the rotation solver and cre.  The walk owns the
// step budget, the used-edge set, the path and the extension / rotation /
// closure moves; `draw(head, is_used, stats)` only picks a uniform unused
// edge at the head, or returns nullopt when none is left (event E2).
//
// The used-edge set is one bit per directed CSR edge id (2m bits).  Both
// directions are set when an edge is consumed, so either endpoint's draw
// skips it.
template <typename DrawFn>
RotationResult rotation_walk(const Graph& g, support::Rng& rng, const RotationConfig& cfg,
                             DrawFn&& draw) {
  RotationResult result;
  const NodeId n = g.n();
  if (n < 3) {
    result.failure_reason = "graph has fewer than 3 nodes";
    return result;
  }

  const std::uint64_t max_steps =
      cfg.max_steps_override != 0
          ? cfg.max_steps_override
          : static_cast<std::uint64_t>(cfg.step_multiplier * static_cast<double>(n) *
                                       std::log(static_cast<double>(n))) +
                16;

  const auto row_off = g.row_offsets();
  std::vector<std::uint64_t> used((row_off[n] + 63) / 64, 0);
  const auto is_used = [&](std::size_t id) { return ((used[id >> 6] >> (id & 63)) & 1u) != 0; };
  const auto mark_used = [&](std::size_t id) { used[id >> 6] |= std::uint64_t{1} << (id & 63); };

  PathTreap path(n, rng.next_u64());
  NodeId head = static_cast<NodeId>(rng.below(n));  // random v1 (paper §II-A2)
  path.append(head);

  while (result.stats.steps < max_steps) {
    const std::optional<Draw> drawn = draw(head, is_used, result.stats);
    if (!drawn) {
      result.failure_reason = "head ran out of unused edges (event E2)";
      return result;
    }
    const NodeId target = drawn->target;
    const std::size_t back_rank = g.neighbor_rank(target, head);
    DHC_CHECK(back_rank != Graph::kNoRank, "CSR adjacency not symmetric");
    mark_used(drawn->id);
    mark_used(row_off[target] + back_rank);
    result.stats.steps += 1;

    if (!path.contains(target)) {
      // Extension: the path grows by one node; the new node becomes head.
      path.append(target);
      head = target;
      result.stats.extensions += 1;
      continue;
    }

    const std::uint32_t h = path.size();
    const std::uint32_t j = path.position(target);
    if (j == 1 && h == n) {
      // pos = |V| and the head holds an edge to v1: the cycle closes
      // (paper Alg. 1 line 12).
      result.success = true;
      result.cycle.order = path.to_vector();
      return result;
    }
    // Rotation (paper Fig. 2): v1..vj vj+1..vh  →  v1..vj vh..vj+1; the
    // new head is the old vj+1.
    head = path.rotate_suffix(j);
    result.stats.rotations += 1;
  }

  result.failure_reason = "step budget exhausted (event E1)";
  return result;
}

// cre's row sampling: after this many uniform draws that all land on used
// edges, switch to the exact two-pass scan.  16 keeps the expected extra
// scan probability at (used fraction)^16 — negligible until a row is almost
// fully consumed, which is exactly when the O(deg) scan is about to report
// starvation anyway.
constexpr int kMaxResamples = 16;

}  // namespace

RotationResult rotation_hamiltonian_cycle(const Graph& g, support::Rng& rng,
                                          const RotationConfig& cfg) {
  // Per-node unused-edge lists (paper Alg. 1 line 3), held as ranks into the
  // CSR row and consumed by swap-and-pop.  An entry consumed from the other
  // endpoint is skipped lazily when drawn, so both endpoints' removals
  // (line 13) cost O(1) amortized.
  std::vector<std::vector<std::uint32_t>> unused(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    unused[v].resize(g.degree(v));
    std::iota(unused[v].begin(), unused[v].end(), 0u);
  }
  const auto row_off = g.row_offsets();
  return rotation_walk(
      g, rng, cfg, [&](NodeId head, const auto& is_used, RotationStats&) -> std::optional<Draw> {
        auto& list = unused[head];
        while (!list.empty()) {
          const auto idx = static_cast<std::size_t>(rng.below(list.size()));
          const std::uint32_t rank = list[idx];
          list[idx] = list.back();
          list.pop_back();
          const std::size_t id = row_off[head] + rank;
          if (!is_used(id)) return Draw{g.neighbors(head)[rank], id};
        }
        return std::nullopt;
      });
}

RotationResult cre_hamiltonian_cycle(const Graph& g, support::Rng& rng,
                                     const RotationConfig& cfg) {
  // Uniform draw among the head's unused incident edges: bounded rejection
  // sampling over the CSR row, then an exact two-pass scan.  Both stages are
  // uniform over the unused entries, so the mixture is too.
  const auto row_off = g.row_offsets();
  return rotation_walk(
      g, rng, cfg,
      [&](NodeId head, const auto& is_used, RotationStats& stats) -> std::optional<Draw> {
        const auto row = g.neighbors(head);
        const std::size_t base = row_off[head];
        const std::size_t deg = row.size();
        for (int t = 0; t < kMaxResamples && deg > 0; ++t) {
          const auto r = static_cast<std::size_t>(rng.below(deg));
          if (!is_used(base + r)) return Draw{row[r], base + r};
          stats.resamples += 1;
        }
        std::size_t unused_count = 0;
        for (std::size_t i = 0; i < deg; ++i) {
          if (!is_used(base + i)) ++unused_count;
        }
        if (unused_count == 0) return std::nullopt;
        auto pick = static_cast<std::size_t>(rng.below(unused_count));
        for (std::size_t i = 0;; ++i) {
          if (is_used(base + i)) continue;
          if (pick == 0) return Draw{row[i], base + i};
          --pick;
        }
      });
}

namespace {

bool exact_dfs(const Graph& g, std::vector<NodeId>& order, std::vector<bool>& visited) {
  const NodeId n = g.n();
  if (order.size() == n) {
    return g.has_edge(order.back(), order.front());
  }
  const NodeId v = order.back();
  for (const NodeId w : g.neighbors(v)) {
    if (visited[w]) continue;
    visited[w] = true;
    order.push_back(w);
    if (exact_dfs(g, order, visited)) return true;
    order.pop_back();
    visited[w] = false;
  }
  return false;
}

}  // namespace

std::optional<CycleOrder> exact_hamiltonian_cycle(const Graph& g) {
  const NodeId n = g.n();
  if (n < 3) return std::nullopt;
  for (NodeId v = 0; v < n; ++v) {
    if (g.degree(v) < 2) return std::nullopt;  // a cycle needs degree >= 2
  }
  std::vector<NodeId> order{0};
  std::vector<bool> visited(n, false);
  visited[0] = true;
  if (exact_dfs(g, order, visited)) {
    CycleOrder cycle;
    cycle.order = std::move(order);
    return cycle;
  }
  return std::nullopt;
}

}  // namespace dhc::core
