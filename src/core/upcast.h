// The Upcast algorithm (paper §III) and the trivial collect-everything
// baseline (§I-A).
//
// Steps (paper §III-A): elect a leader, build a BFS tree rooted at it, have
// every node sample Θ(log n) of its incident edges and upcast them to the
// root (pipelined, one edge record per tree edge per round), let the root
// solve locally with the sequential rotation algorithm, and downcast each
// node's two cycle edges back (routed along the reverse upcast paths).
//
// The algorithm stays within the CONGEST bandwidth but is *not* fully
// distributed: the root stores Θ(n log n) words and does Θ(n log n) local
// work — the asymmetry EXP-L1 measures against DHC2.  Round complexity is
// O(log n / p) (Theorems 17/19): the BFS tree of a random graph is balanced
// (Lemmas 11–15 / 18), so upcast congestion divides evenly.
//
// With `collect_all` set, every node ships *all* incident edges: the trivial
// O(m)-round upper bound the paper opens with, used as the baseline in
// EXP-C1.
#pragma once

#include <cstdint>

#include "congest/network.h"
#include "core/result.h"
#include "graph/graph.h"

namespace dhc::core {

struct UpcastConfig : congest::EngineOptions {
  /// Every node samples ceil(sample_c · ln n) incident edges (paper step 3's
  /// c′ log n).  Clamped to the node's degree.
  double sample_c = 3.0;

  /// Ship all incident edges instead of a sample (the CollectAll baseline).
  bool collect_all = false;
};

/// Runs Upcast (or CollectAll) end to end.  Stats include "root_edges",
/// "root_solve_steps", "tree_depth", and the metrics expose the root's
/// memory/traffic asymmetry.
Result run_upcast(const graph::Graph& g, std::uint64_t seed, const UpcastConfig& cfg = {});

}  // namespace dhc::core
