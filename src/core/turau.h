// Turau's distributed Hamiltonian-cycle algorithm for dense random graphs
// (arXiv:1805.06728), the modern O(log n)-time point of comparison to the
// source paper's DHC1/DHC2 (DESIGN.md §2.4).
//
// The algorithm grows a system of vertex-disjoint paths covering all nodes
// and merges them in parallel until one Hamiltonian path remains, then
// closes it into a cycle:
//
//   Sample  — every node draws ceil(kSampleC·ln n) incident edges, the
//             sparse random subgraph the initial paths are built from,
//   Match   — one propose/accept exchange on the sampled edges; each node
//             proposes to one lower-id candidate and accepts at most one
//             proposal, so the accepted edges form paths (ids strictly
//             decrease along a path — no cycles by construction),
//   Merge   — O(log n) levels: every path derives a shared coin from its
//             (tail, head) endpoint pair; passive tails announce to their
//             neighbors, active heads propose to one announcing tail, tails
//             accept one proposal, and the merged path's far endpoints learn
//             their new partner by a relay pipelined along the path edges.
//             Active-to-passive orientation makes premature cycles
//             impossible, so the path count shrinks geometrically,
//   Close   — the head of the final Hamiltonian path closes the cycle if it
//             sees the tail, and otherwise performs a rotation (paper Fig. 2
//             style) at a random neighbor to redraw the head.
//
// Progress between phases/levels uses the quiescence barriers of DESIGN.md
// §2.3 (counted and priced in Metrics).  Stalled merging or closing aborts
// with a failure result, never hangs.
#pragma once

#include <cstdint>

#include "congest/network.h"
#include "core/result.h"
#include "graph/graph.h"

namespace dhc::core {

/// Turau's algorithm takes only the engine options; its sampling and budget
/// constants live in turau.cc.
struct TurauConfig : congest::EngineOptions {};

/// Runs Turau's algorithm end to end.  On success the cycle is in the
/// paper's per-node incident-edge form; `stats` includes "initial_paths",
/// "merge_levels", "close_attempts", and "sampled_edges", and
/// `series["paths_per_level"]` records the path count after every merge
/// level.  Requires p well above the connectivity threshold (the regime of
/// arXiv:1805.06728) for a high success rate.
Result run_turau(const graph::Graph& g, std::uint64_t seed, const TurauConfig& cfg = {});

}  // namespace dhc::core
