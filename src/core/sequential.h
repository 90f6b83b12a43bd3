// Sequential Hamiltonian-cycle solvers.
//
// Two roles in the reproduction:
//  * rotation_hamiltonian_cycle — the Angluin–Valiant rotation algorithm
//    ([1], [20]; paper §II intuition and Theorem 2's step model).  It is the
//    local solver the Upcast root runs (§III, step 4), the step-count model
//    for EXP-T2 at large n, and the sequential baseline in EXP-C1.  It and
//    cre (core/sequential_linear.h) are one rotation-extension walk with two
//    ways for the head to draw an unused edge.
//  * exact_hamiltonian_cycle — exponential backtracking, used as ground
//    truth in tests on small graphs (Petersen, K_{a,b}, …).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "graph/graph.h"
#include "graph/hamiltonian.h"
#include "support/rng.h"

namespace dhc::core {

struct RotationConfig {
  /// Step budget multiplier: the run aborts after multiplier·n·ln n steps
  /// (Theorem 2 proves 7·n·ln n suffices whp at c ≥ 86; the default leaves
  /// slack for the practical small-c regime the experiments explore).
  double step_multiplier = 16.0;

  /// Optional absolute step budget; overrides the multiplier when nonzero.
  std::uint64_t max_steps_override = 0;
};

struct RotationStats {
  std::uint64_t steps = 0;       // head actions (extensions + rotations + closure)
  std::uint64_t extensions = 0;  // path grew by a new node
  std::uint64_t rotations = 0;   // path suffix reversed
  std::uint64_t resamples = 0;   // cre only: row samples that hit a used edge
};

struct RotationResult {
  bool success = false;
  std::string failure_reason;
  graph::CycleOrder cycle;  // valid iff success
  RotationStats stats;
};

/// Runs the rotation algorithm on `g`.  Succeeds whp when p ≳ c·ln n / n for
/// sufficiently large c (Theorem 2); returns failure (never throws) when the
/// head runs out of unused edges or the step budget is exhausted.
RotationResult rotation_hamiltonian_cycle(const graph::Graph& g, support::Rng& rng,
                                          const RotationConfig& cfg = {});

/// Exhaustive backtracking with degree pruning; practical for n ≲ 30.
/// Returns std::nullopt when the graph has no Hamiltonian cycle.
std::optional<graph::CycleOrder> exact_hamiltonian_cycle(const graph::Graph& g);

/// The paper's step bound from Theorem 2: 7·n·ln n.
double theorem2_step_bound(graph::NodeId n);

}  // namespace dhc::core
