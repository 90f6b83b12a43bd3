// DHC1 — Distributed Hamiltonian Cycle Algorithm 1 (paper §II-A, Alg. 2).
//
// The p = c·ln n / √n regime.  Phase 1 partitions the graph into K ≈ √n
// random color classes of expected size √n and runs the Distributed
// Rotation Algorithm in each: DHC2's Phase 1, run by the same `Phase1`
// component (core/dhc2.h).  Phase 2 contracts
// one cycle edge (vᵢ, uᵢ) per sub-cycle into a *hypernode* — uᵢ is the
// in-port and vᵢ = pred(uᵢ) the out-port — and runs a rotation algorithm
// over the K-node hypernode graph G′; splicing the hypernode cycle through
// every sub-cycle yields the Hamiltonian cycle of G (paper Fig. 1).
//
// Port discipline (DESIGN.md §2.1): the paper treats G′ as an undirected
// G(K, 1−(1−p)²) and runs DRA unchanged, but a hypernode must be entered
// at one port and exited at the other, and a rotation is realizable only
// when the discovered physical edge lands on the port currently facing the
// path suffix.  We therefore track ports explicitly:
//   * hypernode state lives at the *agent* (uᵢ); the partner port (vᵢ)
//     holds its own unused port-edge list and fires on request,
//   * all four port-port connector types are allowed (edge probability
//     1−(1−p)⁴ ≥ the paper's 1−(1−p)²),
//   * a rotation edge landing on the wrong port is rejected and the head
//     redraws — a constant-factor step overhead measured by EXP-A2.
// Rotation broadcasts travel the global BFS tree (2·depth settle), since
// hypernodes are scattered across the whole graph.
//
// Phase-2 sub-phases, each ending at a quiescence barrier: pick (leaders
// draw a random cycle position; that node becomes the agent), announce
// (ports introduce themselves to physical neighbors), census (convergecast
// counts live hypernodes and the minimum color — its agent seeds the hyper
// path), hyper-DRA, and assignment (ports learn their final G′ edges).
#pragma once

#include <cstdint>

#include "core/dhc2.h"
#include "core/dra.h"
#include "core/result.h"
#include "graph/graph.h"

namespace dhc::core {

struct Dhc1Config : congest::EngineOptions {
  /// Partition count; defaults to round(√n) per the paper.
  std::uint32_t num_colors_override = 0;

  /// Phase-2 step budget multiplier over K·ln K (wrong-port rejections
  /// roughly double the steps the plain analysis predicts).  Every step
  /// uses up one port edge, so an attempt ends by success or starvation
  /// within 2K(K−1) steps; at the default the budget can bind only for
  /// K ≥ 69, and lowering it is the one way to reach the budget abort.
  double hyper_step_multiplier = 32.0;

  DraParams dra;
};

/// Runs DHC1 end to end.  On success the cycle is in per-node incident-edge
/// form; `stats` includes Phase-2 counters ("wrong_port_rejects",
/// "hyper_steps", "hyper_rotations", "live_hypernodes").
Result run_dhc1(const graph::Graph& g, std::uint64_t seed, const Dhc1Config& cfg = {});

}  // namespace dhc::core
