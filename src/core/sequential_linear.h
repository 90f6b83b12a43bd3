// CRE — the linear-space cycle-rotation-extension solver, used as the
// paired-trial verification oracle at million-node scale (algorithm name
// `cre`).
//
// One walk, two draws.  cre and the rotation solver (core/sequential.h) run
// the same rotation-extension walk (Angluin–Valiant; the modern treatment is
// the CRE algorithm of arXiv:1903.03007 and the O(n)-whp algorithm of
// arXiv:2012.02551) over the shared CSR graph: the used-edge set is a bitset
// over directed CSR edge ids (2m bits = m/4 bytes, both directions marked),
// and the path is the O(log n)-per-rotation PathTreap.  Only the head's draw
// differs:
//
//  * rotation keeps a per-node list of unused edges (4 B per directed edge)
//    and draws from it by swap-and-pop;
//  * cre keeps no list.  It rejection-samples the head's CSR row for an
//    unused edge (16 tries), then falls back to an exact two-pass
//    uniform-among-unused scan when the row is mostly consumed.  The draw is
//    uniform over unused incident edges either way.
//
// cre's working set is 2m bits + 24 B/node (one packed PathTreap node) on
// top of the (shared, read-only) CSR.  Expected time is O(n log n) draws at
// the G(n, p) densities the paper studies, which is what makes a verified
// n = 2^20 trial fit beside the simulator in one machine.
#pragma once

#include "core/sequential.h"

namespace dhc::core {

/// Runs cre on `g`.  Succeeds whp when p ≳ c·ln n / n for sufficiently large
/// c; returns failure (never throws) when the head runs out of unused edges
/// or the step budget is exhausted — the same walk, budget and E1/E2 failure
/// taxonomy as rotation_hamiltonian_cycle.  `stats.resamples` counts row
/// samples that hit a used edge.
RotationResult cre_hamiltonian_cycle(const graph::Graph& g, support::Rng& rng,
                                     const RotationConfig& cfg = {});

}  // namespace dhc::core
