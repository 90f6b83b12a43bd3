// Shared result type for the distributed Hamiltonian-cycle algorithms.
//
// Every solver (DRA, DHC1, DHC2, Upcast, CollectAll) reports through this
// struct: outcome, the cycle in the paper's per-node incident-edge form, the
// CONGEST cost metrics, and algorithm-specific counters for the experiment
// harness.  Randomized failure is a value, not an exception — callers decide
// whether a failed trial is acceptable (success-probability experiments
// count them on purpose).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "congest/metrics.h"
#include "graph/hamiltonian.h"

namespace dhc::core {

struct Result {
  bool success = false;
  std::string failure_reason;

  /// The paper's output convention (§I-A): each node's two HC-incident
  /// edges.  Populated (and verified by callers) only on success.
  graph::CycleIncidence cycle;

  /// CONGEST cost of the run (rounds, messages, bits, memory, balance).
  congest::Metrics metrics;

  /// Algorithm-specific counters, e.g. "steps", "rotations",
  /// "wrong_port_rejects", "merge_levels", "root_solve_steps".  The runner
  /// moves this map into its TrialResult (one map per trial — don't copy).
  std::map<std::string, double> stats;

  /// Algorithm-specific series, e.g. DHC2's "bridges_per_level".
  std::map<std::string, std::vector<double>> series;

  double stat(const std::string& key) const {
    const auto it = stats.find(key);
    return it == stats.end() ? 0.0 : it->second;
  }
};

/// The common ending of a CONGEST solver run, after its stats are recorded:
/// hitting the round limit or a protocol-reported `failure` fails the run;
/// otherwise the claimed cycle (built only now, by `cycle()`) must verify
/// against `g` before the run counts as a success.
template <class CycleFn>
void conclude(Result& result, const graph::Graph& g, const std::string& failure, CycleFn cycle) {
  if (result.metrics.hit_round_limit) {
    result.failure_reason = "round limit exceeded";
    return;
  }
  if (!failure.empty()) {
    result.failure_reason = failure;
    return;
  }
  result.cycle = cycle();
  const auto verdict = graph::verify_cycle_incidence(g, result.cycle);
  if (!verdict.ok()) {
    result.failure_reason = "final cycle invalid: " + *verdict.failure;
    return;
  }
  result.success = true;
}

}  // namespace dhc::core
