// Quickstart: generate a random graph, find a Hamiltonian cycle with DHC2,
// verify it, and print the CONGEST cost.
//
//   ./quickstart [--n=2048] [--c=2.5] [--delta=0.5] [--seed=1]
//
// This is the 60-second tour of the library: graph generation, the
// fully-distributed solver, the paper's per-node output convention, and the
// metrics the experiments are built on.
#include <cstdlib>
#include <iostream>

#include "core/dhc2.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "support/cli.h"

int main(int argc, char** argv) {
  using namespace dhc;
  const support::Cli cli(argc, argv);
  const auto n = static_cast<graph::NodeId>(cli.get_int("n", 2048));
  const double c = cli.get_double("c", 2.5);
  const double delta = cli.get_double("delta", 0.5);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  // 1. Generate G(n, p) with p = c·ln n / n^δ — the paper's input model.
  const double p = graph::edge_probability(n, c, delta);
  support::Rng graph_rng(seed);
  const graph::Graph g = graph::gnp(n, p, graph_rng);
  std::cout << "G(n=" << n << ", p=" << p << "): " << g.m() << " edges, "
            << (graph::is_connected(g) ? "connected" : "DISCONNECTED") << "\n";

  // 2. Run DHC2 — the paper's general fully-distributed algorithm.
  core::Dhc2Config cfg;
  cfg.delta = delta;
  const core::Result r = core::run_dhc2(g, seed + 1, cfg);
  if (!r.success) {
    std::cout << "DHC2 failed: " << r.failure_reason << "\n";
    return EXIT_FAILURE;
  }

  // 3. The output is distributed: each node knows its two cycle edges.
  const graph::NodeId probe = n / 2;
  const auto [a, b] = r.cycle.neighbors_of[probe];
  std::cout << "node " << probe << " knows its cycle neighbors: " << a << " and " << b << "\n";

  // 4. Verify the claimed cycle offline (every trial the runner executes is
  //    checked the same way).
  const auto verdict = graph::verify_cycle_incidence(g, r.cycle);
  std::cout << "verifier: " << (verdict.ok() ? "valid Hamiltonian cycle" : *verdict.failure)
            << "\n";
  std::cout << "rounds:   " << r.metrics.rounds << " (+" << r.metrics.barrier_count
            << " barriers x " << r.metrics.barrier_cost_rounds << " rounds)\n";
  std::cout << "messages: " << r.metrics.messages << ", bits: " << r.metrics.bits << "\n";
  std::cout << "phases:   dra=" << r.metrics.phase_rounds("dra")
            << " merge=" << r.metrics.phase_rounds("merge")
            << " (levels=" << r.stat("merge_levels") << ", bridges=" << r.stat("bridges_built")
            << ")\n";
  std::cout << "max node memory: " << r.metrics.max_node_peak_memory() << " words (n=" << n
            << ", max degree " << g.max_degree() << ") — fully distributed\n";
  return EXIT_SUCCESS;
}
