// Tests for the distributed rotation algorithm (paper Algorithm 1 /
// Theorem 2): end-to-end cycles on G(n,p), CONGEST compliance, broadcast
// mode equivalence, determinism, failure injection, and step accounting.
#include "core/dra.h"

#include <gtest/gtest.h>

#include <iostream>
#include <map>
#include <vector>

#include "core/sequential.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "runner/scenario.h"
#include "runner/trial_runner.h"
#include "support/stats.h"

namespace dhc::core {
namespace {

using graph::Graph;

Graph dense_gnp(graph::NodeId n, double c, std::uint64_t seed) {
  support::Rng rng(seed);
  return graph::gnp(n, graph::edge_probability(n, c, 1.0), rng);
}

TEST(Dra, SolvesCompleteGraph) {
  const Graph g = graph::complete_graph(24);
  const auto r = run_dra(g, /*seed=*/1);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_incidence(g, r.cycle).ok());
}

TEST(Dra, SolvesTriangle) {
  const Graph g = graph::cycle_graph(3);
  const auto r = run_dra(g, 2);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_incidence(g, r.cycle).ok());
}

TEST(Dra, TinyGraphFails) {
  const Graph g(2, {{0, 1}});
  const auto r = run_dra(g, 1);
  EXPECT_FALSE(r.success);
}

TEST(Dra, StarGraphFailsGracefully) {
  const auto r = run_dra(graph::star_graph(12), 3);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.metrics.hit_round_limit);  // aborts, doesn't spin
}

TEST(Dra, DisconnectedGraphFails) {
  // Two triangles: each component "closes" a 3-cycle, but the global result
  // is not a Hamiltonian cycle of the 6-node graph.
  const Graph g(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const auto r = run_dra(g, 4);
  if (r.success) {
    EXPECT_FALSE(graph::verify_cycle_incidence(g, r.cycle).ok());
  }
}

TEST(Dra, DeterministicAcrossRuns) {
  const Graph g = dense_gnp(128, 6.0, 11);
  const auto a = run_dra(g, 42);
  const auto b = run_dra(g, 42);
  ASSERT_TRUE(a.success);
  ASSERT_TRUE(b.success);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.cycle.neighbors_of, b.cycle.neighbors_of);
}

TEST(Dra, DifferentSeedsGiveDifferentCycles) {
  const Graph g = graph::complete_graph(32);
  const auto a = run_dra(g, 1);
  const auto b = run_dra(g, 2);
  ASSERT_TRUE(a.success);
  ASSERT_TRUE(b.success);
  EXPECT_NE(a.cycle.neighbors_of, b.cycle.neighbors_of);
}

TEST(Dra, FloodAndTreeBroadcastsAgreeOnOutcome) {
  const Graph g = dense_gnp(96, 6.0, 13);
  DraConfig tree_cfg;
  tree_cfg.broadcast = BroadcastMode::kTree;
  DraConfig flood_cfg;
  flood_cfg.broadcast = BroadcastMode::kFlood;
  const auto rt = run_dra(g, 7, tree_cfg);
  const auto rf = run_dra(g, 7, flood_cfg);
  ASSERT_TRUE(rt.success) << rt.failure_reason;
  ASSERT_TRUE(rf.success) << rf.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_incidence(g, rt.cycle).ok());
  EXPECT_TRUE(graph::verify_cycle_incidence(g, rf.cycle).ok());
  // Flooding pushes a copy of every rotation across every edge; the tree
  // broadcast is strictly cheaper in messages.
  EXPECT_LT(rt.metrics.messages, rf.metrics.messages);

  // EXP-A1 on the runner's instances (the `dhc_run --algos=dra` trials of
  // this scenario): at the largest n, flooding's median message count is
  // more than 1.5x the tree broadcast's.
  runner::Scenario s;
  s.algos = {runner::Algorithm::kDra};
  s.sizes = {128, 256};
  s.deltas = {1.0};
  s.cs = {6.0};
  s.seeds = 2;
  s.base_seed = 350;
  std::map<graph::NodeId, std::vector<double>> messages[2];  // [tree, flood], by n
  for (const auto& t : runner::expand(s)) {
    const Graph instance = runner::make_trial_instance(t);
    for (const auto* cfg : {&tree_cfg, &flood_cfg}) {
      const auto r = run_dra(instance, t.algo_seed, *cfg);
      if (r.success) {
        messages[cfg == &flood_cfg][t.n].push_back(static_cast<double>(r.metrics.messages));
      }
    }
  }
  double gap = 0.0;  // flood/tree median messages at the largest n both solved
  for (const auto& [n, tree] : messages[0]) {
    if (messages[1].contains(n)) {
      gap = support::quantile(messages[1][n], 0.5) / support::quantile(tree, 0.5);
    }
  }
  std::cout << "claim: EXP-A1 flood/tree message ratio " << gap << " (> 1.5)\n";
  EXPECT_GT(gap, 1.5);
}

TEST(Dra, StepBudgetInjectionAbortsInsteadOfHanging) {
  DraConfig cfg;
  cfg.step_multiplier = 0.01;  // absurdly small budget
  const auto r = run_dra(graph::complete_graph(64), 5, cfg);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.metrics.hit_round_limit);
  EXPECT_NE(r.failure_reason.find("aborted"), std::string::npos);
}

TEST(Dra, StatsAreConsistent) {
  const Graph g = dense_gnp(128, 6.0, 17);
  const auto r = run_dra(g, 3);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.stat("extensions"), 127.0);  // n-1 path growths
  EXPECT_GE(r.stat("steps"), 128.0);       // at least n steps to close
  EXPECT_GT(r.metrics.rounds, 0u);
  EXPECT_GT(r.metrics.messages, 0u);
}

TEST(Dra, MemoryStaysLinearInDegree) {
  // Fully-distributed claim at the DRA level: peak node memory is O(deg),
  // far below n for sparse graphs.
  const Graph g = dense_gnp(512, 5.0, 19);
  const auto r = run_dra(g, 23);
  ASSERT_TRUE(r.success) << r.failure_reason;
  const auto max_mem = static_cast<std::size_t>(r.metrics.max_node_peak_memory());
  EXPECT_LE(max_mem, 3 * g.max_degree() + 8);
}

// Theorem 2 sweep: p = c ln n / n with c = 6; every seed must produce a
// verified cycle within the step bound.
class DraOnGnp : public ::testing::TestWithParam<std::tuple<std::uint64_t, graph::NodeId>> {};

TEST_P(DraOnGnp, FindsVerifiedCycle) {
  const auto [seed, n] = GetParam();
  const Graph g = dense_gnp(n, 6.0, seed);
  const auto r = run_dra(g, seed * 31 + 7);
  ASSERT_TRUE(r.success) << "n=" << n << " seed=" << seed << ": " << r.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_incidence(g, r.cycle).ok());
  EXPECT_LE(r.stat("steps"), theorem2_step_bound(n));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DraOnGnp,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3),
                       ::testing::Values<graph::NodeId>(48, 96, 192, 384)));

}  // namespace
}  // namespace dhc::core
