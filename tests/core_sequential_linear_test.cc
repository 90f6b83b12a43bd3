// Tests for the CRE linear-space oracle (core/sequential_linear.h):
// differential agreement with the exact backtracking solver and the rotation
// solver on small random graphs, a success-rate pin above the
// p = c·log n / n threshold, and the structural step identities.
#include "core/sequential_linear.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/sequential.h"
#include "graph/generators.h"

namespace dhc::core {
namespace {

using graph::Graph;

TEST(Cre, SolvesCompleteGraph) {
  support::Rng rng(1);
  const Graph g = graph::complete_graph(32);
  const auto r = cre_hamiltonian_cycle(g, rng);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_order(g, r.cycle).ok());
  EXPECT_EQ(r.stats.extensions, 31u);
}

TEST(Cre, TinyGraphFailsGracefully) {
  support::Rng rng(1);
  const Graph g(2, {{0, 1}});
  const auto r = cre_hamiltonian_cycle(g, rng);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.failure_reason.empty());
}

TEST(Cre, StarGraphFailsWithoutCrashing) {
  support::Rng rng(2);
  const auto r = cre_hamiltonian_cycle(graph::star_graph(16), rng);
  EXPECT_FALSE(r.success);
}

TEST(Cre, DeterministicGivenRngState) {
  const Graph g = graph::complete_graph(20);
  support::Rng a(42);
  support::Rng b(42);
  const auto ra = cre_hamiltonian_cycle(g, a);
  const auto rb = cre_hamiltonian_cycle(g, b);
  ASSERT_TRUE(ra.success);
  EXPECT_EQ(ra.cycle.order, rb.cycle.order);
  EXPECT_EQ(ra.stats.steps, rb.stats.steps);
  EXPECT_EQ(ra.stats.resamples, rb.stats.resamples);
}

TEST(Cre, StepBudgetOverrideIsRespected) {
  support::Rng rng(4);
  const Graph g = graph::complete_graph(64);
  RotationConfig cfg;
  cfg.max_steps_override = 5;  // far too few to build a 64-cycle
  const auto r = cre_hamiltonian_cycle(g, rng, cfg);
  EXPECT_FALSE(r.success);
  EXPECT_LE(r.stats.steps, 5u);
  EXPECT_NE(r.failure_reason.find("budget"), std::string::npos);
}

// Same regime as the rotation solver's sweep: G(n, p) with p = c·ln n / n at
// c = 6 succeeds on every (seed, n) cell, and the structural identities hold.
class CreOnGnp : public ::testing::TestWithParam<std::tuple<std::uint64_t, graph::NodeId>> {};

TEST_P(CreOnGnp, FindsVerifiedCycleWithStepIdentities) {
  const auto [seed, n] = GetParam();
  support::Rng graph_rng(seed);
  const double p = graph::edge_probability(n, /*c=*/6.0, /*delta=*/1.0);
  const Graph g = graph::gnp(n, p, graph_rng);
  support::Rng algo_rng(seed + 1000);
  const auto r = cre_hamiltonian_cycle(g, algo_rng);
  ASSERT_TRUE(r.success) << "n=" << n << " seed=" << seed << ": " << r.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_order(g, r.cycle).ok());
  // Every step is an extension or a rotation except the final closing draw.
  EXPECT_EQ(r.stats.extensions + r.stats.rotations + 1, r.stats.steps);
  EXPECT_EQ(r.stats.extensions, static_cast<std::uint64_t>(n) - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CreOnGnp,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 4, 5),
                       ::testing::Values<graph::NodeId>(64, 256, 1024)));

TEST(Cre, AgreesWithExactOracleOnSmallRandomGraphs) {
  // Where the exact solver says "no cycle", cre must fail; where cre
  // succeeds, the cycle must verify against the input graph.
  support::Rng meta(7);
  for (int trial = 0; trial < 30; ++trial) {
    support::Rng graph_rng(meta.next_u64());
    const graph::NodeId n = 12;
    const Graph g = graph::gnp(n, 0.3, graph_rng);
    support::Rng algo_rng(meta.next_u64());
    const auto r = cre_hamiltonian_cycle(g, algo_rng);
    const auto exact = exact_hamiltonian_cycle(g);
    if (r.success) {
      EXPECT_TRUE(exact.has_value());
      EXPECT_TRUE(graph::verify_cycle_order(g, r.cycle).ok());
    }
    if (!exact.has_value()) {
      EXPECT_FALSE(r.success);
    }
  }
}

TEST(Cre, MatchesRotationSuccessAboveThreshold) {
  // Differential pin against the rotation solver: in the supercritical regime
  // (p = 6·ln n / n at n = 128, 20 fixed seeds) both randomized solvers
  // succeed on essentially every instance — the linear-space rewrite changes
  // the working set, not the algorithm's success profile.  The counts are
  // deterministic (fixed seeds); the floors leave slack for one marginal
  // instance per solver.
  const graph::NodeId n = 128;
  const double p = graph::edge_probability(n, /*c=*/6.0, /*delta=*/1.0);
  int cre_ok = 0;
  int rotation_ok = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    support::Rng graph_rng(900 + seed);
    const Graph g = graph::gnp(n, p, graph_rng);
    support::Rng cre_rng(1900 + seed);
    if (cre_hamiltonian_cycle(g, cre_rng).success) ++cre_ok;
    support::Rng rot_rng(1900 + seed);
    if (rotation_hamiltonian_cycle(g, rot_rng).success) ++rotation_ok;
  }
  EXPECT_GE(cre_ok, 19);
  EXPECT_GE(rotation_ok, 19);
  EXPECT_GE(cre_ok, rotation_ok);
}

}  // namespace
}  // namespace dhc::core
