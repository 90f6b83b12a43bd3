// End-to-end tests for DHC2 (paper Algorithm 3 / Theorem 10): partitioned
// rotation + tree merging, across partition counts, densities, and merge
// strategies, plus failure injection.
#include "core/dhc2.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/algorithms.h"
#include "graph/generators.h"

namespace dhc::core {
namespace {

using graph::Graph;

Graph make_gnp(graph::NodeId n, double p, std::uint64_t seed) {
  support::Rng rng(seed);
  return graph::gnp(n, p, rng);
}

Dhc2Config colors_cfg(std::uint32_t colors) {
  Dhc2Config cfg;
  cfg.num_colors_override = colors;
  return cfg;
}

TEST(Dhc2, TwoColorsSingleMergeLevel) {
  const Graph g = make_gnp(120, 0.4, 1);
  const auto r = run_dhc2(g, 7, colors_cfg(2));
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_incidence(g, r.cycle).ok());
  EXPECT_EQ(r.stat("merge_levels"), 1.0);
  EXPECT_EQ(r.stat("bridges_built"), 1.0);
}

TEST(Dhc2, FourColorsTwoLevels) {
  const Graph g = make_gnp(200, 0.35, 2);
  const auto r = run_dhc2(g, 9, colors_cfg(4));
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_incidence(g, r.cycle).ok());
  EXPECT_EQ(r.stat("merge_levels"), 2.0);
  // Merging K cycles into one takes exactly K−1 bridges.
  EXPECT_EQ(r.stat("bridges_built"), 3.0);
}

TEST(Dhc2, NonPowerOfTwoColorsLeaveOneOut) {
  // K = 5: one cycle sits out a level (paper: "at most one cycle will be
  // left out") and joins later; 4 bridges total.
  const Graph g = make_gnp(300, 0.3, 3);
  const auto r = run_dhc2(g, 11, colors_cfg(5));
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_incidence(g, r.cycle).ok());
  EXPECT_EQ(r.stat("merge_levels"), 3.0);
  EXPECT_EQ(r.stat("bridges_built"), 4.0);
}

TEST(Dhc2, DeltaOneIsPureDra) {
  // δ = 1 means a single partition: Phase 2 is skipped entirely.
  const Graph g = make_gnp(256, graph::edge_probability(256, 6.0, 1.0), 4);
  Dhc2Config cfg;
  cfg.delta = 1.0;
  const auto r = run_dhc2(g, 13, cfg);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_incidence(g, r.cycle).ok());
  EXPECT_EQ(r.stat("num_colors"), 1.0);
  EXPECT_EQ(r.stat("merge_levels"), 0.0);
}

TEST(Dhc2, DeltaHalfRegime) {
  // The paper's p = c·ln n / n^δ with δ = 1/2 (the DHC1 regime): K ≈ √n
  // partitions of size ≈ √n.
  const graph::NodeId n = 1024;
  const Graph g = make_gnp(n, graph::edge_probability(n, 2.5, 0.5), 5);
  Dhc2Config cfg;
  cfg.delta = 0.5;
  const auto r = run_dhc2(g, 17, cfg);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_incidence(g, r.cycle).ok());
  EXPECT_EQ(r.stat("num_colors"), 32.0);
  EXPECT_EQ(r.stat("bridges_built"), 31.0);
}

TEST(Dhc2, BothMergeStrategiesSucceed) {
  const Graph g = make_gnp(240, 0.35, 6);
  Dhc2Config min_cfg = colors_cfg(4);
  min_cfg.merge_strategy = MergeStrategy::kMinForward;
  Dhc2Config full_cfg = colors_cfg(4);
  full_cfg.merge_strategy = MergeStrategy::kFullQueue;

  const auto rm = run_dhc2(g, 19, min_cfg);
  const auto rf = run_dhc2(g, 19, full_cfg);
  ASSERT_TRUE(rm.success) << rm.failure_reason;
  ASSERT_TRUE(rf.success) << rf.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_incidence(g, rm.cycle).ok());
  EXPECT_TRUE(graph::verify_cycle_incidence(g, rf.cycle).ok());
  // The literal Alg. 3 (full queue) serializes every verify query on cycle
  // edges; the min-forward variant checks one candidate per passive node.
  EXPECT_LE(rm.metrics.phase_rounds("merge"), rf.metrics.phase_rounds("merge"));
}

TEST(Dhc2, DeterministicAcrossRuns) {
  const Graph g = make_gnp(200, 0.35, 8);
  const auto a = run_dhc2(g, 23, colors_cfg(4));
  const auto b = run_dhc2(g, 23, colors_cfg(4));
  ASSERT_TRUE(a.success) << a.failure_reason;
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.cycle.neighbors_of, b.cycle.neighbors_of);
}

TEST(Dhc2, Phase1FailureInjectionReportsCleanly) {
  const Graph g = make_gnp(200, 0.35, 9);
  Dhc2Config cfg = colors_cfg(4);
  cfg.dra.step_multiplier = 0.01;  // starve every partition's step budget
  const auto r = run_dhc2(g, 29, cfg);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.metrics.hit_round_limit);
  EXPECT_NE(r.failure_reason.find("Phase 1"), std::string::npos);
}

TEST(Dhc2, DisconnectedGraphFailsGracefully) {
  // Two dense blobs with no cross edges: partitions straddle both, so
  // Phase 1 partitions are disconnected and abort (or close non-spanning
  // cycles); the run must terminate with a failure, never hang.
  support::Rng rng(10);
  const Graph a = graph::gnp(60, 0.5, rng);
  const Graph b = graph::gnp(60, 0.5, rng);
  std::vector<graph::Edge> edges = a.edges();
  for (const auto& [u, v] : b.edges()) {
    edges.emplace_back(static_cast<graph::NodeId>(u + 60), static_cast<graph::NodeId>(v + 60));
  }
  const Graph g(120, edges);
  const auto r = run_dhc2(g, 31, colors_cfg(2));
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.metrics.hit_round_limit);
}

TEST(Dhc2, FarBelowThresholdFailsGracefully) {
  // p far below ln n / n: the graph is a scattering of tiny components.
  const Graph g = make_gnp(400, 0.002, 11);
  const auto r = run_dhc2(g, 37, colors_cfg(4));
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.metrics.hit_round_limit);
}

TEST(Dhc2, TinyGraphRejected) {
  const Graph g(2, {{0, 1}});
  const auto r = run_dhc2(g, 1);
  EXPECT_FALSE(r.success);
}

TEST(Dhc2, PhaseRoundsAndBarrierAccounting) {
  const Graph g = make_gnp(200, 0.35, 12);
  const auto r = run_dhc2(g, 41, colors_cfg(4));
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_GT(r.metrics.phase_rounds("dra"), 0u);
  EXPECT_GT(r.metrics.phase_rounds("merge"), 0u);
  EXPECT_GT(r.metrics.barrier_count, 0u);
  EXPECT_GT(r.metrics.barrier_cost_rounds, 0u);
  EXPECT_GT(r.metrics.accounted_rounds(), r.metrics.rounds);
  EXPECT_GT(r.stat("global_tree_depth"), 0.0);
}

TEST(Dhc2, MemoryStaysNearDegree) {
  // Fully-distributed claim: no node's memory approaches n (the Upcast root
  // will be the contrast in EXP-L1).
  const graph::NodeId n = 1024;
  const Graph g = make_gnp(n, graph::edge_probability(n, 2.5, 0.5), 13);
  Dhc2Config cfg;
  cfg.delta = 0.5;
  const auto r = run_dhc2(g, 43, cfg);
  ASSERT_TRUE(r.success) << r.failure_reason;
  const auto max_mem = static_cast<std::size_t>(r.metrics.max_node_peak_memory());
  EXPECT_LE(max_mem, 4 * g.max_degree() + 64);
}

// Seed/size sweep: every run must either produce a verified cycle or report
// a clean failure; at these densities failures should be rare.
class Dhc2Sweep : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {};

TEST_P(Dhc2Sweep, VerifiedCycleAcrossSeedsAndColors) {
  const auto [seed, colors] = GetParam();
  // Keep expected partition size near 64 so in-partition degree stays in
  // the rotation algorithm's working regime (see EXP-P1 in
  // tests/paper_claims_test.cc).
  const auto n = static_cast<graph::NodeId>(64 * colors);
  const Graph g = make_gnp(n, 0.35, seed * 1000 + colors);
  const auto r = run_dhc2(g, seed, colors_cfg(colors));
  ASSERT_TRUE(r.success) << "seed=" << seed << " colors=" << colors << ": " << r.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_incidence(g, r.cycle).ok());
  EXPECT_EQ(r.stat("bridges_built"), static_cast<double>(colors - 1));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Dhc2Sweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 4),
                       ::testing::Values<std::uint32_t>(2, 3, 4, 8)));

}  // namespace
}  // namespace dhc::core
