// End-to-end tests for DHC1 (paper Algorithm 2 / Theorem 1): partitioned
// rotation plus the hypernode Phase 2 with port tracking.
#include "core/dhc1.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "congest/trace_sink.h"
#include "graph/generators.h"

namespace dhc::core {
namespace {

using graph::Graph;

Graph dhc1_gnp(graph::NodeId n, double c, std::uint64_t seed) {
  support::Rng rng(seed);
  return graph::gnp(n, graph::edge_probability(n, c, 0.5), rng);
}

TEST(Dhc1, EndToEndOnPaperRegime) {
  // p = c·ln n / √n with n = 1024: K = 32 hypernodes over 32-node partitions.
  const Graph g = dhc1_gnp(1024, 2.5, 1);
  const auto r = run_dhc1(g, 7);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_incidence(g, r.cycle).ok());
  EXPECT_EQ(r.stat("num_colors"), 32.0);
  EXPECT_EQ(r.stat("live_hypernodes"), 32.0);
}

TEST(Dhc1, SmallColorCountOverride) {
  // K = 8 hypernodes: each port has ≈ 2·(K−1)·p ≈ 8 usable edges, the edge
  // of the hypernode rotation's working regime (restarts cover the rest).
  support::Rng rng(2);
  const Graph g = graph::gnp(320, 0.6, rng);
  Dhc1Config cfg;
  cfg.num_colors_override = 8;
  const auto r = run_dhc1(g, 11, cfg);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_incidence(g, r.cycle).ok());
  EXPECT_EQ(r.stat("live_hypernodes"), 8.0);
  // K-1 extensions plus the closing draw at minimum; rejects and rotations
  // add more steps.
  EXPECT_GE(r.stat("hyper_steps"), 8.0);
}

TEST(Dhc1, PortRejectsAreCountedAndBounded) {
  // The port-orientation clarification (DESIGN.md §2.1): roughly half of
  // rotation attempts land on the wrong port.  The counter must exist and
  // stay within a small multiple of the accepted steps.
  const Graph g = dhc1_gnp(1024, 2.5, 3);
  const auto r = run_dhc1(g, 13);
  ASSERT_TRUE(r.success) << r.failure_reason;
  const double steps = r.stat("hyper_steps");
  const double rejects = r.stat("wrong_port_rejects");
  EXPECT_GE(steps, 1.0);
  EXPECT_LE(rejects, steps);  // every reject consumed a step
}

TEST(Dhc1, DeterministicAcrossRuns) {
  const Graph g = dhc1_gnp(512, 2.5, 4);
  const auto a = run_dhc1(g, 17);
  const auto b = run_dhc1(g, 17);
  ASSERT_TRUE(a.success) << a.failure_reason;
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.cycle.neighbors_of, b.cycle.neighbors_of);
}

TEST(Dhc1, TinyGraphRejected) {
  const Graph g = graph::complete_graph(8);
  const auto r = run_dhc1(g, 1);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.failure_reason.find("12 nodes"), std::string::npos);
}

TEST(Dhc1, Phase1FailureInjection) {
  const Graph g = dhc1_gnp(512, 2.5, 5);
  Dhc1Config cfg;
  cfg.dra.step_multiplier = 0.01;
  cfg.dra.max_attempts = 1;
  const auto r = run_dhc1(g, 19, cfg);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.metrics.hit_round_limit);
  EXPECT_NE(r.failure_reason.find("Phase 1"), std::string::npos);
}

TEST(Dhc1, Phase2BudgetInjection) {
  const Graph g = dhc1_gnp(512, 2.5, 6);
  Dhc1Config cfg;
  cfg.hyper_step_multiplier = 0.001;
  const auto r = run_dhc1(g, 23, cfg);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.metrics.hit_round_limit);
  EXPECT_NE(r.failure_reason.find("Phase 2"), std::string::npos);
}

TEST(Dhc1, Phase2StarvationFailsHonestly) {
  // K = 3 hypernodes at p = 0.3: every 80-node partition is dense enough for
  // DRA, but a port sees only ≈ 2·(K−1)·p ≈ 1.2 usable port edges, so every
  // hypernode rotation attempt starves.  Phase 2 must restart through all of
  // its attempts and then report its own failure, not hang.
  support::Rng rng(1);
  const Graph g = graph::gnp(240, 0.3, rng);
  Dhc1Config cfg;
  cfg.num_colors_override = 3;
  const auto r = run_dhc1(g, 23, cfg);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.metrics.hit_round_limit);
  EXPECT_NE(r.failure_reason.find("Phase 2"), std::string::npos);
  EXPECT_EQ(r.stat("hyper_restarts"), 7.0);  // every attempt but the first
}

TEST(Dhc1, SharesDhc2PhaseOne) {
  // DHC1's Phase 1 is DHC2's: same graph, seed and K give the same coloring,
  // trees and DRA run, so every Phase-1 counter agrees.
  for (const graph::NodeId n : {144u, 400u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph g = dhc1_gnp(n, 2.5, seed);
      Dhc1Config c1;
      c1.num_colors_override = 8;
      Dhc2Config c2;
      c2.num_colors_override = 8;
      const auto r1 = run_dhc1(g, seed, c1);
      const auto r2 = run_dhc2(g, seed, c2);
      EXPECT_GT(r1.metrics.phase_rounds("dra"), 0u);
      for (const char* phase : {"global_setup", "partition_setup", "dra"}) {
        EXPECT_EQ(r1.metrics.phase_rounds(phase), r2.metrics.phase_rounds(phase))
            << "n=" << n << " seed=" << seed << " phase=" << phase;
      }
      EXPECT_EQ(r1.stat("dra_restarts"), r2.stat("dra_restarts")) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(r1.stat("global_tree_depth"), r2.stat("global_tree_depth"))
          << "n=" << n << " seed=" << seed;
    }
  }
}

/// Counts the rounds of the "hyper" phase that ran on the shard pool.
class HyperShardedRounds : public congest::TraceSink {
 public:
  void on_phase(const std::string& label, std::uint64_t) override { in_hyper_ = label == "hyper"; }
  void on_round(const congest::RoundTrace& t) override {
    if (in_hyper_ && t.sharded) ++count;
  }
  void on_barrier(std::uint64_t, std::uint64_t) override {}
  std::uint64_t count = 0;

 private:
  bool in_hyper_ = false;
};

TEST(Dhc1, PhaseTwoStepsOnTheShardPool) {
  // Phase 2 keeps per-node state only, so its rounds shard like every other
  // phase's, and the result is the one shards = 1 gives.  Grain 1 via the
  // environment, as CongestGolden.ShardInvarianceAcrossTheGrid sets it.
  const char* old_grain = std::getenv("DHC_SHARD_GRAIN");
  setenv("DHC_SHARD_GRAIN", "1", /*overwrite=*/1);

  for (const graph::NodeId n : {256u, 1024u}) {
    const Graph g = dhc1_gnp(n, 2.5, 9);
    Dhc1Config serial;
    serial.shards = 1;
    const auto base = run_dhc1(g, 41, serial);
    ASSERT_TRUE(base.success) << "n=" << n << ": " << base.failure_reason;

    HyperShardedRounds sink;
    Dhc1Config sharded;
    sharded.shards = 4;
    sharded.trace = &sink;
    const auto r = run_dhc1(g, 41, sharded);
    EXPECT_GT(sink.count, 0u) << "n=" << n;
    EXPECT_TRUE(r.metrics == base.metrics) << "n=" << n;
    EXPECT_EQ(r.stats, base.stats) << "n=" << n;
    EXPECT_EQ(r.cycle.neighbors_of, base.cycle.neighbors_of) << "n=" << n;
  }

  if (old_grain == nullptr) {
    unsetenv("DHC_SHARD_GRAIN");
  } else {
    setenv("DHC_SHARD_GRAIN", old_grain, 1);
  }
}

TEST(Dhc1, SparseGraphFailsGracefully) {
  support::Rng rng(7);
  const Graph g = graph::gnp(400, 0.004, rng);
  const auto r = run_dhc1(g, 29);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.metrics.hit_round_limit);
}

TEST(Dhc1, PhaseBreakdownRecorded) {
  const Graph g = dhc1_gnp(512, 2.5, 8);
  const auto r = run_dhc1(g, 31);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_GT(r.metrics.phase_rounds("dra"), 0u);
  EXPECT_GT(r.metrics.phase_rounds("hyper"), 0u);
  EXPECT_GT(r.stat("global_tree_depth"), 0.0);
}

class Dhc1Sweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Dhc1Sweep, VerifiedCycleAcrossSeeds) {
  const std::uint64_t seed = GetParam();
  const Graph g = dhc1_gnp(768, 2.5, seed * 100);
  const auto r = run_dhc1(g, seed);
  ASSERT_TRUE(r.success) << "seed=" << seed << ": " << r.failure_reason;
  EXPECT_TRUE(graph::verify_cycle_incidence(g, r.cycle).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Dhc1Sweep, ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace dhc::core
