// Tests for the random and structured graph generators, including the
// distributional properties the paper's analysis relies on (edge-count
// concentration of G(n,p), exact edge count of G(n,M), regularity, Chung–Lu
// expected degrees).
#include "graph/generators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "graph/algorithms.h"

namespace dhc::graph {
namespace {

TEST(Gnp, EdgeCountConcentratesAroundExpectation) {
  support::Rng rng(1);
  const NodeId n = 500;
  const double p = 0.05;
  const double expected = p * n * (n - 1) / 2.0;
  const Graph g = gnp(n, p, rng);
  // stddev ≈ sqrt(expected·(1-p)) ≈ 77; allow 6 sigma.
  EXPECT_NEAR(static_cast<double>(g.m()), expected, 6.0 * std::sqrt(expected));
}

TEST(Gnp, ZeroProbabilityYieldsEmptyGraph) {
  support::Rng rng(2);
  const Graph g = gnp(100, 0.0, rng);
  EXPECT_EQ(g.m(), 0u);
}

TEST(Gnp, OneProbabilityYieldsCompleteGraph) {
  support::Rng rng(2);
  const Graph g = gnp(20, 1.0, rng);
  EXPECT_EQ(g.m(), 190u);
}

TEST(Gnp, Deterministic) {
  support::Rng a(77);
  support::Rng b(77);
  const Graph g1 = gnp(200, 0.03, a);
  const Graph g2 = gnp(200, 0.03, b);
  EXPECT_EQ(g1.edges(), g2.edges());
}

TEST(Gnp, DifferentSeedsDiffer) {
  support::Rng a(1);
  support::Rng b(2);
  EXPECT_NE(gnp(200, 0.03, a).edges(), gnp(200, 0.03, b).edges());
}

TEST(Gnp, RejectsBadProbability) {
  support::Rng rng(1);
  EXPECT_THROW(gnp(10, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(gnp(10, 1.1, rng), std::invalid_argument);
}

TEST(Gnp, AboveConnectivityThresholdIsConnected) {
  // p = 4 ln n / n is far above the ln n / n connectivity threshold.
  support::Rng rng(3);
  const NodeId n = 1000;
  const double p = 4.0 * std::log(n) / n;
  for (int trial = 0; trial < 5; ++trial) {
    EXPECT_TRUE(is_connected(gnp(n, p, rng)));
  }
}

TEST(Gnm, ExactEdgeCount) {
  support::Rng rng(5);
  for (const std::uint64_t m : {0ULL, 1ULL, 50ULL, 300ULL}) {
    const Graph g = gnm(50, m, rng);
    EXPECT_EQ(g.m(), m);
    EXPECT_EQ(g.n(), 50u);
  }
}

TEST(Gnm, FullGraph) {
  support::Rng rng(5);
  const Graph g = gnm(10, 45, rng);
  EXPECT_EQ(g.m(), 45u);
}

TEST(Gnm, TooManyEdgesRejected) {
  support::Rng rng(5);
  EXPECT_THROW(gnm(10, 46, rng), std::invalid_argument);
}

TEST(Gnm, Deterministic) {
  support::Rng a(11);
  support::Rng b(11);
  EXPECT_EQ(gnm(60, 100, a).edges(), gnm(60, 100, b).edges());
}

TEST(RandomRegular, DegreesAreExact) {
  support::Rng rng(7);
  for (const std::uint32_t d : {2u, 3u, 4u}) {
    const Graph g = random_regular(50, d, rng);
    for (NodeId v = 0; v < g.n(); ++v) EXPECT_EQ(g.degree(v), d);
  }
}

TEST(RandomRegular, OddProductRejected) {
  support::Rng rng(7);
  EXPECT_THROW(random_regular(5, 3, rng), std::invalid_argument);
}

TEST(RandomRegular, DegreeTooLargeRejected) {
  support::Rng rng(7);
  EXPECT_THROW(random_regular(4, 4, rng), std::invalid_argument);
}

TEST(RandomRegular, ZeroDegree) {
  support::Rng rng(7);
  const Graph g = random_regular(6, 0, rng);
  EXPECT_EQ(g.m(), 0u);
}

TEST(EdgeProbability, MatchesFormula) {
  // p = c ln n / n^δ.
  EXPECT_NEAR(edge_probability(1000, 2.0, 1.0), 2.0 * std::log(1000.0) / 1000.0, 1e-12);
  EXPECT_NEAR(edge_probability(1024, 3.0, 0.5), 3.0 * std::log(1024.0) / 32.0, 1e-12);
}

TEST(EdgeProbability, ClampsToOne) {
  EXPECT_DOUBLE_EQ(edge_probability(4, 100.0, 0.1), 1.0);
}

TEST(EdgeProbability, RejectsBadParameters) {
  EXPECT_THROW(edge_probability(1, 2.0, 0.5), std::invalid_argument);
  EXPECT_THROW(edge_probability(100, -1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(edge_probability(100, 2.0, 0.0), std::invalid_argument);
  EXPECT_THROW(edge_probability(100, 2.0, 1.5), std::invalid_argument);
}

TEST(StructuredGraphs, CycleGraph) {
  const Graph g = cycle_graph(5);
  EXPECT_EQ(g.m(), 5u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.has_edge(4, 0));
}

TEST(StructuredGraphs, CompleteGraph) {
  const Graph g = complete_graph(6);
  EXPECT_EQ(g.m(), 15u);
  EXPECT_EQ(g.max_degree(), 5u);
}

TEST(StructuredGraphs, StarAndPath) {
  EXPECT_EQ(star_graph(7).m(), 6u);
  EXPECT_EQ(star_graph(7).max_degree(), 6u);
  EXPECT_EQ(path_graph(7).m(), 6u);
  EXPECT_EQ(path_graph(7).max_degree(), 2u);
}

TEST(StructuredGraphs, PetersenIsCubicAndConnected) {
  const Graph g = petersen_graph();
  EXPECT_EQ(g.n(), 10u);
  EXPECT_EQ(g.m(), 15u);
  for (NodeId v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 3u);
  EXPECT_TRUE(is_connected(g));
}

TEST(StructuredGraphs, CompleteBipartite) {
  const Graph g = complete_bipartite_graph(3, 4);
  EXPECT_EQ(g.n(), 7u);
  EXPECT_EQ(g.m(), 12u);
  EXPECT_FALSE(g.has_edge(0, 1));  // same side
  EXPECT_TRUE(g.has_edge(0, 3));   // across
}

TEST(ChungLu, ExpectedDegreesTrackWeights) {
  // Uniform weights w: reduces to G(n, w/n)-ish; degree ≈ w.
  support::Rng rng(3);
  const graph::NodeId n = 2000;
  std::vector<double> weights(n, 20.0);
  const Graph g = chung_lu(weights, rng);
  const double avg_deg = 2.0 * static_cast<double>(g.m()) / n;
  EXPECT_NEAR(avg_deg, 20.0, 1.5);
}

TEST(ChungLu, HeavyNodesGetMoreEdges) {
  support::Rng rng(4);
  const graph::NodeId n = 1000;
  std::vector<double> weights(n, 5.0);
  weights[0] = 100.0;  // one hub
  const Graph g = chung_lu(weights, rng);
  EXPECT_GT(g.degree(0), 50u);
  const double avg_other = 2.0 * static_cast<double>(g.m()) / n;
  EXPECT_GT(static_cast<double>(g.degree(0)), 3.0 * avg_other);
}

TEST(ChungLu, ZeroWeightsAndTinyInputs) {
  support::Rng rng(5);
  const std::vector<double> zeros(10, 0.0);
  EXPECT_EQ(chung_lu(zeros, rng).m(), 0u);
  const std::vector<double> one{3.0};
  EXPECT_EQ(chung_lu(one, rng).n(), 1u);
  const std::vector<double> negative{1.0, -1.0};
  EXPECT_THROW(chung_lu(negative, rng), std::invalid_argument);
}

TEST(ChungLu, Deterministic) {
  const auto weights = power_law_weights(500, 2.5, 12.0);
  support::Rng a(6);
  support::Rng b(6);
  EXPECT_EQ(chung_lu(weights, a).edges(), chung_lu(weights, b).edges());
}

TEST(PowerLawWeights, MeanMatchesTarget) {
  const auto weights = power_law_weights(5000, 2.5, 10.0);
  double sum = 0.0;
  for (const double w : weights) sum += w;
  EXPECT_NEAR(sum / 5000.0, 10.0, 1e-9);
  // Heavy head, light tail.
  EXPECT_GT(weights.front(), weights.back() * 10.0);
}

TEST(PowerLawWeights, RejectsBadParameters) {
  EXPECT_THROW(power_law_weights(10, 2.0, 5.0), std::invalid_argument);
  EXPECT_THROW(power_law_weights(10, 3.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace dhc::graph
