// Tests for BFS / diameter / connectivity, including the random-graph
// diameter behaviour (Chung–Lu) that the paper's round accounting uses.
#include "graph/algorithms.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"

namespace dhc::graph {
namespace {

TEST(Bfs, PathGraphDistances) {
  const Graph g = path_graph(5);
  const auto d = bfs_distances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(Bfs, DisconnectedMarksUnreachable) {
  const Graph g(4, {{0, 1}, {2, 3}});
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  const Graph g(3, {{0, 1}});
  EXPECT_THROW(bfs_distances(g, 5), std::invalid_argument);
}

TEST(Bfs, CycleDistances) {
  const Graph g = cycle_graph(8);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[4], 4u);
  EXPECT_EQ(d[7], 1u);
  EXPECT_EQ(d[3], 3u);
}

TEST(Eccentricity, CenterVsLeafOfPath) {
  const Graph g = path_graph(7);
  EXPECT_EQ(eccentricity(g, 0), 6u);
  EXPECT_EQ(eccentricity(g, 3), 3u);
}

TEST(ExactDiameter, KnownGraphs) {
  EXPECT_EQ(exact_diameter(path_graph(10)), 9u);
  EXPECT_EQ(exact_diameter(cycle_graph(10)), 5u);
  EXPECT_EQ(exact_diameter(cycle_graph(11)), 5u);
  EXPECT_EQ(exact_diameter(complete_graph(10)), 1u);
  EXPECT_EQ(exact_diameter(star_graph(10)), 2u);
  EXPECT_EQ(exact_diameter(petersen_graph()), 2u);
}

TEST(ExactDiameter, TrivialGraphs) {
  EXPECT_EQ(exact_diameter(Graph(0, {})), 0u);
  EXPECT_EQ(exact_diameter(Graph(1, {})), 0u);
}

TEST(ExactDiameter, DisconnectedThrows) {
  const Graph g(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(exact_diameter(g), std::invalid_argument);
}

TEST(RandomGraphDiameter, LogarithmicForDenseRandomGraphs) {
  // [5] (Chung–Lu): diameter of G(n, c ln n / n) is Θ(ln n / ln ln n);
  // for n = 1024, ln n / ln ln n ≈ 3.6 — the diameter must be tiny.
  support::Rng rng(6);
  const NodeId n = 1024;
  const Graph g = gnp(n, edge_probability(n, 4.0, 1.0), rng);
  ASSERT_TRUE(is_connected(g));
  const auto diam = exact_diameter(g);
  EXPECT_GE(diam, 2u);
  EXPECT_LE(diam, 8u);
}

TEST(Connectivity, BasicCases) {
  EXPECT_TRUE(is_connected(Graph(0, {})));
  EXPECT_TRUE(is_connected(Graph(1, {})));
  EXPECT_FALSE(is_connected(Graph(2, {})));
  EXPECT_TRUE(is_connected(path_graph(5)));
  EXPECT_FALSE(is_connected(Graph(4, {{0, 1}, {2, 3}})));
}

TEST(Components, LabelsAndCount) {
  const Graph g(6, {{0, 1}, {1, 2}, {3, 4}});
  const auto comp = connected_components(g);
  EXPECT_EQ(comp.count, 3u);
  EXPECT_EQ(comp.label[0], comp.label[1]);
  EXPECT_EQ(comp.label[1], comp.label[2]);
  EXPECT_EQ(comp.label[3], comp.label[4]);
  EXPECT_NE(comp.label[0], comp.label[3]);
  EXPECT_NE(comp.label[3], comp.label[5]);
}

TEST(Components, SingleComponent) {
  const auto comp = connected_components(cycle_graph(9));
  EXPECT_EQ(comp.count, 1u);
}

}  // namespace
}  // namespace dhc::graph
