// Cross-algorithm integration: every solver on the same instance must
// produce a cycle that passes the offline verifier; their costs must sit in
// the relationships the paper claims (upcast root hotspot, fully-distributed memory profile, CONGEST
// compliance everywhere).
#include <gtest/gtest.h>

#include "core/dhc1.h"
#include "core/dhc2.h"
#include "core/dra.h"
#include "core/upcast.h"
#include "graph/generators.h"

namespace dhc::core {
namespace {

using graph::Graph;

class CrossAlgorithm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossAlgorithm, AllSolversAgreeOnSolvabilityAndVerify) {
  const std::uint64_t seed = GetParam();
  // The common regime all four algorithms accept: p = c·ln n / √n.
  const graph::NodeId n = 768;
  support::Rng rng(seed * 9001);
  const Graph g = graph::gnp(n, graph::edge_probability(n, 2.5, 0.5), rng);

  Dhc2Config d2;
  d2.delta = 0.5;
  UpcastConfig up;

  struct Run {
    const char* name;
    Result result;
  };
  Run runs[] = {
      {"dhc1", run_dhc1(g, seed * 3 + 1)},
      {"dhc2", run_dhc2(g, seed * 5 + 2, d2)},
      {"upcast", run_upcast(g, seed * 7 + 3, up)},
  };

  for (const auto& [name, r] : runs) {
    ASSERT_TRUE(r.success) << name << " seed=" << seed << ": " << r.failure_reason;
    // Offline check.
    EXPECT_TRUE(graph::verify_cycle_incidence(g, r.cycle).ok()) << name;
    // Output convention: every node names exactly two incident edges.
    for (graph::NodeId v = 0; v < n; ++v) {
      const auto [a, b] = r.cycle.neighbors_of[v];
      EXPECT_NE(a, b);
      EXPECT_TRUE(g.has_edge(v, a));
      EXPECT_TRUE(g.has_edge(v, b));
    }
  }

  // The paper's load profile: the upcast root stores Ω(n); the
  // fully-distributed algorithms never approach n on any node.
  const auto upcast_max_mem = runs[2].result.metrics.max_node_peak_memory();
  EXPECT_GE(upcast_max_mem, static_cast<std::int64_t>(n));
  for (int i = 0; i < 2; ++i) {
    EXPECT_LT(runs[i].result.metrics.max_node_peak_memory(),
              static_cast<std::int64_t>(4 * g.max_degree() + 64))
        << runs[i].name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossAlgorithm, ::testing::Range<std::uint64_t>(1, 5));

TEST(CrossAlgorithm, DifferentAlgorithmsFindDifferentCyclesOfTheSameGraph) {
  const graph::NodeId n = 512;
  support::Rng rng(77);
  const Graph g = graph::gnp(n, graph::edge_probability(n, 2.5, 0.5), rng);
  Dhc2Config d2;
  d2.delta = 0.5;
  const auto a = run_dhc2(g, 1, d2);
  const auto b = run_upcast(g, 2);
  ASSERT_TRUE(a.success) << a.failure_reason;
  ASSERT_TRUE(b.success) << b.failure_reason;
  // Exponentially many Hamiltonian cycles exist ([14], [7]); randomized
  // solvers find distinct ones.
  EXPECT_NE(a.cycle.neighbors_of, b.cycle.neighbors_of);
}

}  // namespace
}  // namespace dhc::core
