// Unit tests for the CSR Graph core: construction from edge lists and from
// lower rows, adjacency queries, canonicalization, and the CSR representation
// invariants the CONGEST hot path depends on (sorted deduplicated rows,
// degree-consistent offsets, iteration order matching a reference
// adjacency built independently with ordered sets).
#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "graph/generators.h"
#include "support/rng.h"

namespace dhc::graph {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g(0, {});
  EXPECT_EQ(g.n(), 0u);
  EXPECT_EQ(g.m(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, SingleNodeNoEdges) {
  const Graph g(1, {});
  EXPECT_EQ(g.n(), 1u);
  EXPECT_EQ(g.m(), 0u);
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(Graph, TriangleBasics) {
  const Graph g(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(g.n(), 3u);
  EXPECT_EQ(g.m(), 3u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(Graph, DuplicateAndReversedEdgesMerged) {
  const Graph g(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.m(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, SelfLoopRejected) {
  EXPECT_THROW(Graph(3, {{1, 1}}), std::invalid_argument);
}

TEST(Graph, OutOfRangeEdgeRejected) {
  EXPECT_THROW(Graph(3, {{0, 3}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{7, 1}}), std::invalid_argument);
}

TEST(Graph, NeighborsAreSorted) {
  const Graph g(6, {{3, 5}, {3, 1}, {3, 4}, {3, 0}});
  const auto nb = g.neighbors(3);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 4u);
}

TEST(Graph, HasEdgeNegativeCases) {
  const Graph g(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 3));
  EXPECT_THROW(g.has_edge(0, 4), std::invalid_argument);
}

TEST(Graph, EdgesRoundTripCanonical) {
  const std::vector<Edge> in{{2, 0}, {1, 3}, {0, 1}};
  const Graph g(4, in);
  const auto out = g.edges();
  EXPECT_EQ(out, (std::vector<Edge>{{0, 1}, {0, 2}, {1, 3}}));
}

TEST(Graph, MaxDegreeStar) {
  const Graph g(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_EQ(g.max_degree(), 4u);
}

// --- CSR representation invariants -----------------------------------------

// Reference adjacency built with ordered sets — deliberately independent of
// the CSR scatter/sort machinery inside Graph's constructor.
std::vector<std::vector<NodeId>> reference_adjacency(NodeId n, const std::vector<Edge>& edges) {
  std::vector<std::set<NodeId>> sets(n);
  for (const auto& [u, v] : edges) {
    sets[u].insert(v);
    sets[v].insert(u);
  }
  std::vector<std::vector<NodeId>> out(n);
  for (NodeId v = 0; v < n; ++v) out[v].assign(sets[v].begin(), sets[v].end());
  return out;
}

void expect_csr_invariants(const Graph& g, const std::vector<Edge>& edges) {
  const auto offsets = g.row_offsets();
  const auto adjacency = g.adjacency();
  ASSERT_EQ(offsets.size(), static_cast<std::size_t>(g.n()) + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), adjacency.size());
  EXPECT_EQ(adjacency.size(), 2 * g.m());

  const auto reference = reference_adjacency(g.n(), edges);
  std::size_t degree_sum = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    // Sorted, deduplicated, and degree-consistent with the offset table.
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    EXPECT_EQ(std::adjacent_find(nb.begin(), nb.end()), nb.end());
    EXPECT_EQ(nb.size(), g.degree(v));
    EXPECT_EQ(nb.size(), offsets[v + 1] - offsets[v]);
    degree_sum += nb.size();
    // Iteration order is pinned to the reference order — the guarantee the
    // representation change must not move (protocol RNG draws and message
    // order depend on it).
    ASSERT_EQ(nb.size(), reference[v].size()) << "degree mismatch at node " << v;
    EXPECT_TRUE(std::equal(nb.begin(), nb.end(), reference[v].begin()))
        << "neighbor order diverged at node " << v;
    // neighbor_rank agrees with the row layout for every present neighbor
    // and reports absences.
    for (std::size_t i = 0; i < nb.size(); ++i) EXPECT_EQ(g.neighbor_rank(v, nb[i]), i);
    EXPECT_EQ(g.neighbor_rank(v, v), Graph::kNoRank);
  }
  EXPECT_EQ(degree_sum, 2 * g.m());
}

TEST(GraphCsr, InvariantsOnHandBuiltGraphs) {
  const std::vector<Edge> edges{{4, 2}, {2, 4}, {0, 4}, {3, 1}, {1, 3}, {0, 1}, {2, 0}};
  expect_csr_invariants(Graph(5, edges), edges);
}

TEST(GraphCsr, InvariantsOnRandomGraphs) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    support::Rng rng(seed);
    const NodeId n = 64 + static_cast<NodeId>(rng.below(64));
    std::vector<Edge> edges;
    const std::size_t want = 4 * n;
    for (std::size_t i = 0; i < want; ++i) {
      const auto u = static_cast<NodeId>(rng.below(n));
      const auto v = static_cast<NodeId>(rng.below(n));
      if (u != v) edges.emplace_back(u, v);  // duplicates + both orientations on purpose
    }
    expect_csr_invariants(Graph(n, edges), edges);
  }
}

bool same_csr(const Graph& a, const Graph& b) {
  return a.n() == b.n() && std::ranges::equal(a.row_offsets(), b.row_offsets()) &&
         std::ranges::equal(a.adjacency(), b.adjacency());
}

// The Batagelj–Brandes walk re-run outside the library: the pairs G(n, p)
// must contain, in the order the same-seeded Rng draws them.
std::vector<Edge> gnp_walk(NodeId n, double p, support::Rng& rng) {
  std::vector<Edge> edges;
  const double log1mp = std::log1p(-p);
  std::int64_t v = 1;
  std::int64_t w = -1;
  while (v < n) {
    w += 1 + static_cast<std::int64_t>(rng.geometric_skip(log1mp));
    while (w >= v && v < n) w -= v++;
    if (v < n) edges.emplace_back(static_cast<NodeId>(v), static_cast<NodeId>(w));
  }
  return edges;
}

// G(n, M)'s pair indices decoded one at a time (closed form, no sort).
std::vector<Edge> gnm_pairs(NodeId n, std::uint64_t m, support::Rng& rng) {
  std::vector<Edge> edges;
  for (const std::uint64_t idx : rng.sample_distinct(std::uint64_t{n} * (n - 1) / 2, m)) {
    auto v = static_cast<std::uint64_t>((1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(idx))) / 2.0);
    while (v * (v - 1) / 2 > idx) --v;
    while ((v + 1) * v / 2 <= idx) ++v;
    edges.emplace_back(static_cast<NodeId>(v), static_cast<NodeId>(idx - v * (v - 1) / 2));
  }
  return edges;
}

TEST(GraphCsr, InvariantsOnGeneratorOutputs) {
  support::Rng rng(99);
  const Graph g = gnp(200, 0.1, rng);
  support::Rng replay(99);
  expect_csr_invariants(g, gnp_walk(200, 0.1, replay));
  support::Rng rng2(7);
  const Graph r = random_regular(120, 6, rng2);
  expect_csr_invariants(r, r.edges());
  support::Rng rng3(5);
  const Graph h = gnm(150, 900, rng3);
  support::Rng replay3(5);
  expect_csr_invariants(h, gnm_pairs(150, 900, replay3));
}

TEST(GraphCsr, GeneratorsMatchEdgeListBuild) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const NodeId n : {0u, 1u, 2u, 3u, 57u, 300u}) {
      for (const double p : {0.02, 0.3, 0.9}) {
        support::Rng rng(seed);
        support::Rng replay(seed);
        EXPECT_TRUE(same_csr(gnp(n, p, rng), Graph(n, gnp_walk(n, p, replay))))
            << "gnp n=" << n << " p=" << p << " seed=" << seed;
      }
      const std::uint64_t pairs = std::uint64_t{n} * (n > 0 ? n - 1 : 0) / 2;
      for (const std::uint64_t m : {std::uint64_t{0}, pairs / 7, pairs}) {
        support::Rng rng(seed);
        support::Rng replay(seed);
        EXPECT_TRUE(same_csr(gnm(n, m, rng), Graph(n, gnm_pairs(n, m, replay))))
            << "gnm n=" << n << " m=" << m << " seed=" << seed;
      }
    }
  }
}

// Lower rows (offsets plus entries) from a set of pairs (v, w), w < v.
struct LowerRows {
  std::vector<std::uint64_t> offsets;
  std::vector<NodeId> lower;
};
LowerRows lower_rows(NodeId n, const std::set<Edge>& pairs) {
  LowerRows rows{std::vector<std::uint64_t>(static_cast<std::size_t>(n) + 1, 0), {}};
  for (const auto& [v, w] : pairs) {
    rows.lower.push_back(w);
    ++rows.offsets[v + 1];
  }
  for (NodeId v = 0; v < n; ++v) rows.offsets[v + 1] += rows.offsets[v];
  return rows;
}

TEST(GraphLowerRows, MatchesEdgeListBuild) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    support::Rng rng(seed);
    for (const NodeId n : {0u, 1u, 2u, 3u, static_cast<NodeId>(8 + rng.below(90))}) {
      std::set<Edge> pairs;  // (v, w) with w < v: ordered by row, then within the row
      std::vector<Edge> edges;
      const auto add = [&](NodeId a, NodeId b) {
        if (a == b) return;
        pairs.emplace(std::max(a, b), std::min(a, b));
        edges.emplace_back(a, b);  // duplicates and both orientations on purpose
        edges.emplace_back(b, a);
      };
      if (n >= 2) {
        add(1, 0);          // the first row that can hold an entry
        add(n - 1, 0);      // the last row, both ends of it
        add(n - 1, n - 2);
      }
      // A sparse middle, so plenty of rows stay empty.
      for (NodeId k = 0; k < n / 2; ++k) {
        add(static_cast<NodeId>(rng.below(n)), static_cast<NodeId>(rng.below(n)));
      }
      const LowerRows rows = lower_rows(n, pairs);
      const Graph g = Graph::from_lower_rows(n, rows.offsets, rows.lower);
      EXPECT_TRUE(same_csr(g, Graph(n, edges))) << "n=" << n << " seed=" << seed;
      expect_csr_invariants(g, edges);
    }
  }
}

TEST(GraphLowerRows, RejectsMalformedRows) {
  const auto build = [](NodeId n, std::vector<std::uint64_t> offsets, std::vector<NodeId> lower) {
    return Graph::from_lower_rows(n, offsets, lower);
  };
  EXPECT_EQ(build(3, {0, 0, 1, 3}, {0, 0, 1}).m(), 3u);  // the well-formed baseline
  EXPECT_THROW(build(3, {0, 0, 1, 3}, {0, 1, 2}), std::invalid_argument);  // w == v in row 2
  EXPECT_THROW(build(3, {0, 1, 1, 1}, {0}), std::invalid_argument);        // w == v in row 0
  EXPECT_THROW(build(3, {0, 0, 1, 2}, {1, 0}), std::invalid_argument);     // w > v in row 1
  EXPECT_THROW(build(4, {0, 0, 0, 0, 2}, {2, 1}), std::invalid_argument);  // unsorted row 3
  EXPECT_THROW(build(4, {0, 0, 0, 0, 2}, {1, 1}), std::invalid_argument);  // duplicate in row 3
  EXPECT_THROW(build(3, {0, 0, 1}, {0}), std::invalid_argument);           // n offsets, not n+1
  EXPECT_THROW(build(3, {0, 0, 1, 2}, {0}), std::invalid_argument);        // runs past the entries
  EXPECT_THROW(build(4, {0, 0, 1, 0, 1}, {0}), std::invalid_argument);     // row 2 ends before it starts
}

TEST(GraphCsr, NeighborRankMatchesHasEdge) {
  const Graph g(6, {{0, 1}, {0, 3}, {0, 5}, {2, 4}});
  EXPECT_EQ(g.neighbor_rank(0, 1), 0u);
  EXPECT_EQ(g.neighbor_rank(0, 3), 1u);
  EXPECT_EQ(g.neighbor_rank(0, 5), 2u);
  EXPECT_EQ(g.neighbor_rank(0, 2), Graph::kNoRank);
  EXPECT_EQ(g.neighbor_rank(1, 0), 0u);
  EXPECT_EQ(g.neighbor_rank(4, 2), 0u);
}

}  // namespace
}  // namespace dhc::graph
