// Tests for SetupComponent: leader election, BFS-tree construction, and
// size/depth aggregation — globally and per color class, including the
// disconnected-group behaviour the failure-injection paths rely on.
#include "congest/setup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "graph/algorithms.h"
#include "graph/generators.h"

namespace dhc::congest {
namespace {

using graph::Graph;

// Minimal protocol that just drives a SetupComponent to completion.
class SetupProtocol : public Protocol {
 public:
  SetupProtocol(NodeId n, std::vector<std::uint32_t> groups)
      : setup(n, /*base_tag=*/100, std::move(groups)) {}
  explicit SetupProtocol(NodeId n) : setup(n, /*base_tag=*/100) {}

  void begin(Context&) override {}
  void step(Context& ctx) override { setup.step(ctx); }
  bool on_quiescence(Network& net) override {
    if (setup.done()) return false;
    setup.advance(net);
    return !setup.done();
  }

  SetupComponent setup;
};

void check_tree_invariants(const Graph& g, const SetupComponent& s,
                           const std::vector<std::uint32_t>& groups) {
  // Leaders are the minimum id of each connected same-group component.
  // Build the expected components by BFS over same-group edges.
  const NodeId n = g.n();
  std::vector<std::uint32_t> comp(n, graph::kUnreachable);
  std::uint32_t ncomp = 0;
  for (NodeId root = 0; root < n; ++root) {
    if (comp[root] != graph::kUnreachable) continue;
    comp[root] = ncomp;
    std::vector<NodeId> stack{root};
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const NodeId w : g.neighbors(v)) {
        if (groups[v] == groups[w] && comp[w] == graph::kUnreachable) {
          comp[w] = ncomp;
          stack.push_back(w);
        }
      }
    }
    ++ncomp;
  }
  std::vector<NodeId> expected_leader(ncomp, kNoNode);
  std::vector<std::uint32_t> expected_size(ncomp, 0);
  for (NodeId v = 0; v < n; ++v) {
    expected_leader[comp[v]] = std::min(expected_leader[comp[v]], v);
    expected_size[comp[v]] += 1;
  }

  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(s.leader(v), expected_leader[comp[v]]) << "node " << v;
    EXPECT_EQ(s.component_size(v), expected_size[comp[v]]) << "node " << v;
    if (s.is_leader(v)) {
      EXPECT_EQ(s.parent(v), kNoNode);
      EXPECT_EQ(s.level(v), 0u);
    } else {
      const NodeId p = s.parent(v);
      ASSERT_NE(p, kNoNode) << "non-leader node " << v << " has no parent";
      EXPECT_TRUE(g.has_edge(v, p));
      EXPECT_EQ(groups[v], groups[p]);
      EXPECT_EQ(s.level(v), s.level(p) + 1);
      // Parent lists v among its children.
      const auto& kids = s.children(p);
      EXPECT_NE(std::find(kids.begin(), kids.end(), v), kids.end());
    }
    EXPECT_LE(s.level(v), s.tree_depth(v));
  }
}

TEST(Setup, GlobalTreeOnPath) {
  const Graph g = graph::path_graph(6);
  Network net(g, {});
  SetupProtocol p(g.n());
  net.run(p);
  ASSERT_TRUE(p.setup.done());
  const std::vector<std::uint32_t> groups(6, 0);
  check_tree_invariants(g, p.setup, groups);
  EXPECT_TRUE(p.setup.is_leader(0));
  EXPECT_EQ(p.setup.tree_depth(3), 5u);  // path rooted at 0
  EXPECT_EQ(p.setup.component_size(5), 6u);
}

TEST(Setup, GlobalTreeOnStarRootedAtCenterNeighborhood) {
  const Graph g = graph::star_graph(8);
  Network net(g, {});
  SetupProtocol p(g.n());
  net.run(p);
  const std::vector<std::uint32_t> groups(8, 0);
  check_tree_invariants(g, p.setup, groups);
  EXPECT_TRUE(p.setup.is_leader(0));
  EXPECT_EQ(p.setup.tree_depth(0), 1u);
  EXPECT_EQ(p.setup.children(0).size(), 7u);
}

TEST(Setup, BfsTreeLevelsMatchBfsDistances) {
  support::Rng rng(5);
  const Graph g = graph::gnp(300, 0.03, rng);
  ASSERT_TRUE(graph::is_connected(g));
  Network net(g, {});
  SetupProtocol p(g.n());
  net.run(p);
  // Leader is node 0 (global min id); levels must equal BFS distances.
  ASSERT_TRUE(p.setup.is_leader(0));
  const auto dist = graph::bfs_distances(g, 0);
  for (NodeId v = 0; v < g.n(); ++v) EXPECT_EQ(p.setup.level(v), dist[v]);
  const std::vector<std::uint32_t> groups(g.n(), 0);
  check_tree_invariants(g, p.setup, groups);
}

TEST(Setup, PerGroupTreesOnRandomGraph) {
  support::Rng rng(7);
  const NodeId n = 400;
  const Graph g = graph::gnp(n, 0.08, rng);
  // 4 random groups.
  std::vector<std::uint32_t> groups(n);
  for (auto& c : groups) c = static_cast<std::uint32_t>(rng.below(4));
  Network net(g, {});
  SetupProtocol p(n, groups);
  const auto metrics = net.run(p);
  ASSERT_TRUE(p.setup.done());
  check_tree_invariants(g, p.setup, groups);
  EXPECT_GT(metrics.messages, 0u);
  // 5 phases => 5 quiescence barriers at most (plus final).
  EXPECT_LE(metrics.barrier_count, 6u);
}

TEST(Setup, SingletonGroupsElectThemselves) {
  const Graph g = graph::path_graph(3);
  // Every node its own group: no same-group neighbors at all.
  std::vector<std::uint32_t> groups{0, 1, 2};
  Network net(g, {});
  SetupProtocol p(3, groups);
  net.run(p);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_TRUE(p.setup.is_leader(v));
    EXPECT_EQ(p.setup.component_size(v), 1u);
    EXPECT_EQ(p.setup.tree_depth(v), 0u);
    EXPECT_TRUE(p.setup.children(v).empty());
  }
}

TEST(Setup, DisconnectedGroupGetsPerComponentLeaders) {
  // 0-1   2-3 all in one group, but the graph is 0-1, 2-3 disconnected...
  // make it connected overall but group-disconnected: path 0-1-2-3 with
  // groups {A, B, B, A}: group A = {0, 3} is not connected via A-edges.
  const Graph g = graph::path_graph(4);
  std::vector<std::uint32_t> groups{0, 1, 1, 0};
  Network net(g, {});
  SetupProtocol p(4, groups);
  net.run(p);
  EXPECT_TRUE(p.setup.is_leader(0));
  EXPECT_TRUE(p.setup.is_leader(3));  // separate A-component
  EXPECT_EQ(p.setup.component_size(0), 1u);
  EXPECT_EQ(p.setup.component_size(3), 1u);
  EXPECT_TRUE(p.setup.is_leader(1));
  EXPECT_EQ(p.setup.component_size(1), 2u);
  EXPECT_EQ(p.setup.leader(2), 1u);
  check_tree_invariants(g, p.setup, groups);
}

TEST(Setup, RespectsCongestCapacity) {
  // Setup must never violate the 1-message-per-edge-per-round budget; a
  // dense graph with many groups stresses simultaneous floods.
  support::Rng rng(11);
  const NodeId n = 150;
  const Graph g = graph::gnp(n, 0.2, rng);
  std::vector<std::uint32_t> groups(n);
  for (auto& c : groups) c = static_cast<std::uint32_t>(rng.below(8));
  NetworkConfig cfg;  // capacity 1
  Network net(g, cfg);
  SetupProtocol p(n, groups);
  EXPECT_NO_THROW(net.run(p));
  check_tree_invariants(g, p.setup, groups);
}

TEST(Setup, ForwardOnTreeReachesEveryone) {
  // After setup, flood a message from an arbitrary origin over tree edges;
  // every node must receive it exactly once, within 2·depth rounds.
  support::Rng rng(13);
  const Graph g = graph::gnp(200, 0.05, rng);
  ASSERT_TRUE(graph::is_connected(g));

  class FloodProtocol : public SetupProtocol {
   public:
    explicit FloodProtocol(NodeId n) : SetupProtocol(n), got(n, 0), arrival(n, 0) {}
    void step(Context& ctx) override {
      if (!flood_started) {
        SetupProtocol::step(ctx);
        return;
      }
      if (ctx.self() == origin && ctx.inbox().empty()) {
        got[origin] = 1;
        setup.forward_on_tree(ctx, Message::make(900), kNoNode);
        flood_start_round = ctx.round();
      }
      for (const auto& m : ctx.inbox()) {
        if (m.tag == 900) {
          got[ctx.self()] += 1;
          arrival[ctx.self()] = ctx.round();  // per node: shard-safe
          setup.forward_on_tree(ctx, m, m.from);
        }
      }
    }
    bool on_quiescence(Network& net) override {
      if (!setup.done()) {
        setup.advance(net);
        if (!setup.done()) return true;
        flood_started = true;
        net.wake(origin);
        return true;
      }
      return false;
    }
    NodeId origin = 137;
    bool flood_started = false;
    std::vector<int> got;
    std::vector<std::uint64_t> arrival;
    std::uint64_t flood_start_round = 0;
  };

  Network net(g, {});
  FloodProtocol p(g.n());
  net.run(p);
  for (NodeId v = 0; v < g.n(); ++v) EXPECT_EQ(p.got[v], 1) << "node " << v;
  const std::uint64_t last_arrival = *std::max_element(p.arrival.begin(), p.arrival.end());
  EXPECT_LE(last_arrival - p.flood_start_round, 2u * p.setup.tree_depth(0));
}

TEST(Setup, DeterministicAcrossRuns) {
  support::Rng rng(17);
  const Graph g = graph::gnp(120, 0.06, rng);
  std::vector<std::vector<NodeId>> parents;
  for (int run = 0; run < 2; ++run) {
    NetworkConfig cfg;
    cfg.seed = 4;
    Network net(g, cfg);
    SetupProtocol p(g.n());
    net.run(p);
    std::vector<NodeId> par(g.n());
    for (NodeId v = 0; v < g.n(); ++v) par[v] = p.setup.parent(v);
    parents.push_back(std::move(par));
  }
  EXPECT_EQ(parents[0], parents[1]);
}

}  // namespace
}  // namespace dhc::congest
