#include "core/upcast.h"

#include <cmath>
#include <optional>

#include "congest/network.h"
#include "congest/setup.h"
#include "core/sequential.h"
#include "support/atomic_stats.h"
#include "support/flat_queue.h"
#include "support/require.h"

namespace dhc::core {

using congest::Context;
using congest::kNoNode;
using congest::Message;
using congest::Network;
using graph::NodeId;

namespace {

/// Root's local solver budget.
constexpr RotationConfig kRootSolver{};

constexpr std::uint16_t kRecord = 32;  // {u, w}: sampled edge (u, w), origin u
constexpr std::uint16_t kDown = 33;    // {w, pred, succ}: w's cycle edges

class UpcastProtocol : public congest::Protocol {
 public:
  UpcastProtocol(NodeId n, const UpcastConfig& cfg)
      : n_(n), cfg_(cfg), setup_(n, /*base_tag=*/1) {
    up_queue_.resize(n);
    down_queue_.resize(n);
    route_.resize(n);
    child_used_stamp_.assign(n, 0);
    pump_stamp_.assign(n, 0);
    incidence_.neighbors_of.assign(n, {kNoNode, kNoNode});
  }

  void begin(Context&) override {}

  void step(Context& ctx) override {
    const NodeId x = ctx.self();
    switch (stage_) {
      case Stage::kSetup:
        setup_.step(ctx);
        return;
      case Stage::kUpcast: {
        if (stage_seen_[x] != 1) {
          stage_seen_[x] = 1;
          sample_edges(ctx);
        }
        for (const Message& msg : ctx.inbox()) {
          if (msg.tag != kRecord) continue;
          const auto u = static_cast<NodeId>(msg.data[0]);
          const auto w = static_cast<NodeId>(msg.data[1]);
          // Remember which child leads to origin u (downcast routing).  The
          // table is a flat per-node array: every relayed record probes it
          // once, and the old per-node hash maps paid a hashed insert per
          // probe (tens of millions per collect-all run).
          if (route_entry(x, u) == kNoNode) {
            route_entry(x, u) = msg.from;
            ctx.charge_memory(2);
          }
          if (setup_.parent(x) == kNoNode) {
            root_edges_[x].emplace_back(std::min(u, w), std::max(u, w));
            ctx.charge_memory(2);
          } else {
            up_queue_[x].emplace_back(u, w);
            ctx.charge_memory(2);
          }
        }
        pump_up(ctx);
        return;
      }
      case Stage::kSolve: {
        if (setup_.parent(x) == kNoNode) root_solve(ctx);
        return;
      }
      case Stage::kDowncast: {
        for (const Message& msg : ctx.inbox()) {
          if (msg.tag != kDown) continue;
          const auto w = static_cast<NodeId>(msg.data[0]);
          if (w == x) {
            incidence_.neighbors_of[x] = {static_cast<NodeId>(msg.data[1]),
                                          static_cast<NodeId>(msg.data[2])};
          } else {
            down_queue_[x].emplace_back(
                std::array<std::int64_t, 3>{msg.data[0], msg.data[1], msg.data[2]});
            ctx.charge_memory(3);
          }
        }
        pump_down(ctx);
        return;
      }
      case Stage::kInit:
      case Stage::kDone:
        return;
    }
  }

  bool on_quiescence(Network& net) override {
    switch (stage_) {
      case Stage::kInit:
        stage_ = Stage::kSetup;
        net.mark_phase("setup");
        setup_.advance(net);
        return true;
      case Stage::kSetup:
        setup_.advance(net);
        if (setup_.done()) {
          net.set_barrier_cost(2ULL * setup_.tree_depth(0) + 2);
          stage_ = Stage::kUpcast;
          net.mark_phase("upcast");
          net.wake_all();
        }
        return true;
      case Stage::kUpcast: {
        stage_ = Stage::kSolve;
        net.mark_phase("solve");
        // Wake the root (the global leader, node with min id = leader(0)).
        net.wake(setup_.leader(0));
        return true;
      }
      case Stage::kSolve:
        if (!failure_.empty()) {
          stage_ = Stage::kDone;
          return false;
        }
        stage_ = Stage::kDowncast;
        net.mark_phase("downcast");
        net.wake(setup_.leader(0));
        return true;
      case Stage::kDowncast:
        stage_ = Stage::kDone;
        return false;
      case Stage::kDone:
        return false;
    }
    return false;
  }

  /// Paper step 3: sample c′·log n incident edges, independently at random.
  void sample_edges(Context& ctx) {
    const NodeId x = ctx.self();
    const auto nb = ctx.neighbors();
    std::vector<std::uint64_t> chosen;
    if (cfg_.collect_all) {
      chosen.resize(nb.size());
      for (std::size_t i = 0; i < nb.size(); ++i) chosen[i] = i;
    } else {
      const auto want = static_cast<std::uint64_t>(
          std::ceil(cfg_.sample_c * std::log(std::max<double>(n_, 2.0))));
      const auto k = std::min<std::uint64_t>(want, nb.size());
      if (k == 0) return;
      chosen = ctx.rng().sample_distinct(nb.size(), k);
    }
    sampled_ += chosen.size();
    if (setup_.parent(x) == kNoNode) {
      for (const auto i : chosen) {
        const NodeId w = nb[static_cast<std::size_t>(i)];
        root_edges_[x].emplace_back(std::min(x, w), std::max(x, w));
      }
      ctx.charge_memory(static_cast<std::int64_t>(2 * chosen.size()));
    } else {
      for (const auto i : chosen) {
        up_queue_[x].emplace_back(x, nb[static_cast<std::size_t>(i)]);
      }
      ctx.charge_memory(static_cast<std::int64_t>(2 * chosen.size()));
      // The caller's step() pumps the first record this same round.
    }
  }

  /// One record per round toward the parent (CONGEST pipelining).
  void pump_up(Context& ctx) {
    const NodeId x = ctx.self();
    auto& q = up_queue_[x];
    if (q.empty() || setup_.parent(x) == kNoNode) return;
    const auto [u, w] = q.front();
    q.pop_front();
    ctx.charge_memory(-2);
    setup_.send_to_parent(ctx, Message::make(kRecord, {u, w}));
    if (!q.empty()) ctx.wake_in(1);
  }

  void root_solve(Context& ctx) {
    const NodeId x = ctx.self();
    graph::Graph sampled(n_, root_edges());
    RotationResult solved = rotation_hamiltonian_cycle(sampled, ctx.rng(), kRootSolver);
    ctx.charge_compute(solved.stats.steps);
    root_solve_steps_ = solved.stats.steps;
    if (!solved.success) {
      failure_ = "root failed to find a Hamiltonian cycle in the sampled graph: " +
                 solved.failure_reason;
      return;
    }
    // Queue each node's cycle edges for targeted downcast.
    const auto inc = graph::incidence_from_order(solved.cycle);
    for (NodeId w = 0; w < n_; ++w) {
      const auto [a, b] = inc.neighbors_of[w];
      if (w == x) {
        incidence_.neighbors_of[x] = {a, b};
      } else {
        down_queue_[x].push_back({w, a, b});
        ctx.charge_memory(3);
      }
    }
  }

  /// One record per round per child edge, routed by origin.
  void pump_down(Context& ctx) {
    const NodeId x = ctx.self();
    auto& q = down_queue_[x];
    if (q.empty()) return;
    // Per-child budget this round: scan the queue, send at most one record
    // to each child, keep the rest.  child_used_stamp_ marks children used
    // in this pass — each slot belongs to exactly one tree parent, so the
    // stamp sequence is per-parent (pump_stamp_[x]) and pumping nodes in
    // parallel shards never touch each other's slots.  Unsent records are
    // compacted in order in place — no scratch buffer, so nothing can
    // persist on a reused pool thread between trials.
    const std::uint64_t stamp = ++pump_stamp_[x];
    q.retain([&](const std::array<std::int64_t, 3>& rec) {
      const auto w = static_cast<NodeId>(rec[0]);
      const NodeId child = route_entry(x, w);
      if (child == kNoNode) {
        // No route: the target never upcast anything (disconnected input);
        // drop the record — verification will fail cleanly.
        ctx.charge_memory(-3);
        return false;
      }
      if (child_used_stamp_[child] == stamp) return true;
      child_used_stamp_[child] = stamp;
      ctx.charge_memory(-3);
      ctx.send(child, Message::make(kDown, {rec[0], rec[1], rec[2]}));
      return false;
    });
    if (!q.empty()) ctx.wake_in(1);
  }

  enum class Stage : std::uint8_t { kInit, kSetup, kUpcast, kSolve, kDowncast, kDone };

  /// route_[x·n + u] = the child of x on the path to origin u (kNoNode when
  /// unknown).  Flat n×n array, allocated lazily per node via route rows —
  /// see route_entry(); total footprint n²·4 bytes only if every node routes.
  NodeId& route_entry(NodeId x, NodeId u) {
    auto& row = route_[x];
    if (row.empty()) row.assign(n_, kNoNode);
    return row[u];
  }

  /// Every root's collected edges.  A disconnected input has one root per
  /// component; each appends only to its own row, so sharded roots never
  /// share a vector, and the sampled graph is canonicalized by Graph's
  /// constructor whatever the concatenation order.
  std::vector<graph::Edge> root_edges() const {
    std::vector<graph::Edge> all;
    for (const auto& row : root_edges_) all.insert(all.end(), row.begin(), row.end());
    return all;
  }

  NodeId n_;
  UpcastConfig cfg_;
  congest::SetupComponent setup_;
  Stage stage_ = Stage::kInit;
  std::string failure_;
  std::vector<std::uint8_t> stage_seen_ = std::vector<std::uint8_t>(n_, 0);
  std::vector<support::FlatQueue<std::pair<NodeId, NodeId>>> up_queue_;
  std::vector<support::FlatQueue<std::array<std::int64_t, 3>>> down_queue_;
  std::vector<std::vector<NodeId>> route_;  // per node: origin -> child rows
  std::vector<std::uint64_t> child_used_stamp_;  // per child slot; written by its parent only
  std::vector<std::uint64_t> pump_stamp_;        // per pumping parent
  std::vector<std::vector<graph::Edge>> root_edges_ =
      std::vector<std::vector<graph::Edge>>(n_);  // per root, written by that root only
  graph::CycleIncidence incidence_;
  support::ShardCounter<std::uint64_t> sampled_ = 0;  // bumped from sharded steps
  std::uint64_t root_solve_steps_ = 0;  // root-only writer
};

}  // namespace

Result run_upcast(const graph::Graph& g, std::uint64_t seed, const UpcastConfig& cfg) {
  Result result;
  if (g.n() < 3) {
    result.failure_reason = "graph has fewer than 3 nodes";
    return result;
  }
  congest::Network net(g, congest::network_config(cfg, seed));
  UpcastProtocol protocol(g.n(), cfg);
  result.metrics = net.run(protocol);

  result.stats["sampled_edges"] = static_cast<double>(protocol.sampled_);
  result.stats["root_edges"] = static_cast<double>(protocol.root_edges().size());
  result.stats["root_solve_steps"] = static_cast<double>(protocol.root_solve_steps_);
  result.stats["tree_depth"] = static_cast<double>(protocol.setup_.tree_depth(0));

  conclude(result, g, protocol.failure_, [&] { return protocol.incidence_; });
  return result;
}

}  // namespace dhc::core
