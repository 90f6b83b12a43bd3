#include "core/turau.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "congest/network.h"
#include "congest/setup.h"
#include "support/atomic_stats.h"
#include "support/require.h"
#include "support/rng.h"

namespace dhc::core {

using congest::Context;
using congest::kNoNode;
using congest::Message;
using congest::Network;
using graph::NodeId;

namespace {

/// Every node samples ceil(kSampleC·ln n) incident edges for the initial
/// matching (clamped to the node's degree).
constexpr double kSampleC = 4.0;

/// Merge-level budget: kLevelMultiplier·ceil(log₂ n) + 32 levels before the
/// run aborts as stalled (a level can be unproductive when the shared coins
/// land badly or endpoint adjacencies are missing).
constexpr double kLevelMultiplier = 8.0;

/// Rotations attempted while closing the final Hamiltonian path before
/// giving up (each succeeds with probability ≈ p).
constexpr std::uint32_t kMaxCloseAttempts = 64;

// Message tags (setup uses 1..5).
constexpr std::uint16_t kMatchPropose = 40;  // {}: matching proposal to a lower id
constexpr std::uint16_t kMatchAccept = 41;   // {}: proposal accepted, edge joins a path
constexpr std::uint16_t kTailInfo = 42;      // {tail id}: forwarded along succ to the head
constexpr std::uint16_t kHeadInfo = 43;      // {head id}: forwarded along pred to the tail
constexpr std::uint16_t kAnnounce = 44;      // {}: passive tail advertises to all neighbors
constexpr std::uint16_t kJoinPropose = 45;   // {proposer's tail}: active head -> passive tail
constexpr std::uint16_t kJoinAccept = 46;    // {acceptor's head}: tail -> winning head
constexpr std::uint16_t kRotate = 47;        // {}: closing head asks w to become its succ
constexpr std::uint16_t kRotAck = 48;        // {}: w accepted, head starts the suffix flip
constexpr std::uint16_t kFlip = 49;          // {w, tail}: orientation flip along old pred chain
constexpr std::uint16_t kClose = 50;         // {}: head -> tail, final cycle edge

class TurauProtocol : public congest::Protocol {
 public:
  TurauProtocol(NodeId n, std::uint64_t seed, const TurauConfig& cfg)
      : n_(n), seed_(seed), cfg_(cfg), setup_(n, /*base_tag=*/1) {
    pred_.assign(n, kNoNode);
    succ_.assign(n, kNoNode);
    tail_know_.assign(n, kNoNode);
    head_know_.assign(n, kNoNode);
    seen_token_.assign(n, 0);
    max_levels_ = static_cast<std::uint64_t>(
                      kLevelMultiplier *
                      std::ceil(std::log2(std::max<double>(n, 4.0)))) +
                  32;
  }

  void begin(Context&) override {}

  void step(Context& ctx) override {
    const NodeId v = ctx.self();
    if (stage_ == Stage::kSetup) {
      setup_.step(ctx);
      return;
    }
    if (seen_token_[v] != token_) {
      seen_token_[v] = token_;
      stage_init(ctx);
    }
    handle_inbox(ctx);
  }

  bool on_quiescence(Network& net) override {
    if (!failure_.empty()) return false;
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
          if (setup_.component_size(0) != n_) {
            failure_ = "graph is disconnected (leader component covers " +
                       std::to_string(setup_.component_size(0)) + " of " + std::to_string(n_) +
                       " nodes)";
            return false;
          }
          stage_ = Stage::kMatch;
          net.mark_phase("match");
          wake_all(net);
        }
        return true;
      case Stage::kMatch:
        stage_ = Stage::kEndpointInfo;
        net.mark_phase("endpoint-info");
        wake_all(net);
        return true;
      case Stage::kEndpointInfo:
        initial_paths_ = count_tails();
        stage_ = Stage::kMerge;
        net.mark_phase("merge");
        wake_all(net);
        return true;
      case Stage::kMerge: {
        const std::uint32_t paths = count_tails();
        paths_per_level_.push_back(static_cast<double>(paths));
        ++levels_run_;
        if (paths == 1) {
          stage_ = Stage::kClose;
          net.mark_phase("close");
          return wake_closer(net);
        }
        if (levels_run_ >= max_levels_) {
          failure_ = "merging stalled at " + std::to_string(paths) + " paths after " +
                     std::to_string(levels_run_) + " levels";
          return false;
        }
        wake_all(net);
        return true;
      }
      case Stage::kClose: {
        if (count_tails() == 0) {
          stage_ = Stage::kDone;  // cycle closed
          return false;
        }
        return wake_closer(net);
      }
      case Stage::kDone:
        return false;
    }
    return false;
  }

  graph::CycleIncidence incidence() const {
    graph::CycleIncidence inc;
    inc.neighbors_of.resize(n_);
    for (NodeId v = 0; v < n_; ++v) inc.neighbors_of[v] = {pred_[v], succ_[v]};
    return inc;
  }

  enum class Stage : std::uint8_t {
    kInit,
    kSetup,
    kMatch,
    kEndpointInfo,
    kMerge,
    kClose,
    kDone,
  };

  // --- first step of a node in the current stage/level ----------------------

  void stage_init(Context& ctx) {
    switch (stage_) {
      case Stage::kMatch:
        match_init(ctx);
        return;
      case Stage::kEndpointInfo:
        endpoint_info_init(ctx);
        return;
      case Stage::kMerge:
        merge_level_init(ctx);
        return;
      case Stage::kClose:
        if (succ_[ctx.self()] == kNoNode) act_as_closer(ctx);
        return;
      case Stage::kInit:
      case Stage::kSetup:
      case Stage::kDone:
        return;
    }
  }

  /// Sample the sparse random subgraph and propose to one lower-id candidate
  /// (DESIGN.md §2.4: ids strictly decrease along accepted chains, so the
  /// initial structure is acyclic without any coordination).
  void match_init(Context& ctx) {
    const NodeId v = ctx.self();
    const auto nb = ctx.neighbors();
    if (nb.empty()) return;
    const auto want = static_cast<std::uint64_t>(
        std::ceil(kSampleC * std::log(std::max<double>(n_, 2.0))));
    const auto k = std::min<std::uint64_t>(want, nb.size());
    const auto chosen = ctx.rng().sample_distinct(nb.size(), k);
    ctx.charge_memory(static_cast<std::int64_t>(k));
    sampled_edges_ += k;
    std::vector<NodeId> lower;
    for (const auto i : chosen) {
      const NodeId w = nb[static_cast<std::size_t>(i)];
      if (w < v) lower.push_back(w);
    }
    ctx.charge_compute(k);
    if (lower.empty()) return;
    const NodeId target = lower[ctx.rng().below(lower.size())];
    ctx.send(target, Message::make(kMatchPropose));
  }

  /// Endpoints introduce themselves to the far end of their path, pipelined
  /// along the path edges; afterwards every tail knows its head and vice
  /// versa — the pair both ends derive the level coins from.
  void endpoint_info_init(Context& ctx) {
    const NodeId v = ctx.self();
    ctx.charge_memory(4);  // pred/succ + the two endpoint words
    if (pred_[v] == kNoNode) {
      tail_know_[v] = v;
      if (succ_[v] != kNoNode) ctx.send(succ_[v], Message::make(kTailInfo, {v}));
    }
    if (succ_[v] == kNoNode) {
      head_know_[v] = v;
      if (pred_[v] != kNoNode) ctx.send(pred_[v], Message::make(kHeadInfo, {v}));
    }
  }

  /// Level coin shared by both endpoints of a path: derived from the run
  /// seed, the level, and the (tail, head) pair — no communication needed.
  bool path_active(NodeId tail, NodeId head, std::uint64_t level) const {
    std::uint64_t state = seed_ + 0x9e3779b97f4a7c15ULL * (level + 1);
    std::uint64_t h = support::splitmix64(state);
    state ^= static_cast<std::uint64_t>(tail) + 1;
    h ^= support::splitmix64(state);
    state ^= (static_cast<std::uint64_t>(head) + 1) << 32;
    h ^= support::splitmix64(state);
    return (h & 1) != 0;
  }

  void merge_level_init(Context& ctx) {
    const NodeId v = ctx.self();
    const bool is_tail = pred_[v] == kNoNode;
    if (!is_tail) return;  // heads act on announcements, interiors relay
    if (path_active(tail_know_[v], head_know_[v], levels_run_)) return;
    // Passive tail: advertise to every neighbor; active heads pick targets
    // among the advertisements they hear.
    ctx.charge_compute(ctx.multicast(Message::make(kAnnounce)));
  }

  void handle_inbox(Context& ctx) {
    const NodeId v = ctx.self();
    // Collected per round: all matching/merge proposals arrive in lockstep.
    std::vector<NodeId> match_proposers;
    std::vector<NodeId> announcers;
    std::vector<std::pair<NodeId, NodeId>> join_proposals;  // (head, its tail)

    for (const Message& msg : ctx.inbox()) {
      switch (msg.tag) {
        case kMatchPropose:
          match_proposers.push_back(msg.from);
          break;
        case kMatchAccept:
          succ_[v] = msg.from;
          break;
        case kTailInfo:
          if (succ_[v] == kNoNode) {
            tail_know_[v] = static_cast<NodeId>(msg.data[0]);
          } else {
            ctx.send(succ_[v], msg);
          }
          break;
        case kHeadInfo:
          if (pred_[v] == kNoNode) {
            head_know_[v] = static_cast<NodeId>(msg.data[0]);
          } else {
            ctx.send(pred_[v], msg);
          }
          break;
        case kAnnounce:
          announcers.push_back(msg.from);
          break;
        case kJoinPropose:
          join_proposals.emplace_back(msg.from, static_cast<NodeId>(msg.data[0]));
          break;
        case kJoinAccept:
          on_join_accept(ctx, msg);
          break;
        case kRotate: {
          // w: splice the closing head in as path successor; the displaced
          // successor learns its new role from the flip chain.
          DHC_CHECK(succ_[v] != kNoNode, "rotation target must not be the head");
          succ_[v] = msg.from;
          ctx.send(msg.from, Message::make(kRotAck));
          break;
        }
        case kRotAck: {
          // Old head: rewire to w and launch the orientation flip of the old
          // suffix toward the new head (DESIGN.md §2.4).
          const NodeId old_pred = pred_[v];
          DHC_CHECK(old_pred != kNoNode, "closing head must have a path predecessor");
          pred_[v] = msg.from;
          succ_[v] = old_pred;
          ctx.send(old_pred,
                   Message::make(kFlip, {msg.from, static_cast<std::int64_t>(tail_know_[v])}));
          break;
        }
        case kFlip: {
          const auto w = static_cast<NodeId>(msg.data[0]);
          if (pred_[v] == w) {
            // Displaced node: becomes the new head of the rotated path.
            pred_[v] = msg.from;
            succ_[v] = kNoNode;
            tail_know_[v] = static_cast<NodeId>(msg.data[1]);
            head_know_[v] = v;
          } else {
            const NodeId old_pred = pred_[v];
            pred_[v] = msg.from;
            succ_[v] = old_pred;
            ctx.send(old_pred, msg);
          }
          ctx.charge_compute(1);
          break;
        }
        case kClose:
          pred_[v] = msg.from;
          break;
        default:
          break;  // setup tags are consumed before we leave Stage::kSetup
      }
    }

    if (!match_proposers.empty() && stage_ == Stage::kMatch && pred_[v] == kNoNode) {
      const NodeId winner = match_proposers[ctx.rng().below(match_proposers.size())];
      pred_[v] = winner;
      ctx.send(winner, Message::make(kMatchAccept));
    }
    if (!announcers.empty()) on_announcements(ctx, announcers);
    if (!join_proposals.empty()) on_join_proposals(ctx, join_proposals);
  }

  /// Active head: propose to one uniformly random announcing (passive) tail.
  void on_announcements(Context& ctx, const std::vector<NodeId>& announcers) {
    const NodeId v = ctx.self();
    if (stage_ != Stage::kMerge || succ_[v] != kNoNode) return;
    if (!path_active(tail_know_[v], head_know_[v], levels_run_)) return;
    const NodeId target = announcers[ctx.rng().below(announcers.size())];
    ctx.send(target,
             Message::make(kJoinPropose, {static_cast<std::int64_t>(tail_know_[v])}));
    ctx.charge_compute(1);
  }

  /// Passive tail: accept one proposal; the merged path's far endpoints
  /// learn their new partner through relays pipelined along the path.
  void on_join_proposals(Context& ctx, const std::vector<std::pair<NodeId, NodeId>>& proposals) {
    const NodeId v = ctx.self();
    if (stage_ != Stage::kMerge || pred_[v] != kNoNode) return;
    const auto& [head, head_tail] = proposals[ctx.rng().below(proposals.size())];
    pred_[v] = head;
    ctx.send(head, Message::make(kJoinAccept, {static_cast<std::int64_t>(head_know_[v])}));
    // The merged path's head learns its new tail through the same relay that
    // established the endpoint invariant after matching.
    if (succ_[v] != kNoNode) {
      ctx.send(succ_[v], Message::make(kTailInfo, {static_cast<std::int64_t>(head_tail)}));
    } else {
      tail_know_[v] = head_tail;  // singleton: this node stays the head
    }
    ++merges_;
  }

  /// Active head whose proposal was accepted: adopt the edge and tell this
  /// path's tail who the merged path's head is.
  void on_join_accept(Context& ctx, const Message& msg) {
    const NodeId v = ctx.self();
    succ_[v] = msg.from;
    const auto new_head = msg.data[0];
    if (pred_[v] == kNoNode) {
      head_know_[v] = static_cast<NodeId>(new_head);  // singleton: stays the tail
    } else {
      ctx.send(pred_[v], Message::make(kHeadInfo, {new_head}));
    }
  }

  /// Closing head: close the cycle if the tail is a neighbor, otherwise
  /// rotate at a random neighbor to redraw the head.
  void act_as_closer(Context& ctx) {
    const NodeId v = ctx.self();
    const NodeId tail = tail_know_[v];
    const auto nb = ctx.neighbors();
    ctx.charge_compute(1);
    if (std::binary_search(nb.begin(), nb.end(), tail)) {
      succ_[v] = tail;
      ctx.send(tail, Message::make(kClose));
      return;
    }
    if (nb.size() == 1 && nb[0] == pred_[v]) {
      failure_ = "closing head has no rotation edge";
      return;
    }
    NodeId w;
    do {
      w = nb[ctx.rng().below(nb.size())];
    } while (w == pred_[v]);  // rotating at the predecessor is a no-op
    ctx.send(w, Message::make(kRotate));
  }

  // --- helpers over global state (used from on_quiescence barriers) --------

  void wake_all(Network& net) {
    ++token_;
    net.wake_all();
  }

  /// Wakes the single head for one close-or-rotate activation, charging it
  /// against the rotation budget (every activation that does not close
  /// performs exactly one rotation).
  bool wake_closer(Network& net) {
    if (close_attempts_ >= kMaxCloseAttempts) {
      failure_ =
          "closing budget exhausted after " + std::to_string(close_attempts_) + " rotations";
      return false;
    }
    ++close_attempts_;
    ++token_;
    for (NodeId v = 0; v < n_; ++v) {
      if (succ_[v] == kNoNode) {
        net.wake(v);
        return true;
      }
    }
    failure_ = "no head found while closing";  // unreachable by construction
    return false;
  }

  std::uint32_t count_tails() const {
    std::uint32_t tails = 0;
    for (NodeId v = 0; v < n_; ++v) {
      if (pred_[v] == kNoNode) ++tails;
    }
    return tails;
  }

  NodeId n_;
  std::uint64_t seed_;
  TurauConfig cfg_;
  congest::SetupComponent setup_;
  Stage stage_ = Stage::kInit;
  std::string failure_;

  std::uint64_t token_ = 0;
  std::vector<std::uint64_t> seen_token_;
  std::vector<NodeId> pred_;
  std::vector<NodeId> succ_;
  std::vector<NodeId> tail_know_;  // endpoint knowledge: the path's tail id
  std::vector<NodeId> head_know_;  // endpoint knowledge: the path's head id

  std::uint64_t max_levels_ = 0;
  std::uint64_t levels_run_ = 0;  // advanced at quiescence barriers only
  // Bumped from sharded step paths (relaxed atomics; order-free sums).
  support::ShardCounter<std::uint64_t> merges_ = 0;
  support::ShardCounter<std::uint64_t> sampled_edges_ = 0;
  std::uint32_t initial_paths_ = 0;   // written at quiescence barriers only
  std::uint32_t close_attempts_ = 0;  // written at quiescence barriers only
  std::vector<double> paths_per_level_;
};

}  // namespace

Result run_turau(const graph::Graph& g, std::uint64_t seed, const TurauConfig& cfg) {
  Result result;
  if (g.n() < 3) {
    result.failure_reason = "graph has fewer than 3 nodes";
    return result;
  }
  congest::Network net(g, congest::network_config(cfg, seed));
  TurauProtocol protocol(g.n(), seed, cfg);
  result.metrics = net.run(protocol);

  result.stats["initial_paths"] = static_cast<double>(protocol.initial_paths_);
  result.stats["merge_levels"] = static_cast<double>(protocol.levels_run_);
  result.stats["merges"] = static_cast<double>(protocol.merges_);
  result.stats["close_attempts"] = static_cast<double>(protocol.close_attempts_);
  result.stats["sampled_edges"] = static_cast<double>(protocol.sampled_edges_);
  result.stats["tree_depth"] = static_cast<double>(protocol.setup_.tree_depth(0));
  result.series["paths_per_level"] = protocol.paths_per_level_;

  conclude(result, g, protocol.failure_, [&] { return protocol.incidence(); });
  return result;
}

}  // namespace dhc::core
