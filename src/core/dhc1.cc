#include "core/dhc1.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "congest/setup.h"
#include "support/atomic_stats.h"
#include "support/require.h"

namespace dhc::core {

using congest::Context;
using congest::Message;
using congest::Network;

namespace {

/// Independent Phase-2 retries (hypernode rotation restarts with fresh
/// randomness when a port starves; see DraParams::max_attempts).
constexpr std::uint32_t kMaxHyperAttempts = 8;

// Phase-2 message tags (base 64).
constexpr std::uint16_t kPick = 64;          // {r}                    partition tree
constexpr std::uint16_t kPartner = 65;       // {}                     agent → pred
constexpr std::uint16_t kAnnounce = 66;      // {hyper}                port → neighbors
constexpr std::uint16_t kCountUp = 67;       // {count, min_group}     global tree up
constexpr std::uint16_t kCountDown = 68;     // {K_live, first_group}  global tree down
constexpr std::uint16_t kFire = 69;          // {pos, steps}           agent → exit port
constexpr std::uint16_t kFired = 70;         // {y_hyper, y_node}      exit port → agent
constexpr std::uint16_t kFireEmpty = 71;     // {}                     exit port → agent
constexpr std::uint16_t kHProgress = 72;     // {pos, steps, from_hyper}  port x → port y
constexpr std::uint16_t kHJoin = 73;         // {pos, steps, from_hyper, x_node}  y → agent
constexpr std::uint16_t kHRejectToPort = 74; // {steps}                agent_j → port y
constexpr std::uint16_t kHRejectBack = 75;   // {steps}                y → x → agent_h
constexpr std::uint16_t kHRotation = 76;     // {h, j, head_hyper, seq}  global tree
constexpr std::uint16_t kHSuccess = 77;      // {}                     global tree
constexpr std::uint16_t kHAbort = 78;        // {}                     global tree
constexpr std::uint16_t kAssign = 79;        // {remote}               agent → port
constexpr std::uint16_t kHRestart = 80;      // {}                     global tree

constexpr std::uint32_t kNoHyper = static_cast<std::uint32_t>(-1);

struct PortEdge {
  NodeId node = kNoNode;        // the remote port node
  std::uint32_t hyper = kNoHyper;  // the remote hypernode (color group)
};

struct HyperLink {
  std::uint32_t hyper = kNoHyper;
  NodeId my_port = kNoNode;
  NodeId remote = kNoNode;
  bool valid() const { return hyper != kNoHyper; }
};

class Dhc1Protocol : public congest::Protocol {
 public:
  Dhc1Protocol(NodeId n, std::uint32_t num_colors, const Dhc1Config& cfg)
      : n_(n),
        hyper_step_multiplier_(cfg.hyper_step_multiplier),
        phase1_(n, num_colors, cfg.dra) {
    is_agent_.assign(n, 0);
    is_partner_.assign(n, 0);
    partner_of_.assign(n, kNoNode);
    port_unused_.assign(n, {});
    last_progress_from_.assign(n, kNoNode);
    assigned_remote_.assign(n, kNoNode);
    hypindex_.assign(n, 0);
    pred_link_.assign(n, {});
    succ_link_.assign(n, {});
    pend_link_.assign(n, {});
    up_reports_.assign(n, 0);
    up_count_.assign(n, 0);
    up_min_.assign(n, kNoHyper);
  }

  void begin(Context& ctx) override { phase1_.begin(ctx); }

  // -- stage routing ---------------------------------------------------

  void step(Context& ctx) override {
    if (stage_ == Stage::kPhase1) {
      phase1_.step(ctx);
    } else if (stage_ != Stage::kDone) {
      phase2_step(ctx);
    }
  }

  bool on_quiescence(Network& net) override {
    switch (stage_) {
      case Stage::kPhase1:
        if (phase1_.on_quiescence(net)) return true;
        if (!phase1_.failure().empty()) {
          stage_ = Stage::kDone;
          return false;
        }
        net.mark_phase("hyper");
        stage_ = Stage::kPickStage;
        // Leaders draw the hypernode position.
        for (NodeId v = 0; v < n_; ++v) {
          if (phase1_.partition_setup()->is_leader(v)) net.wake(v);
        }
        return true;
      case Stage::kPickStage:
        stage_ = Stage::kAnnounceStage;
        net.wake_all();
        return true;
      case Stage::kAnnounceStage:
        stage_ = Stage::kCensus;
        net.wake_all();
        return true;
      case Stage::kCensus:
        stage_ = Stage::kHyper;
        // The first hypernode's agent bootstraps on the census broadcast it
        // already received; wake agents so the head can start.
        for (NodeId v = 0; v < n_; ++v) {
          if (is_agent_[v] != 0) net.wake(v);
        }
        return true;
      case Stage::kHyper:
        stage_ = Stage::kDone;
        return false;
      case Stage::kDone:
        return false;
    }
    return false;
  }

  // -- phase 2 ----------------------------------------------------------

  void phase2_step(Context& ctx) {
    const NodeId x = ctx.self();

    // Stage-entry actions (nodes are woken at each sub-phase start).
    if (stage_ == Stage::kPickStage && stage_seen_[x] != 1) {
      stage_seen_[x] = 1;
      if (phase1_.partition_setup()->is_leader(x)) {
        const auto size = phase1_.partition_setup()->component_size(x);
        const auto r = static_cast<std::uint32_t>(1 + ctx.rng().below(size));
        handle_pick(ctx, r);
      }
    } else if (stage_ == Stage::kAnnounceStage && stage_seen_[x] != 2) {
      stage_seen_[x] = 2;
      if (is_agent_[x] != 0 || is_partner_[x] != 0) {
        ctx.multicast(Message::make(kAnnounce, {phase1_.color(x)}));
      }
    } else if (stage_ == Stage::kCensus && stage_seen_[x] != 3) {
      stage_seen_[x] = 3;
      maybe_census_up(ctx);
    }

    for (const Message& msg : ctx.inbox()) handle_phase2_message(ctx, msg);

    // Deferred partner recruitment (see handle_pick).
    if (pending_partner_[x] != 0 && ctx.round() > pending_partner_round_[x]) {
      pending_partner_[x] = 0;
      ctx.send(partner_of_[x], Message::make(kPartner));
    }

    // Deferred port assignments after success.
    if (is_agent_[x] != 0 && agent_assigned_[x] == 1 &&
        ctx.round() > agent_assigned_round_[x]) {
      agent_assigned_[x] = 2;
      assign_ports(ctx);
      return;
    }

    // A hyper head woken by its settle timer acts now.
    if (stage_ == Stage::kHyper && is_agent_[x] != 0 && done_[x] == 0 && is_head_[x] != 0 &&
        ctx.inbox().empty() && hypindex_[x] != 0 && !succ_link_[x].valid()) {
      fire(ctx);
    }
    // The first head bootstraps when woken after the census.
    if (stage_ == Stage::kHyper && is_agent_[x] != 0 && done_[x] == 0 && hypindex_[x] == 0 &&
        ctx.inbox().empty() && phase1_.color(x) == first_group_[x]) {
      if (k_live_[x] < 3) {
        hyper_abort(ctx);
        return;
      }
      hypindex_[x] = 1;
      is_head_[x] = 1;
      fire(ctx);
    }
  }

  void handle_pick(Context& ctx, std::uint32_t r) {
    const NodeId x = ctx.self();
    // Relay the pick down the partition tree; the node at cycle position r
    // becomes the agent and recruits its cycle predecessor as partner (one
    // round later — the partner may also be a tree child receiving the pick
    // relay this round).
    if (phase1_.dra()->cycle_index(x) == r) {
      is_agent_[x] = 1;
      partner_of_[x] = phase1_.dra()->path_pred(x);
      pending_partner_[x] = 1;
      pending_partner_round_[x] = ctx.round();
      ctx.wake_in(1);
    }
    phase1_.partition_setup()->send_to_children(ctx, Message::make(kPick, {r}));
  }

  void maybe_census_up(Context& ctx) {
    const NodeId x = ctx.self();
    if (up_reports_[x] != phase1_.global_setup()->children(x).size()) return;
    const std::uint32_t count = up_count_[x] + (is_agent_[x] != 0 ? 1 : 0);
    const std::uint32_t mine = (is_agent_[x] != 0) ? phase1_.color(x) : kNoHyper;
    const std::uint32_t min_group = std::min(up_min_[x], mine);
    up_reports_[x] = static_cast<std::uint32_t>(-1);  // sent
    if (phase1_.global_setup()->parent(x) != kNoNode) {
      phase1_.global_setup()->send_to_parent(
          ctx, Message::make(kCountUp, {count, static_cast<std::int64_t>(min_group)}));
    } else {
      // Root: publish the census.
      k_live_[x] = count;
      first_group_[x] = min_group;
      phase1_.global_setup()->send_to_children(
          ctx, Message::make(kCountDown, {count, static_cast<std::int64_t>(min_group)}));
    }
  }

  void handle_phase2_message(Context& ctx, const Message& msg) {
    const NodeId x = ctx.self();
    switch (msg.tag) {
      case kPick:
        handle_pick(ctx, static_cast<std::uint32_t>(msg.data[0]));
        break;
      case kPartner: {
        is_partner_[x] = 1;
        partner_of_[x] = msg.from;  // the agent is the partner's cycle successor
        break;
      }
      case kAnnounce: {
        const auto hyper = static_cast<std::uint32_t>(msg.data[0]);
        if ((is_agent_[x] != 0 || is_partner_[x] != 0) && hyper != phase1_.color(x)) {
          port_unused_[x].push_back({msg.from, hyper});
          port_all_[x].push_back({msg.from, hyper});
          ctx.charge_memory(4);
        }
        break;
      }
      case kCountUp: {
        up_count_[x] += static_cast<std::uint32_t>(msg.data[0]);
        up_min_[x] = std::min(up_min_[x], static_cast<std::uint32_t>(msg.data[1]));
        up_reports_[x] += 1;
        maybe_census_up(ctx);
        break;
      }
      case kCountDown: {
        k_live_[x] = static_cast<std::uint32_t>(msg.data[0]);
        first_group_[x] = static_cast<std::uint32_t>(msg.data[1]);
        phase1_.global_setup()->send_to_children(ctx, msg);
        break;
      }
      case kFire: {
        // This node is the exit port: draw a random unused port edge.
        const auto pos = static_cast<std::uint32_t>(msg.data[0]);
        const auto steps = static_cast<std::uint64_t>(msg.data[1]);
        fire_from_port(ctx, pos, steps);
        break;
      }
      case kFired: {
        // Record the tentative successor link (mirrors DRA's optimistic succ).
        pend_link_[x] = {static_cast<std::uint32_t>(msg.data[0]),
                         /*my_port=*/last_fire_port_[x], static_cast<NodeId>(msg.data[1])};
        succ_link_[x] = pend_link_[x];
        break;
      }
      case kFireEmpty: {
        hyper_abort(ctx);
        break;
      }
      case kHProgress: {
        // Arriving at port y: consume the edge and hand over to the agent.
        const auto from_hyper = static_cast<std::uint32_t>(msg.data[2]);
        auto& list = port_unused_[x];
        for (std::size_t i = 0; i < list.size(); ++i) {
          if (list[i].node == msg.from) {
            list[i] = list.back();
            list.pop_back();
            ctx.charge_memory(-2);
            break;
          }
        }
        last_progress_from_[x] = msg.from;
        const Message join = Message::make(
            kHJoin, {msg.data[0], msg.data[1], from_hyper, msg.from});
        if (is_agent_[x] != 0) {
          handle_join(ctx, join);
        } else {
          ctx.send(partner_of_[x], join);
        }
        break;
      }
      case kHJoin:
        handle_join(ctx, msg);
        break;
      case kHRejectToPort: {
        // Route the rejection back along the discovered edge.
        if (last_progress_from_[x] != kNoNode) {
          ctx.send(last_progress_from_[x], Message::make(kHRejectBack, {msg.data[0]}));
        }
        break;
      }
      case kHRejectBack: {
        if (is_agent_[x] != 0) {
          // The head retries with a fresh draw.
          steps_[x] = static_cast<std::uint64_t>(msg.data[0]);
          succ_link_[x] = {};
          pend_link_[x] = {};
          fire(ctx);
        } else {
          ctx.send(partner_of_[x], msg);
        }
        break;
      }
      case kHRotation: {
        phase1_.global_setup()->forward_on_tree(ctx, msg, msg.from);
        if (is_agent_[x] != 0) apply_hyper_rotation(ctx, msg);
        break;
      }
      case kHSuccess: {
        phase1_.global_setup()->forward_on_tree(ctx, msg, msg.from);
        done_[x] = 1;
        if (is_agent_[x] != 0 && agent_assigned_[x] == 0) {
          // Assignments leave next round: this round's tree forwards may
          // share an edge with the partner.
          agent_assigned_[x] = 1;
          agent_assigned_round_[x] = ctx.round();
          ctx.wake_in(1);
        }
        break;
      }
      case kHAbort: {
        phase1_.global_setup()->forward_on_tree(ctx, msg, msg.from);
        done_[x] = 2;
        break;
      }
      case kHRestart: {
        phase1_.global_setup()->forward_on_tree(ctx, msg, msg.from);
        apply_hyper_restart(ctx);
        break;
      }
      case kAssign: {
        assigned_remote_[x] = static_cast<NodeId>(msg.data[0]);
        break;
      }
      default:
        break;
    }
  }

  /// Head agent: ask the current exit port to draw an edge.
  void fire(Context& ctx) {
    const NodeId x = ctx.self();
    if (steps_[x] >= hyper_budget(x)) {
      hyper_abort(ctx);
      return;
    }
    steps_[x] += 1;
    // Exit port: the port not used by the predecessor link; the first
    // hypernode (no pred) prefers its agent port, falling back to the
    // partner port when the agent port has no edges left.
    NodeId exit = kNoNode;
    if (pred_link_[x].valid()) {
      exit = (pred_link_[x].my_port == x) ? partner_of_[x] : x;
    } else {
      exit = !port_unused_[x].empty() ? x : partner_of_[x];
    }
    last_fire_port_[x] = exit;
    const auto pos = static_cast<std::int64_t>(hypindex_[x]);
    const auto steps = static_cast<std::int64_t>(steps_[x]);
    if (exit == x) {
      fire_from_port(ctx, static_cast<std::uint32_t>(pos), static_cast<std::uint64_t>(steps));
    } else {
      ctx.send(exit, Message::make(kFire, {pos, steps}));
    }
  }

  /// Exit-port node: draw a random unused port edge and send progress.
  void fire_from_port(Context& ctx, std::uint32_t pos, std::uint64_t steps) {
    const NodeId x = ctx.self();
    const NodeId agent = (is_agent_[x] != 0) ? x : partner_of_[x];
    auto& list = port_unused_[x];
    if (list.empty()) {
      if (agent == x) {
        hyper_abort(ctx);
      } else {
        ctx.send(agent, Message::make(kFireEmpty));
      }
      return;
    }
    const std::size_t idx = static_cast<std::size_t>(ctx.rng().below(list.size()));
    const PortEdge edge = list[idx];
    list[idx] = list.back();
    list.pop_back();
    ctx.charge_memory(-2);
    ctx.send(edge.node,
             Message::make(kHProgress, {pos, static_cast<std::int64_t>(steps), phase1_.color(x)}));
    const Message fired =
        Message::make(kFired, {edge.hyper, edge.node});
    if (agent == x) {
      pend_link_[x] = {edge.hyper, x, edge.node};
      succ_link_[x] = pend_link_[x];
    } else {
      ctx.send(agent, fired);
    }
  }

  /// Agent of hypernode j: a progress edge reached one of its ports.
  void handle_join(Context& ctx, const Message& msg) {
    const NodeId x = ctx.self();
    if (done_[x] != 0) return;
    const auto pos = static_cast<std::uint32_t>(msg.data[0]);
    const auto steps = static_cast<std::uint64_t>(msg.data[1]);
    const auto from_hyper = static_cast<std::uint32_t>(msg.data[2]);
    const auto x_node = static_cast<NodeId>(msg.data[3]);
    // y: the port of this hypernode the edge landed on.  When the join was
    // relayed by the partner, that port is the partner.
    const NodeId y = (msg.tag == kHJoin && msg.from == partner_of_[x]) ? partner_of_[x] : x;

    if (hypindex_[x] == 0) {
      // Extension: join the hyper path; this agent becomes the head.
      hypindex_[x] = pos + 1;
      pred_link_[x] = {from_hyper, y, x_node};
      succ_link_[x] = {};
      is_head_[x] = 1;
      steps_[x] = steps;
      ++extensions_;
      fire(ctx);
      return;
    }
    if (hypindex_[x] == 1 && pos == k_live_[x] && y != succ_link_[x].my_port) {
      // The hyper cycle closes on the first hypernode's free port.
      pred_link_[x] = {from_hyper, y, x_node};
      steps_[x] = steps;
      done_[x] = 1;
      broadcast_global(ctx, Message::make(kHSuccess));
      agent_assigned_[x] = 1;
      agent_assigned_round_[x] = ctx.round();
      ctx.wake_in(1);
      return;
    }
    if (succ_link_[x].valid() && y == succ_link_[x].my_port) {
      // Valid rotation: the edge landed on the suffix-facing port.
      ++rotations_;
      succ_link_[x] = {from_hyper, y, x_node};
      broadcast_global(ctx,
                       Message::make(kHRotation, {pos, hypindex_[x], from_hyper,
                                                  static_cast<std::int64_t>(steps)}));
      return;
    }
    // Wrong port: unrealizable rotation; tell the head to redraw.
    ++wrong_port_rejects_;
    const Message reject = Message::make(kHRejectToPort, {static_cast<std::int64_t>(steps)});
    if (y == x) {
      // The edge landed on the agent port itself; route straight back.
      if (last_progress_from_[x] != kNoNode) {
        ctx.send(last_progress_from_[x], Message::make(kHRejectBack, {reject.data[0]}));
      }
    } else {
      ctx.send(y, reject);
    }
  }

  void apply_hyper_rotation(Context& ctx, const Message& msg) {
    const NodeId x = ctx.self();
    if (done_[x] != 0) return;
    const auto h = static_cast<std::uint32_t>(msg.data[0]);
    const auto j = static_cast<std::uint32_t>(msg.data[1]);
    const auto head_hyper = static_cast<std::uint32_t>(msg.data[2]);
    const auto seq = static_cast<std::uint64_t>(msg.data[3]);
    const std::uint32_t i = hypindex_[x];
    if (i <= j || i > h) return;
    hypindex_[x] = h + j + 1 - i;
    std::swap(pred_link_[x], succ_link_[x]);
    if (head_hyper == phase1_.color(x)) pred_link_[x] = pend_link_[x];
    if (hypindex_[x] == h) {
      succ_link_[x] = {};
      is_head_[x] = 1;
      steps_[x] = seq;
      ctx.wake_in(2ULL * phase1_.global_setup()->tree_depth(x) + 2);
    }
  }

  void hyper_abort(Context& ctx) {
    const NodeId x = ctx.self();
    if (done_[x] != 0) return;
    if (attempt_[x] + 1 < kMaxHyperAttempts && k_live_[x] >= 3) {
      // Retry Phase 2 with fresh randomness: everyone resets hyper state
      // and ports refill their edge lists (the DRA restart trick, one
      // level up).
      ++hyper_restarts_;
      broadcast_global(ctx, Message::make(kHRestart));
      apply_hyper_restart(ctx);
      return;
    }
    done_[x] = 2;
    broadcast_global(ctx, Message::make(kHAbort));
  }

  /// Each node applies a restart once: the tree broadcast reaches it once.
  void apply_hyper_restart(Context& ctx) {
    const NodeId x = ctx.self();
    hypindex_[x] = 0;
    pred_link_[x] = {};
    succ_link_[x] = {};
    pend_link_[x] = {};
    if (is_agent_[x] != 0 || is_partner_[x] != 0) {
      port_unused_[x] = port_all_[x];
      last_progress_from_[x] = kNoNode;
    }
    is_head_[x] = 0;
    steps_[x] = 0;
    attempt_[x] += 1;
    // The first hypernode's agent re-bootstraps once the broadcast settles.
    if (is_agent_[x] != 0 && phase1_.color(x) == first_group_[x]) {
      ctx.wake_in(2ULL * phase1_.global_setup()->tree_depth(x) + 2);
    }
  }

  /// On success: agents tell each port the remote endpoint of its G′ edge.
  void assign_ports(Context& ctx) {
    const NodeId x = ctx.self();
    for (const HyperLink* link : {&pred_link_[x], &succ_link_[x]}) {
      if (!link->valid()) continue;
      if (link->my_port == x) {
        assigned_remote_[x] = link->remote;
      } else {
        ctx.send(link->my_port, Message::make(kAssign, {link->remote}));
      }
    }
  }

  void broadcast_global(Context& ctx, const Message& msg) {
    phase1_.global_setup()->forward_on_tree(ctx, msg, kNoNode);
  }

  std::uint64_t hyper_budget(NodeId x) const {
    const double k = std::max<double>(k_live_[x], 3.0);
    return static_cast<std::uint64_t>(hyper_step_multiplier_ * k * std::log(k)) + 16;
  }

  /// Builds the final per-node incidence: ports splice their G′ edge with
  /// the sub-cycle edge facing away from their partner; everyone else keeps
  /// both sub-cycle edges.
  graph::CycleIncidence final_incidence() const {
    graph::CycleIncidence inc;
    inc.neighbors_of.resize(n_);
    for (NodeId v = 0; v < n_; ++v) {
      if (is_agent_[v] != 0) {
        inc.neighbors_of[v] = {phase1_.dra()->path_succ(v), assigned_remote_[v]};
      } else if (is_partner_[v] != 0) {
        inc.neighbors_of[v] = {phase1_.dra()->path_pred(v), assigned_remote_[v]};
      } else {
        inc.neighbors_of[v] = {phase1_.dra()->path_pred(v), phase1_.dra()->path_succ(v)};
      }
    }
    return inc;
  }

  enum class Stage { kPhase1, kPickStage, kAnnounceStage, kCensus, kHyper, kDone };

  NodeId n_;
  double hyper_step_multiplier_;
  Stage stage_ = Stage::kPhase1;
  Phase1 phase1_;

  // Phase-2 per-node state.
  std::vector<std::uint8_t> stage_seen_ = std::vector<std::uint8_t>(n_, 0);
  std::vector<std::uint8_t> is_agent_;
  std::vector<std::uint8_t> is_partner_;
  std::vector<NodeId> partner_of_;
  std::vector<std::vector<PortEdge>> port_unused_;
  std::vector<std::vector<PortEdge>> port_all_ = std::vector<std::vector<PortEdge>>(n_);
  std::vector<NodeId> last_progress_from_;
  std::vector<NodeId> assigned_remote_;
  std::vector<NodeId> last_fire_port_ = std::vector<NodeId>(n_, kNoNode);
  std::vector<std::uint32_t> hypindex_;
  std::vector<HyperLink> pred_link_;
  std::vector<HyperLink> succ_link_;
  std::vector<HyperLink> pend_link_;
  std::vector<std::uint32_t> up_reports_;
  std::vector<std::uint32_t> up_count_;
  std::vector<std::uint32_t> up_min_;

  // What each node knows of the census and the walk, learned from the
  // messages it received (kCountDown, the step counts the walk's messages
  // carry, kHSuccess/kHAbort, kHRestart).
  std::vector<std::uint32_t> k_live_ = std::vector<std::uint32_t>(n_, 0);
  std::vector<std::uint32_t> first_group_ = std::vector<std::uint32_t>(n_, kNoHyper);
  std::vector<std::uint8_t> is_head_ = std::vector<std::uint8_t>(n_, 0);  // cleared on restart
  std::vector<std::uint64_t> steps_ = std::vector<std::uint64_t>(n_, 0);
  std::vector<std::uint8_t> done_ = std::vector<std::uint8_t>(n_, 0);  // 1 success, 2 abort
  std::vector<std::uint32_t> attempt_ = std::vector<std::uint32_t>(n_, 0);

  std::vector<std::uint8_t> agent_assigned_ = std::vector<std::uint8_t>(n_, 0);
  std::vector<std::uint64_t> agent_assigned_round_ = std::vector<std::uint64_t>(n_, 0);
  std::vector<std::uint8_t> pending_partner_ = std::vector<std::uint8_t>(n_, 0);
  std::vector<std::uint64_t> pending_partner_round_ = std::vector<std::uint64_t>(n_, 0);

  // Counters for the experiment harness.
  support::ShardCounter<std::uint64_t> extensions_ = 0;
  support::ShardCounter<std::uint64_t> rotations_ = 0;
  support::ShardCounter<std::uint64_t> wrong_port_rejects_ = 0;
  support::ShardCounter<std::uint32_t> hyper_restarts_ = 0;
};

}  // namespace

Result run_dhc1(const graph::Graph& g, std::uint64_t seed, const Dhc1Config& cfg) {
  Result result;
  const NodeId n = g.n();
  if (n < 12) {
    result.failure_reason = "DHC1 needs at least 12 nodes (3 hypernodes of size >= 3)";
    return result;
  }
  std::uint32_t num_colors = cfg.num_colors_override;
  if (num_colors == 0) {
    num_colors =
        static_cast<std::uint32_t>(std::llround(std::sqrt(static_cast<double>(n))));
  }
  num_colors = std::max<std::uint32_t>(num_colors, 3);

  congest::Network net(g, congest::network_config(cfg, seed));
  Dhc1Protocol protocol(n, num_colors, cfg);
  result.metrics = net.run(protocol);

  // The walk's outcome, read from per-node state: the census every node
  // heard, the step count of the last attempt, and success at some node.
  const std::uint32_t last_attempt = std::ranges::max(protocol.attempt_);
  std::uint64_t hyper_steps = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (protocol.attempt_[v] == last_attempt) {
      hyper_steps = std::max(hyper_steps, protocol.steps_[v]);
    }
  }
  result.stats["num_colors"] = static_cast<double>(num_colors);
  result.stats["live_hypernodes"] = static_cast<double>(std::ranges::max(protocol.k_live_));
  result.stats["hyper_steps"] = static_cast<double>(hyper_steps);
  result.stats["hyper_rotations"] = static_cast<double>(protocol.rotations_);
  result.stats["hyper_extensions"] = static_cast<double>(protocol.extensions_);
  result.stats["wrong_port_rejects"] = static_cast<double>(protocol.wrong_port_rejects_);
  result.stats["hyper_restarts"] = static_cast<double>(protocol.hyper_restarts_);
  const auto& dra = protocol.phase1_.dra();
  result.stats["dra_restarts"] = dra ? static_cast<double>(dra->restarts()) : 0.0;
  if (const auto& global = protocol.phase1_.global_setup()) {
    result.stats["global_tree_depth"] = static_cast<double>(global->tree_depth(0));
  }

  std::string failure = protocol.phase1_.failure();
  if (failure.empty() && std::ranges::find(protocol.done_, 1) == protocol.done_.end()) {
    failure = "Phase 2 failed: hypernode rotation aborted";
  }
  conclude(result, g, failure, [&] { return protocol.final_incidence(); });
  return result;
}

}  // namespace dhc::core
