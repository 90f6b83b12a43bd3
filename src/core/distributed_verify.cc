#include "core/distributed_verify.h"

#include <algorithm>
#include <atomic>

#include "congest/setup.h"
#include "support/require.h"

namespace dhc::core {

using congest::Context;
using congest::kNoNode;
using congest::Message;
using congest::Network;
using graph::NodeId;

namespace {

constexpr std::uint16_t kClaim = 32;    // {other}: "you are my cycle neighbor; my other is <other>"
constexpr std::uint16_t kToken = 33;    // {hops}: cycle walk
constexpr std::uint16_t kAlarm = 34;    // {}: local inconsistency, flooded
constexpr std::uint16_t kVerdict = 35;  // {accepted}: leader's broadcast

class VerifyProtocol : public congest::Protocol {
 public:
  VerifyProtocol(NodeId n, const graph::CycleIncidence& claim)
      : n_(n), claim_(&claim), setup_(n, /*base_tag=*/1) {
    visited_.assign(n, 0);
  }

  void step(Context& ctx) override {
    const NodeId x = ctx.self();
    switch (stage_) {
      case Stage::kSetup:
        setup_.step(ctx);
        return;
      case Stage::kClaims: {
        if (stage_seen_[x] == 0) {
          stage_seen_[x] = 1;
          announce_claims(ctx);
          // Wake up next round to check mirroring even if nobody names us.
          ctx.wake_in(1);
          return;
        }
        // Second round of the stage: check mirroring.
        process_claim_replies(ctx);
        return;
      }
      case Stage::kWalk: {
        // Alarms first: once a node has seen (and forwarded) an alarm it
        // stops forwarding the token, so alarm and token never share an
        // edge in one round.
        for (const Message& msg : ctx.inbox()) {
          if (msg.tag == kAlarm && alarm_seen_[x] == 0) {
            alarm_seen_[x] = 1;
            alarm_raised_.store(true, std::memory_order_relaxed);
            ctx.multicast(msg, [&](std::size_t, NodeId w) { return w != msg.from; });
          }
        }
        for (const Message& msg : ctx.inbox()) {
          if (msg.tag == kToken && alarm_seen_[x] == 0) {
            forward_token(ctx, static_cast<std::uint64_t>(msg.data[0]), msg.from);
          }
        }
        // The leader launches the token when woken at stage start.
        if (stage_seen_[x] == 1 && setup_.is_leader(x) && alarm_seen_[x] == 0) {
          stage_seen_[x] = 2;
          launch_token(ctx);
        }
        return;
      }
      case Stage::kVerdictStage: {
        for (const Message& msg : ctx.inbox()) {
          if (msg.tag == kVerdict) {
            setup_.forward_on_tree(ctx, msg, msg.from);
          }
        }
        if (stage_seen_[x] == 2 && setup_.is_leader(x)) {
          stage_seen_[x] = 3;
          const Message verdict = Message::make(kVerdict, {accepted_ && !alarm_raised_ ? 1 : 0});
          setup_.forward_on_tree(ctx, verdict, kNoNode);
        }
        return;
      }
      case Stage::kDone:
        return;
    }
  }

  void begin(Context&) override {}

  bool on_quiescence(Network& net) override {
    switch (stage_) {
      case Stage::kSetup:
        if (!setup_started_) {
          setup_started_ = true;
          net.mark_phase("setup");
          setup_.advance(net);
          return true;
        }
        setup_.advance(net);
        if (setup_.done()) {
          stage_ = Stage::kClaims;
          net.mark_phase("claims");
          net.wake_all();
        }
        return true;
      case Stage::kClaims:
        stage_ = Stage::kWalk;
        net.mark_phase("walk");
        for (NodeId v = 0; v < n_; ++v) {
          if (setup_.is_leader(v)) net.wake(v);
          stage_seen_[v] = 1;
        }
        return true;
      case Stage::kWalk:
        stage_ = Stage::kVerdictStage;
        net.mark_phase("verdict");
        for (NodeId v = 0; v < n_; ++v) {
          if (setup_.is_leader(v)) {
            stage_seen_[v] = 2;
            net.wake(v);
          }
        }
        return true;
      case Stage::kVerdictStage:
        stage_ = Stage::kDone;
        return false;
      case Stage::kDone:
        return false;
    }
    return false;
  }

  /// Stage 1a: tell both claimed neighbors who they are to me.
  void announce_claims(Context& ctx) {
    const NodeId x = ctx.self();
    const auto [a, b] = claim_->neighbors_of[x];
    const auto nb = ctx.neighbors();
    const auto adjacent = [&](NodeId w) {
      return w < n_ && std::binary_search(nb.begin(), nb.end(), w);
    };
    if (a == b || !adjacent(a) || !adjacent(b)) {
      raise_alarm(ctx, "claimed edges invalid");
      return;
    }
    ctx.send(a, Message::make(kClaim, {b}));
    ctx.send(b, Message::make(kClaim, {a}));
  }

  /// Stage 1b: I must be named by exactly my two claimed neighbors.
  void process_claim_replies(Context& ctx) {
    const NodeId x = ctx.self();
    const auto [a, b] = claim_->neighbors_of[x];
    std::uint32_t named_by_a = 0;
    std::uint32_t named_by_b = 0;
    std::uint32_t named_by_other = 0;
    for (const Message& msg : ctx.inbox()) {
      if (msg.tag != kClaim) continue;
      if (msg.from == a) {
        ++named_by_a;
      } else if (msg.from == b) {
        ++named_by_b;
      } else {
        ++named_by_other;
      }
    }
    if (named_by_a != 1 || named_by_b != 1 || named_by_other != 0) {
      raise_alarm(ctx, "claims not mirrored");
    }
  }

  bool physically_adjacent(Context& ctx, NodeId w) const {
    const auto nb = ctx.neighbors();
    return w < n_ && std::binary_search(nb.begin(), nb.end(), w);
  }

  void launch_token(Context& ctx) {
    const NodeId x = ctx.self();
    visited_[x] = 1;
    const NodeId next = claim_->neighbors_of[x][1];
    if (!physically_adjacent(ctx, next)) {
      raise_alarm(ctx, "leader's claimed edge is not a graph edge");
      return;
    }
    ctx.send(next, Message::make(kToken, {1}));
  }

  void forward_token(Context& ctx, std::uint64_t hops, NodeId from) {
    const NodeId x = ctx.self();
    if (setup_.is_leader(x)) {
      // Token returned: accept iff it took exactly n hops.
      accepted_ = (hops == n_);
      token_done_ = true;
      return;
    }
    if (visited_[x] != 0) {
      raise_alarm(ctx, "token revisited a node");
      return;
    }
    visited_[x] = 1;
    const auto [a, b] = claim_->neighbors_of[x];
    const NodeId next = (a == from) ? b : a;
    if (hops >= n_ || !physically_adjacent(ctx, next)) {
      raise_alarm(ctx, "walk escaped the claimed cycle");
      return;
    }
    ctx.send(next, Message::make(kToken, {static_cast<std::int64_t>(hops + 1)}));
  }

  void raise_alarm(Context& ctx, const char* why) {
    const NodeId x = ctx.self();
    alarm_raised_ = true;
    // Record the node's first local reason; the run-level reason is reduced
    // after the run as the earliest (round, node) record — the same answer
    // the old shared first-write-wins string produced under sequential
    // stepping, but free of cross-node writes in sharded rounds.
    if (reason_round_[x] == kNoReason) {
      reason_round_[x] = ctx.round();
      reason_of_[x] = why;
    }
    if (alarm_seen_[x] != 0) return;  // an alarm already passed through here
    alarm_seen_[x] = 1;
    ctx.multicast(Message::make(kAlarm));
  }

  /// Earliest alarm reason by (round, node id) — the sequential first-wins
  /// order.  Empty when no node alarmed.
  std::string first_reason() const {
    std::uint64_t best_round = kNoReason;
    const char* best = nullptr;
    for (NodeId v = 0; v < n_; ++v) {
      if (reason_round_[v] < best_round) {
        best_round = reason_round_[v];
        best = reason_of_[v];
      }
    }
    return best == nullptr ? std::string() : std::string(best);
  }

  static constexpr std::uint64_t kNoReason = static_cast<std::uint64_t>(-1);

  enum class Stage : std::uint8_t { kSetup, kClaims, kWalk, kVerdictStage, kDone };

  NodeId n_;
  const graph::CycleIncidence* claim_;
  congest::SetupComponent setup_;
  Stage stage_ = Stage::kSetup;
  bool setup_started_ = false;
  bool accepted_ = false;    // leader-only writer
  bool token_done_ = false;  // leader-only writer
  std::atomic<bool> alarm_raised_{false};  // same-value stores from many nodes
  std::vector<std::uint8_t> stage_seen_ = std::vector<std::uint8_t>(n_, 0);
  std::vector<std::uint8_t> alarm_seen_ = std::vector<std::uint8_t>(n_, 0);
  std::vector<std::uint8_t> visited_;
  std::vector<std::uint64_t> reason_round_ = std::vector<std::uint64_t>(n_, kNoReason);
  std::vector<const char*> reason_of_ = std::vector<const char*>(n_, nullptr);
};

}  // namespace

DistributedVerifyResult run_distributed_verify(const graph::Graph& g,
                                               const graph::CycleIncidence& claim,
                                               std::uint64_t seed) {
  DistributedVerifyResult out;
  if (g.n() < 3) {
    out.reason = "graph has fewer than 3 nodes";
    return out;
  }
  if (claim.neighbors_of.size() != g.n()) {
    out.reason = "claim does not cover every node";
    return out;
  }
  congest::NetworkConfig cfg;
  cfg.seed = seed;
  congest::Network net(g, cfg);
  VerifyProtocol protocol(g.n(), claim);
  out.metrics = net.run(protocol);
  if (protocol.alarm_raised_) {
    out.accepted = false;
    const std::string why = protocol.first_reason();
    out.reason = why.empty() ? "alarm raised" : why;
    return out;
  }
  if (!protocol.token_done_ || !protocol.accepted_) {
    out.accepted = false;
    out.reason = protocol.token_done_ ? "token hop count mismatch" : "token never returned";
    return out;
  }
  out.accepted = true;
  return out;
}

}  // namespace dhc::core
