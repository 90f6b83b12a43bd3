#include "congest/setup.h"

#include <algorithm>
#include <limits>

#include "support/require.h"

namespace dhc::congest {

namespace {

constexpr std::uint32_t kNoLevel = std::numeric_limits<std::uint32_t>::max();

// Rank of neighbor `w` in v's sorted neighbor span; `w` must be a neighbor
// (it arrived as msg.from).  Paid once per tree-edge adoption so that every
// later tree send is O(1).
std::uint32_t rank_of(Context& ctx, NodeId w) {
  const auto nb = ctx.neighbors();
  return static_cast<std::uint32_t>(std::lower_bound(nb.begin(), nb.end(), w) - nb.begin());
}

}  // namespace

SetupComponent::SetupComponent(NodeId n, std::uint16_t base_tag, std::vector<std::uint32_t> group_of)
    : base_tag_(base_tag), group_of_(std::move(group_of)) {
  DHC_REQUIRE(group_of_.size() == n, "group_of must have one entry per node");
  multi_group_ = !group_of_.empty() &&
                 !std::all_of(group_of_.begin(), group_of_.end(),
                              [&](std::uint32_t g) { return g == group_of_[0]; });
  phase_seen_.assign(n, static_cast<std::uint8_t>(Phase::kIdle));
  min_seen_.assign(n, kNoNode);
  level_.assign(n, kNoLevel);
  parent_.assign(n, kNoNode);
  parent_rank_.assign(n, 0);
  children_.assign(n, {});
  child_ranks_.assign(n, {});
  up_reports_.assign(n, 0);
  up_size_.assign(n, 0);
  up_depth_.assign(n, 0);
  comp_size_.assign(n, 0);
  comp_depth_.assign(n, 0);
}

SetupComponent::SetupComponent(NodeId n, std::uint16_t base_tag)
    : SetupComponent(n, base_tag, std::vector<std::uint32_t>(n, 0)) {}

void SetupComponent::advance(Network& net) {
  DHC_CHECK(phase_ != Phase::kDone, "advance() called on a finished SetupComponent");
  switch (phase_) {
    case Phase::kIdle:
      // Group announcement is only needed when groups actually differ.
      phase_ = multi_group_ ? Phase::kShare : Phase::kElect;
      break;
    case Phase::kShare:
      phase_ = Phase::kElect;
      break;
    case Phase::kElect:
      phase_ = Phase::kBfs;
      break;
    case Phase::kBfs:
      phase_ = Phase::kUp;
      break;
    case Phase::kUp:
      phase_ = Phase::kDown;
      break;
    case Phase::kDown:
      phase_ = Phase::kDone;
      return;  // no more work; don't wake anyone
    case Phase::kDone:
      return;
  }
  net.wake_all();
}

void SetupComponent::step(Context& ctx) {
  const NodeId v = ctx.self();
  if (phase_seen_[v] != static_cast<std::uint8_t>(phase_)) {
    phase_seen_[v] = static_cast<std::uint8_t>(phase_);
    start_phase(ctx);
  }
  // Election improvements are batched: forwarding each improving message
  // separately could put two messages on one edge in one round.
  NodeId best_candidate = kNoNode;
  for (const Message& msg : ctx.inbox()) {
    if (msg.tag == tag_elect()) {
      best_candidate = std::min(best_candidate, static_cast<NodeId>(msg.data[0]));
    } else if (msg.tag >= base_tag_ && msg.tag <= tag_down()) {
      handle(ctx, msg);
    }
  }
  if (best_candidate < min_seen_[v]) {
    min_seen_[v] = best_candidate;
    ctx.charge_compute(1);
    flood_group(ctx, Message::make(tag_elect(), {best_candidate}));
  }
}

// Multicasts one message to every same-group neighbor; the group filter is
// skipped entirely for single-group components.  This flood carries the
// bulk of all simulated traffic (Share/Elect/BFS flooding).
void SetupComponent::flood_group(Context& ctx, const Message& msg) const {
  if (!multi_group_) {
    ctx.multicast(msg);
    return;
  }
  const std::uint32_t group = group_of_[ctx.self()];
  ctx.multicast(msg, [&](std::size_t, NodeId w) { return group_of_[w] == group; });
}

void SetupComponent::start_phase(Context& ctx) {
  const NodeId v = ctx.self();
  switch (phase_) {
    case Phase::kShare: {
      // Tell every physical neighbor which group we are in (paper Alg. 2
      // line 6: colors are local random choices, so neighbors must be told).
      const std::size_t degree =
          ctx.multicast(Message::make(tag_share(), {static_cast<std::int64_t>(group_of_[v])}));
      // A node stores its neighbors' groups: one word per neighbor.
      ctx.charge_memory(static_cast<std::int64_t>(degree));
      break;
    }
    case Phase::kElect: {
      min_seen_[v] = v;
      flood_group(ctx, Message::make(tag_elect(), {v}));
      break;
    }
    case Phase::kBfs: {
      if (min_seen_[v] == v) {
        level_[v] = 0;
        announce_bfs(ctx);
      }
      break;
    }
    case Phase::kUp: {
      // Leaves start the size/depth convergecast.
      maybe_send_up(ctx);
      break;
    }
    case Phase::kDown: {
      if (min_seen_[v] == v && level_[v] == 0) {
        comp_size_[v] = up_size_[v];
        comp_depth_[v] = up_depth_[v];
        send_to_children(ctx, Message::make(tag_down(), {comp_size_[v], comp_depth_[v]}));
      }
      break;
    }
    case Phase::kIdle:
    case Phase::kDone:
      break;
  }
}

void SetupComponent::handle(Context& ctx, const Message& msg) {
  const NodeId v = ctx.self();
  if (msg.tag == tag_share()) {
    return;  // cost accounted; group table is read from group_of_
  }
  if (msg.tag == tag_bfs()) {
    const auto lvl = static_cast<std::uint32_t>(msg.data[0]);
    const auto claimed_parent = static_cast<NodeId>(msg.data[1]);
    if (claimed_parent == v) {
      children_[v].push_back(msg.from);
      child_ranks_[v].push_back(rank_of(ctx, msg.from));
      ctx.charge_memory(1);
    }
    if (level_[v] == kNoLevel) {
      // Synchronous BFS: all first announcements arrive in the same round.
      // Adopt a *uniformly random* announcer as parent — Lemmas 13–15 rely
      // on random attachment for subtree balance (min-id tie-breaking would
      // funnel nearly all of L2 under the smallest-id L1 node and destroy
      // the upcast congestion bound of Lemma 16).
      level_[v] = lvl + 1;
      std::uint32_t candidates = 0;
      for (const Message& other : ctx.inbox()) {
        if (other.tag == tag_bfs() && static_cast<std::uint32_t>(other.data[0]) == lvl) {
          ++candidates;
        }
      }
      std::uint64_t pick = ctx.rng().below(std::max<std::uint32_t>(candidates, 1));
      parent_[v] = msg.from;
      for (const Message& other : ctx.inbox()) {
        if (other.tag == tag_bfs() && static_cast<std::uint32_t>(other.data[0]) == lvl) {
          if (pick-- == 0) {
            parent_[v] = other.from;
            break;
          }
        }
      }
      parent_rank_[v] = rank_of(ctx, parent_[v]);
      announce_bfs(ctx);
    }
    return;
  }
  if (msg.tag == tag_up()) {
    up_size_[v] += static_cast<std::uint32_t>(msg.data[0]);
    up_depth_[v] = std::max(up_depth_[v], static_cast<std::uint32_t>(msg.data[1]));
    up_reports_[v] += 1;
    maybe_send_up(ctx);
    return;
  }
  if (msg.tag == tag_down()) {
    comp_size_[v] = static_cast<std::uint32_t>(msg.data[0]);
    comp_depth_[v] = static_cast<std::uint32_t>(msg.data[1]);
    send_to_children(ctx, Message::make(tag_down(), {comp_size_[v], comp_depth_[v]}));
    return;
  }
}

void SetupComponent::announce_bfs(Context& ctx) {
  const NodeId v = ctx.self();
  const std::int64_t parent_field =
      (parent_[v] == kNoNode) ? static_cast<std::int64_t>(kNoNode) : parent_[v];
  flood_group(ctx, Message::make(tag_bfs(), {level_[v], parent_field}));
}

void SetupComponent::maybe_send_up(Context& ctx) {
  const NodeId v = ctx.self();
  if (level_[v] == kNoLevel) return;  // isolated from any leader (empty group edge case)
  if (up_reports_[v] != children_[v].size()) return;
  const std::uint32_t size = up_size_[v] + 1;
  const std::uint32_t depth = std::max(up_depth_[v], level_[v]);
  up_size_[v] = size;
  up_depth_[v] = depth;
  if (parent_[v] != kNoNode) {
    send_to_parent(ctx, Message::make(tag_up(), {size, depth}));
  }
  // Leaders finalize in the Down phase.
  // Guard against double-sends if maybe_send_up is called again: mark done.
  up_reports_[v] = std::numeric_limits<std::uint32_t>::max();
}

void SetupComponent::forward_on_tree(Context& ctx, const Message& msg, NodeId exclude) const {
  const NodeId v = ctx.self();
  if (parent_[v] != kNoNode && parent_[v] != exclude) send_to_parent(ctx, msg);
  send_to_children(ctx, msg, exclude);
}

}  // namespace dhc::congest
