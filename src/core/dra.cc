#include "core/dra.h"

#include <algorithm>
#include <cmath>

#include "support/require.h"

namespace dhc::core {

using congest::Context;
using congest::Message;
using congest::Network;

DraComponent::DraComponent(NodeId n, std::uint16_t base_tag, const congest::SetupComponent* setup,
                           DraParams cfg)
    : n_(n), base_tag_(base_tag), setup_(setup), cfg_(cfg) {
  DHC_REQUIRE(setup != nullptr, "DraComponent needs a SetupComponent");
  flags_.assign(n, 0);
  unused_len_.assign(n, 0);
  cycindex_.assign(n, 0);
  pred_.assign(n, kNoNode);
  succ_.assign(n, kNoNode);
  pending_target_.assign(n, kNoNode);
  my_steps_.assign(n, 0);
  last_seq_.assign(n, 0);
  attempt_.assign(n, 0);
  attempt_start_steps_.assign(n, 0);
}

void DraComponent::start(Network& net) {
  DHC_CHECK(setup_->done(), "DraComponent started before setup finished");
  // Size the unused-edge slab exactly: one prefix-sum pass over the
  // same-partition adjacency, then a single slab replaces the former n
  // per-node vectors.  start() runs serially (before any sharded step), and
  // each node later fills only its own disjoint slice.
  const graph::Graph& g = net.graph();
  DHC_CHECK(g.adjacency().size() < std::uint64_t{1} << 32,
            "unused-edge slab offsets are u32; graph too large");
  slab_base_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (NodeId v = 0; v < n_; ++v) {
    std::uint32_t cnt = 0;
    for (const NodeId w : g.neighbors(v)) {
      if (setup_->same_group(v, w)) ++cnt;
    }
    slab_base_[v + 1] = slab_base_[v] + cnt;
  }
  unused_slab_.assign(slab_base_[n_], 0);
  for (NodeId v = 0; v < n_; ++v) {
    if (setup_->is_leader(v)) net.wake(v);
  }
}

std::uint64_t DraComponent::settle_delay(NodeId v) const {
  return 2ULL * setup_->tree_depth(v) + 2;
}

std::uint64_t DraComponent::step_budget(NodeId v) const {
  const double s = std::max<double>(setup_->component_size(v), 3.0);
  return static_cast<std::uint64_t>(cfg_.step_multiplier * s * std::log(s)) + 16;
}

std::uint32_t DraComponent::refill_unused(Context& ctx) {
  const NodeId v = ctx.self();
  NodeId* slot = unused_slab_.data() + slab_base_[v];
  std::uint32_t len = 0;
  for (const NodeId w : ctx.neighbors()) {
    if (setup_->same_group(v, w)) slot[len++] = w;
  }
  unused_len_[v] = len;
  return len;
}

void DraComponent::ensure_init(Context& ctx) {
  const NodeId v = ctx.self();
  if ((flags_[v] & kInited) != 0) return;
  flags_[v] |= kInited;
  // Paper Alg. 1 line 3: the per-node unused edge list, one word per entry.
  ctx.charge_memory(static_cast<std::int64_t>(refill_unused(ctx)));
}

void DraComponent::remove_unused(NodeId v, NodeId w) {
  NodeId* list = unused_slab_.data() + slab_base_[v];
  std::uint32_t& len = unused_len_[v];
  for (std::uint32_t i = 0; i < len; ++i) {
    if (list[i] == w) {
      list[i] = list[len - 1];
      --len;
      return;
    }
  }
}

void DraComponent::broadcast(Context& ctx, const Message& msg, NodeId exclude) {
  const NodeId v = ctx.self();
  if (cfg_.broadcast == BroadcastMode::kTree) {
    setup_->forward_on_tree(ctx, msg, exclude);
  } else {
    ctx.multicast(msg,
                  [&](std::size_t, NodeId w) { return w != exclude && setup_->same_group(v, w); });
  }
}

void DraComponent::finish_node(Context& ctx, bool succeeded) {
  const NodeId v = ctx.self();
  if ((flags_[v] & kDone) != 0) return;
  flags_[v] |= kDone;
  if (succeeded) flags_[v] |= kSuccess;
  ++done_count_;
  if (setup_->is_leader(v)) {
    if (succeeded) {
      ++succeeded_groups_;
    } else {
      ++aborted_groups_;
    }
    max_group_steps_.update_max(my_steps_[v]);
  }
  (void)ctx;
}

void DraComponent::step(Context& ctx) {
  const NodeId v = ctx.self();
  ensure_init(ctx);

  // Leader bootstrap: the partition leader is the initial head (Alg. 1
  // line 5: "only one v becomes head, v.cycindex ← 1").
  if (cycindex_[v] == 0 && (flags_[v] & kDone) == 0 && setup_->is_leader(v) &&
      ctx.inbox().empty()) {
    if (setup_->component_size(v) < 3) {
      // A cycle needs at least 3 nodes; tiny or fragmented partitions abort.
      my_steps_[v] = 0;
      ++tiny_aborts_;
      abort_group(ctx);
      return;
    }
    cycindex_[v] = 1;
    flags_[v] |= kIsHead;
    act_as_head(ctx);
    return;
  }

  for (const Message& msg : ctx.inbox()) {
    if (msg.tag == tag_progress()) {
      on_progress(ctx, msg);
    } else if (msg.tag == tag_rotation()) {
      const auto seq = static_cast<std::uint64_t>(msg.data[3]);
      if ((flags_[v] & kDone) != 0 || seq <= last_seq_[v]) continue;
      last_seq_[v] = seq;
      broadcast(ctx, msg, msg.from);
      apply_rotation(ctx, msg);
    } else if (msg.tag == tag_success() || msg.tag == tag_abort()) {
      const auto seq = static_cast<std::uint64_t>(msg.data[0]);
      if ((flags_[v] & kDone) != 0 || seq <= last_seq_[v]) continue;
      last_seq_[v] = seq;
      broadcast(ctx, msg, msg.from);
      finish_node(ctx, msg.tag == tag_success());
    } else if (msg.tag == tag_restart()) {
      const auto seq = static_cast<std::uint64_t>(msg.data[0]);
      if ((flags_[v] & kDone) != 0 || seq <= last_seq_[v]) continue;
      last_seq_[v] = seq;
      broadcast(ctx, msg, msg.from);
      reset_for_attempt(ctx);
    }
  }

  // A head woken by its post-rotation settle timer acts now.
  if ((flags_[v] & (kIsHead | kDone)) == kIsHead && ctx.inbox().empty() && cycindex_[v] != 0 &&
      succ_[v] == kNoNode) {
    act_as_head(ctx);
  }
}

void DraComponent::act_as_head(Context& ctx) {
  const NodeId v = ctx.self();
  if (my_steps_[v] - attempt_start_steps_[v] >= step_budget(v)) {
    ++budget_aborts_;
    abort_or_restart(ctx);  // event E1: step budget exhausted
    return;
  }
  std::span<NodeId> list = unused_list(v);
  if (list.empty()) {
    ++starved_aborts_;
    abort_or_restart(ctx);  // event E2: head starved
    return;
  }
  const std::size_t idx = static_cast<std::size_t>(ctx.rng().below(list.size()));
  const NodeId target = list[idx];
  list[idx] = list[list.size() - 1];
  --unused_len_[v];
  ctx.charge_memory(-1);
  ctx.charge_compute(1);

  my_steps_[v] += 1;
  pending_target_[v] = target;
  // Optimistic: on extension or closure `target` is this node's path
  // successor; a rotation overwrites it when it applies (head_id == self).
  succ_[v] = target;
  ctx.send(target, Message::make(tag_progress(),
                                 {cycindex_[v], static_cast<std::int64_t>(my_steps_[v])}));
}

void DraComponent::abort_or_restart(Context& ctx) {
  const NodeId v = ctx.self();
  if (attempt_[v] + 1 >= cfg_.max_attempts) {
    abort_group(ctx);
    return;
  }
  // Restart the partition with fresh randomness: broadcast a restart, reset
  // locally; the leader re-bootstraps after the broadcast settles.
  ++restarts_;
  const std::uint64_t seq = my_steps_[v] + 1;
  last_seq_[v] = seq;
  broadcast(ctx, Message::make(tag_restart(), {static_cast<std::int64_t>(seq)}), kNoNode);
  my_steps_[v] = seq;
  reset_for_attempt(ctx);
}

void DraComponent::reset_for_attempt(Context& ctx) {
  const NodeId v = ctx.self();
  attempt_[v] += 1;
  // Step counters stay monotonic across attempts — they double as broadcast
  // sequence numbers, so resetting them would break flood deduplication.
  my_steps_[v] = std::max(my_steps_[v], last_seq_[v]);
  attempt_start_steps_[v] = my_steps_[v];
  cycindex_[v] = 0;
  pred_[v] = kNoNode;
  succ_[v] = kNoNode;
  pending_target_[v] = kNoNode;
  flags_[v] &= static_cast<std::uint8_t>(~kIsHead);
  const auto old_size = static_cast<std::int64_t>(unused_len_[v]);
  ctx.charge_memory(static_cast<std::int64_t>(refill_unused(ctx)) - old_size);
  if (setup_->is_leader(v)) ctx.wake_in(settle_delay(v));
}

void DraComponent::abort_group(Context& ctx) {
  const NodeId v = ctx.self();
  const auto seq = static_cast<std::int64_t>(my_steps_[v] + 1);
  last_seq_[v] = my_steps_[v] + 1;
  broadcast(ctx, Message::make(tag_abort(), {seq}), kNoNode);
  finish_node(ctx, /*succeeded=*/false);
}

void DraComponent::on_progress(Context& ctx, const Message& msg) {
  const NodeId v = ctx.self();
  if ((flags_[v] & kDone) != 0) return;
  const auto pos = static_cast<std::uint32_t>(msg.data[0]);
  const auto steps = static_cast<std::uint64_t>(msg.data[1]);
  remove_unused(v, msg.from);  // Alg. 1 line 13
  ctx.charge_memory(-1);
  ctx.charge_compute(1);
  my_steps_[v] = steps;

  if (cycindex_[v] == 0) {
    // First visit: join the path and become head (Alg. 1 lines 14–15).
    cycindex_[v] = pos + 1;
    pred_[v] = msg.from;
    succ_[v] = kNoNode;
    flags_[v] |= kIsHead;
    ++extensions_;
    act_as_head(ctx);
    return;
  }
  if (pos == setup_->component_size(v) && cycindex_[v] == 1) {
    // The path spans the partition and the head reached v1: cycle closed
    // (Alg. 1 line 12).
    pred_[v] = msg.from;
    const auto seq = static_cast<std::int64_t>(steps + 1);
    last_seq_[v] = steps + 1;
    broadcast(ctx, Message::make(tag_success(), {seq}), kNoNode);
    finish_node(ctx, /*succeeded=*/true);
    return;
  }
  // Already on the path: rotate (Alg. 1 lines 16–17).  This node is v_j;
  // its new path successor is the old head.
  ++rotations_;
  succ_[v] = msg.from;
  last_seq_[v] = steps;
  const Message rot = Message::make(
      tag_rotation(), {pos, cycindex_[v], msg.from, static_cast<std::int64_t>(steps)});
  broadcast(ctx, rot, kNoNode);
}

void DraComponent::apply_rotation(Context& ctx, const Message& msg) {
  const NodeId v = ctx.self();
  const auto h = static_cast<std::uint32_t>(msg.data[0]);
  const auto j = static_cast<std::uint32_t>(msg.data[1]);
  const auto head_id = static_cast<NodeId>(msg.data[2]);
  const auto seq = static_cast<std::uint64_t>(msg.data[3]);

  const std::uint32_t i = cycindex_[v];
  if (i <= j || i > h) return;  // outside the reversed segment

  // Renumber (Alg. 1 lines 19–20) and flip path orientation.
  cycindex_[v] = h + j + 1 - i;
  std::swap(pred_[v], succ_[v]);
  ctx.charge_compute(1);
  if (head_id == v) {
    // The old head's new predecessor is the node it hit (v_j).
    pred_[v] = pending_target_[v];
  }
  if (cycindex_[v] == h) {
    // New head (Alg. 1 lines 21–22): wait out the broadcast, then act.
    succ_[v] = kNoNode;
    flags_[v] |= kIsHead;
    my_steps_[v] = seq;
    ctx.wake_in(settle_delay(v));
  } else {
    flags_[v] &= static_cast<std::uint8_t>(~kIsHead);
  }
}

graph::CycleIncidence DraComponent::incidence() const {
  graph::CycleIncidence inc;
  inc.neighbors_of.resize(n_);
  for (NodeId v = 0; v < n_; ++v) {
    inc.neighbors_of[v] = {pred_[v], succ_[v]};
  }
  return inc;
}

// ---------------------------------------------------------------------------
// Standalone runner
// ---------------------------------------------------------------------------

namespace {

class StandaloneDraProtocol : public congest::Protocol {
 public:
  StandaloneDraProtocol(NodeId n, const DraConfig& cfg)
      : setup(n, /*base_tag=*/1), dra(n, /*base_tag=*/16, &setup, cfg) {}

  void begin(Context&) override {}

  void step(Context& ctx) override {
    if (!setup.done()) {
      setup.step(ctx);
    } else {
      dra.step(ctx);
    }
  }

  bool on_quiescence(Network& net) override {
    if (!setup.done()) {
      setup.advance(net);
      if (setup.done()) {
        net.mark_phase("dra");
        net.set_barrier_cost(2 * setup.tree_depth(0) + 2);
        dra.start(net);
      }
      return true;
    }
    return false;  // DRA self-paces; quiescence after it means done
  }

  congest::SetupComponent setup;
  DraComponent dra;
};

}  // namespace

Result run_dra(const graph::Graph& g, std::uint64_t seed, const DraConfig& cfg) {
  Result result;
  if (g.n() < 3) {
    result.failure_reason = "graph has fewer than 3 nodes";
    return result;
  }
  congest::Network net(g, congest::network_config(cfg, seed));
  StandaloneDraProtocol protocol(g.n(), cfg);
  result.metrics = net.run(protocol);

  result.stats["steps"] = static_cast<double>(protocol.dra.max_group_steps());
  result.stats["extensions"] = static_cast<double>(protocol.dra.total_extensions());
  result.stats["rotations"] = static_cast<double>(protocol.dra.total_rotations());
  result.stats["restarts"] = static_cast<double>(protocol.dra.restarts());
  result.stats["tree_depth"] = static_cast<double>(protocol.setup.tree_depth(0));

  if (result.metrics.hit_round_limit) {
    result.failure_reason = "round limit exceeded";
    return result;
  }
  if (!protocol.dra.all_succeeded()) {
    result.failure_reason = "rotation head aborted (starved or budget exhausted)";
    return result;
  }
  result.success = true;
  result.cycle = protocol.dra.incidence();
  return result;
}

}  // namespace dhc::core
