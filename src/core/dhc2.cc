#include "core/dhc2.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "support/require.h"

namespace dhc::core {

using congest::Context;
using congest::Message;
using congest::Network;

namespace {

// Message tag offsets within the MergeEngine's tag block.
constexpr std::uint16_t kVerify = 0;        // {w = succ(v)}                 v → u
constexpr std::uint16_t kCheck = 1;         // {w, v}                        u → u′
constexpr std::uint16_t kCheckReply = 2;    // {w, v, yes}                   u′ → u
constexpr std::uint16_t kFound = 3;         // {u′, |C_j|}                   u → v
constexpr std::uint16_t kCand = 4;          // {u, u′, v, |C_j|}             flood in C_i
constexpr std::uint16_t kBuild = 5;         // {t, |C_i|, w, u′}             v → u
constexpr std::uint16_t kBuildPartner = 6;  // {w}                           u → u′
constexpr std::uint16_t kBuildCut = 7;      // {u′}                          v → succ(v)
constexpr std::uint16_t kRenumI = 8;        // {t, |C_j|}                    flood in C_i
constexpr std::uint16_t kRenumJ = 9;        // {t, q_u, side, |C_i|}         flood in C_j

}  // namespace

MergeEngine::MergeEngine(NodeId n, std::uint16_t base_tag, const congest::SetupComponent* setup,
                         const DraComponent* dra, std::uint32_t num_colors, MergeStrategy strategy)
    : n_(n), base_tag_(base_tag), setup_(setup), strategy_(strategy), num_colors_(num_colors) {
  DHC_REQUIRE(setup != nullptr && dra != nullptr, "MergeEngine needs setup and DRA results");
  total_levels_ = 0;
  while ((1u << total_levels_) < num_colors_) ++total_levels_;

  mflags_.assign(n, 0);
  pred_.assign(n, kNoNode);
  succ_.assign(n, kNoNode);
  cycindex_.assign(n, 0);
  csize_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (dra->node_succeeded(v)) {
      mflags_[v] = kAlive;
      pred_[v] = dra->path_pred(v);
      succ_[v] = dra->path_succ(v);
      cycindex_[v] = dra->cycle_index(v);
      csize_[v] = setup->component_size(v);
    }
  }

  level_seen_.assign(n, 0);
  best_cand_.assign(n, {});
  check_queue_.assign(n, {});
  cur_w_.assign(n, kNoNode);
  cur_v_.assign(n, kNoNode);
  pending_kind_.assign(n, 0);
  pending_round_.assign(n, 0);
  pending_a_.assign(n, 0);
  pending_b_.assign(n, 0);
  pending_c_.assign(n, 0);
  pending_d_.assign(n, 0);

  // Per-level tallies are preallocated (atomic counters are not movable);
  // only the first levels_started_ entries are ever exposed.
  bridges_per_level_ = std::vector<support::ShardCounter<std::uint64_t>>(total_levels_);
  candidates_per_level_ = std::vector<support::ShardCounter<std::uint64_t>>(total_levels_);
}

std::uint32_t MergeEngine::cur_color(NodeId x) const {
  // Initial colors are 1..K stored as group 0..K-1; after ℓ halvings the
  // current color is ⌈c/2^ℓ⌉ = (group >> ℓ) + 1.
  const std::uint32_t shift = levels_started_ == 0 ? 0 : levels_started_ - 1;
  return (setup_->group_of(x) >> shift) + 1;
}

bool MergeEngine::flood_same_color(NodeId v, NodeId w) const { return cur_color(v) == cur_color(w); }

void MergeEngine::flood_color(Context& ctx, const Message& msg, NodeId exclude) {
  // One multicast to every same-color neighbor (minus `exclude`): the
  // candidate/renumber floods carry most of DHC2's traffic, so the own-color
  // lookup is hoisted out of the filter.
  const std::uint32_t mine = cur_color(ctx.self());
  ctx.multicast(msg, [&](std::size_t, NodeId w) { return w != exclude && cur_color(w) == mine; });
}

void MergeEngine::start_level(Network& net) {
  DHC_CHECK(levels_remaining(), "start_level called with no levels remaining");
  ++levels_started_;
  sub_phase_ = SubPhase::kDiscovery;
  net.wake_all();
}

void MergeEngine::start_build(Network& net) {
  sub_phase_ = SubPhase::kBuild;
  net.wake_all();
}

void MergeEngine::ensure_level(Context& ctx) {
  const NodeId x = ctx.self();
  const std::uint32_t marker = levels_started_ * 2 + (sub_phase_ == SubPhase::kBuild ? 1 : 0);
  if (level_seen_[x] == marker) return;
  level_seen_[x] = marker;
  if (sub_phase_ == SubPhase::kDiscovery) {
    on_discovery_start(ctx);
  } else {
    on_build_start(ctx);
  }
}

void MergeEngine::on_discovery_start(Context& ctx) {
  const NodeId x = ctx.self();
  best_cand_[x] = {};
  mflags_[x] &= kAlive;  // clear every level-local bit, keep liveness
  check_queue_[x].clear();
  pending_kind_[x] = 0;

  // Active side (Alg. 3 lines 6–7): odd-colored cycles look for bridges to
  // their even partner color.
  if ((mflags_[x] & kAlive) == 0 || succ_[x] == kNoNode) return;
  const std::uint32_t mine = cur_color(x);
  if (mine % 2 == 0) return;
  const auto partner = [&](std::size_t, NodeId w) { return cur_color(w) == mine + 1; };
  verify_messages_ += ctx.multicast(Message::make(tag(kVerify), {succ_[x]}), partner);
}

void MergeEngine::on_build_start(Context& ctx) {
  const NodeId x = ctx.self();
  const Candidate& cand = best_cand_[x];
  if ((mflags_[x] & kAlive) == 0 || !cand.valid() || cand.v != x) return;
  // This node's candidate won the in-partition minimum (Alg. 3 lines 11–12):
  // build the bridge.
  const auto t = cycindex_[x];
  const auto s_i = csize_[x];
  const NodeId w = succ_[x];
  ctx.send(cand.u, Message::make(tag(kBuild), {t, s_i, w, cand.uprime}));
  ctx.send(w, Message::make(tag(kBuildCut), {cand.uprime}));
  // v's own link/size updates; index t is unchanged.
  succ_[x] = cand.u;
  csize_[x] = s_i + cand.partner_size;
  mflags_[x] |= kRenumDone;
  ++bridges_built_;
  ++bridges_per_level_[levels_started_ - 1];
  // The C_i renumber flood leaves next round (same-round sends to succ(v)
  // would collide with kBuildCut on that edge).
  pending_kind_[x] = 1;
  pending_round_[x] = ctx.round();
  pending_a_[x] = t;
  pending_b_[x] = cand.partner_size;
  ctx.wake_in(1);
}

void MergeEngine::improve_candidate(Context& ctx, const Candidate& cand) {
  const NodeId x = ctx.self();
  if (best_cand_[x].valid() && !(cand < best_cand_[x])) return;
  best_cand_[x] = cand;
  const Message msg = Message::make(
      tag(kCand), {cand.u, cand.uprime, cand.v, static_cast<std::int64_t>(cand.partner_size)});
  flood_color(ctx, msg);
}

void MergeEngine::apply_renum_i(Context& ctx, std::uint32_t t, std::uint32_t sj) {
  const NodeId x = ctx.self();
  if ((mflags_[x] & kAlive) == 0) return;
  if (cycindex_[x] > t) cycindex_[x] += sj;
  csize_[x] += sj;
  ctx.charge_compute(1);
}

void MergeEngine::apply_renum_j(Context& ctx, std::uint32_t t, std::uint32_t qu, bool side_succ,
                                std::uint32_t si) {
  const NodeId x = ctx.self();
  if ((mflags_[x] & kAlive) == 0) return;
  const std::uint32_t sj = csize_[x];
  const std::uint32_t qx = cycindex_[x];
  // New index: t + 1 + d where d walks C_j from u in the traversal
  // direction (away from the cut edge); covers the endpoints too.
  const std::uint64_t diff = side_succ
                                 ? (static_cast<std::uint64_t>(qu) + sj - qx) % sj
                                 : (static_cast<std::uint64_t>(qx) + sj - qu) % sj;
  cycindex_[x] = t + 1 + static_cast<std::uint32_t>(diff);
  csize_[x] = si + sj;
  if (side_succ && (mflags_[x] & kBridgeEndpoint) == 0) {
    std::swap(pred_[x], succ_[x]);
  }
  ctx.charge_compute(1);
}

void MergeEngine::process_check_queue(Context& ctx) {
  const NodeId x = ctx.self();
  if ((mflags_[x] & (kAlive | kRenumDone | kBridgeEndpoint)) != kAlive) return;
  if ((mflags_[x] & kCheckInFlight) != 0 || check_queue_[x].empty()) return;
  const auto [w, v] = check_queue_[x].front();
  check_queue_[x].pop_front();
  ctx.charge_memory(-2);
  // In flight; reply bits and count start fresh for this (w, v).
  mflags_[x] = static_cast<std::uint8_t>(
      (mflags_[x] & ~(kReplyYesSucc | kReplyYesPred | (3u << kReplyCountShift))) | kCheckInFlight);
  cur_w_[x] = w;
  cur_v_[x] = v;
  // Ask both cycle neighbors whether they are adjacent to w (Alg. 3 line 15).
  ctx.send(succ_[x], Message::make(tag(kCheck), {w, v}));
  ctx.send(pred_[x], Message::make(tag(kCheck), {w, v}));
}

void MergeEngine::step(Context& ctx) {
  const NodeId x = ctx.self();
  ensure_level(ctx);

  // Pass 1: build/renumber traffic.  Renumber state must settle before the
  // check queue fires again, or queue messages would collide with flood
  // forwards on cycle edges.
  for (const Message& msg : ctx.inbox()) {
    if (msg.tag < base_tag_ || msg.tag > tag(kRenumJ)) continue;
    const auto off = static_cast<std::uint16_t>(msg.tag - base_tag_);
    if (off == kBuild || off == kBuildPartner || off == kBuildCut || off == kRenumI ||
        off == kRenumJ) {
      handle_message(ctx, msg);
    }
  }
  // Pass 2: discovery traffic; candidate improvements are folded so the
  // flood forwards at most once per round (CONGEST capacity).
  Candidate incoming;
  NodeId min_verify_w = kNoNode;
  NodeId min_verify_v = kNoNode;
  for (const Message& msg : ctx.inbox()) {
    if (msg.tag < base_tag_ || msg.tag > tag(kRenumJ)) continue;
    const auto off = static_cast<std::uint16_t>(msg.tag - base_tag_);
    switch (off) {
      case kVerify: {
        if ((mflags_[x] & kAlive) == 0 || succ_[x] == kNoNode) break;
        const auto w = static_cast<NodeId>(msg.data[0]);
        if (strategy_ == MergeStrategy::kFullQueue) {
          check_queue_[x].emplace_back(w, msg.from);
          ctx.charge_memory(2);
        } else if (min_verify_w == kNoNode || w < min_verify_w ||
                   (w == min_verify_w && msg.from < min_verify_v)) {
          min_verify_w = w;
          min_verify_v = msg.from;
        }
        break;
      }
      case kCheck: {
        const auto w = static_cast<NodeId>(msg.data[0]);
        const bool yes = std::binary_search(ctx.neighbors().begin(), ctx.neighbors().end(), w);
        ctx.charge_compute(1);
        ctx.send(msg.from, Message::make(tag(kCheckReply), {w, msg.data[1], yes ? 1 : 0}));
        break;
      }
      case kCheckReply: {
        if ((mflags_[x] & kCheckInFlight) == 0) break;
        if (static_cast<NodeId>(msg.data[0]) != cur_w_[x] ||
            static_cast<NodeId>(msg.data[1]) != cur_v_[x]) {
          break;
        }
        // Saturating 2-bit count: both checks send exactly two kChecks, so
        // it never exceeds 2 in practice; saturation guards the packing.
        if ((mflags_[x] >> kReplyCountShift) < 3) {
          mflags_[x] = static_cast<std::uint8_t>(mflags_[x] + (1u << kReplyCountShift));
        }
        if (msg.data[2] != 0) {
          if (msg.from == succ_[x]) mflags_[x] |= kReplyYesSucc;
          if (msg.from == pred_[x]) mflags_[x] |= kReplyYesPred;
        }
        break;
      }
      case kFound: {
        Candidate cand;
        cand.u = msg.from;
        cand.uprime = static_cast<NodeId>(msg.data[0]);
        cand.v = x;
        cand.partner_size = static_cast<std::uint32_t>(msg.data[1]);
        if (!incoming.valid() || cand < incoming) incoming = cand;
        ++candidates_found_;
        ++candidates_per_level_[levels_started_ - 1];
        break;
      }
      case kCand: {
        Candidate cand;
        cand.u = static_cast<NodeId>(msg.data[0]);
        cand.uprime = static_cast<NodeId>(msg.data[1]);
        cand.v = static_cast<NodeId>(msg.data[2]);
        cand.partner_size = static_cast<std::uint32_t>(msg.data[3]);
        if (!incoming.valid() || cand < incoming) incoming = cand;
        break;
      }
      default:
        break;
    }
  }

  if (min_verify_w != kNoNode) {
    // kMinForward: only the minimum (w, v) pair is checked (DESIGN.md §2.2).
    check_queue_[x].emplace_back(min_verify_w, min_verify_v);
    ctx.charge_memory(2);
  }
  if (incoming.valid()) improve_candidate(ctx, incoming);

  // Completed adjacency checks produce a confirmed bridge for v.
  if ((mflags_[x] & kCheckInFlight) != 0 && (mflags_[x] >> kReplyCountShift) >= 2) {
    mflags_[x] &= static_cast<std::uint8_t>(~kCheckInFlight);
    NodeId uprime = kNoNode;
    if ((mflags_[x] & kReplyYesSucc) != 0) {
      uprime = succ_[x];  // paper line 16 prefers succ(v)
    } else if ((mflags_[x] & kReplyYesPred) != 0) {
      uprime = pred_[x];
    }
    if (uprime != kNoNode) {
      ctx.send(cur_v_[x], Message::make(tag(kFound),
                                        {uprime, static_cast<std::int64_t>(csize_[x])}));
    }
  }

  // Deferred renumber floods (kept a round apart from the build messages
  // that share cycle edges).
  if (pending_kind_[x] != 0 && ctx.round() > pending_round_[x]) {
    Message msg;
    if (pending_kind_[x] == 1) {
      msg = Message::make(tag(kRenumI), {pending_a_[x], pending_b_[x]});
    } else {
      msg = Message::make(tag(kRenumJ),
                          {pending_a_[x], pending_b_[x], pending_c_[x], pending_d_[x]});
    }
    pending_kind_[x] = 0;
    flood_color(ctx, msg);
  }

  process_check_queue(ctx);
  if (!check_queue_[x].empty() && (mflags_[x] & kCheckInFlight) == 0) ctx.wake_in(1);
}

void MergeEngine::handle_message(Context& ctx, const Message& msg) {
  const NodeId x = ctx.self();
  const auto off = static_cast<std::uint16_t>(msg.tag - base_tag_);
  switch (off) {
    case kBuild: {
      if ((mflags_[x] & (kAlive | kBridgeEndpoint | kRenumDone)) != kAlive) break;
      const auto t = static_cast<std::uint32_t>(msg.data[0]);
      const auto s_i = static_cast<std::uint32_t>(msg.data[1]);
      const auto w = static_cast<NodeId>(msg.data[2]);
      const auto uprime = static_cast<NodeId>(msg.data[3]);
      if (uprime != succ_[x] && uprime != pred_[x]) break;  // stale/corrupt
      const bool side_succ = (uprime == succ_[x]);
      const std::uint32_t q_u = cycindex_[x];
      const std::uint32_t s_j = csize_[x];
      // u's links: predecessor is v, successor is the remaining old cycle
      // neighbor (the cut edge (u, u′) disappears from the cycle).
      const NodeId other = side_succ ? pred_[x] : succ_[x];
      pred_[x] = msg.from;
      succ_[x] = other;
      cycindex_[x] = t + 1;
      csize_[x] = s_i + s_j;
      mflags_[x] |= kBridgeEndpoint | kRenumDone;
      ctx.send(uprime, Message::make(tag(kBuildPartner), {w}));
      // C_j's renumber flood goes out next round (this round's edge to u′
      // carries kBuildPartner).
      pending_kind_[x] = 2;
      pending_round_[x] = ctx.round();
      pending_a_[x] = t;
      pending_b_[x] = q_u;
      pending_c_[x] = side_succ ? 1 : 0;
      pending_d_[x] = s_i;
      ctx.wake_in(1);
      break;
    }
    case kBuildPartner: {
      if ((mflags_[x] & (kAlive | kBridgeEndpoint)) != kAlive) break;
      const auto w = static_cast<NodeId>(msg.data[0]);
      // u′'s successor becomes succ(v) (= w); its predecessor is the
      // remaining old neighbor (the cut edge (u, u′) disappears).
      const NodeId other = (pred_[x] == msg.from) ? succ_[x] : pred_[x];
      pred_[x] = other;
      succ_[x] = w;
      mflags_[x] |= kBridgeEndpoint;
      break;
    }
    case kBuildCut: {
      if ((mflags_[x] & kAlive) == 0) break;
      const auto uprime = static_cast<NodeId>(msg.data[0]);
      // succ(v)'s predecessor becomes u′ (the edge (v, succ v) is cut).
      if (pred_[x] == msg.from) {
        pred_[x] = uprime;
      } else if (succ_[x] == msg.from) {
        succ_[x] = uprime;
      }
      break;
    }
    case kRenumI: {
      if ((mflags_[x] & kRenumDone) != 0) break;
      mflags_[x] |= kRenumDone;
      flood_color(ctx, msg, msg.from);
      apply_renum_i(ctx, static_cast<std::uint32_t>(msg.data[0]),
                    static_cast<std::uint32_t>(msg.data[1]));
      break;
    }
    case kRenumJ: {
      if ((mflags_[x] & kRenumDone) != 0) break;
      mflags_[x] |= kRenumDone;
      flood_color(ctx, msg, msg.from);
      apply_renum_j(ctx, static_cast<std::uint32_t>(msg.data[0]),
                    static_cast<std::uint32_t>(msg.data[1]), msg.data[2] != 0,
                    static_cast<std::uint32_t>(msg.data[3]));
      break;
    }
    default:
      break;
  }
}

graph::CycleIncidence MergeEngine::incidence() const {
  graph::CycleIncidence inc;
  inc.neighbors_of.resize(n_);
  for (NodeId v = 0; v < n_; ++v) inc.neighbors_of[v] = {pred_[v], succ_[v]};
  return inc;
}

// ---------------------------------------------------------------------------
// Phase 1 (shared with DHC1)
// ---------------------------------------------------------------------------

void Phase1::step(Context& ctx) {
  if (stage_ == Stage::kGlobalSetup) {
    global_setup_->step(ctx);
  } else if (stage_ == Stage::kPartitionSetup) {
    partition_setup_->step(ctx);
  } else if (stage_ == Stage::kDra) {
    dra_->step(ctx);
  }
}

bool Phase1::on_quiescence(Network& net) {
  switch (stage_) {
    case Stage::kInit:
      global_setup_.emplace(n_, /*base_tag=*/1);
      net.mark_phase("global_setup");
      stage_ = Stage::kGlobalSetup;
      global_setup_->advance(net);
      return true;
    case Stage::kGlobalSetup:
      global_setup_->advance(net);
      if (global_setup_->done()) {
        // The global BFS tree prices the phase barriers (termination
        // detection = convergecast + broadcast over it).
        net.set_barrier_cost(2ULL * global_setup_->tree_depth(0) + 2);
        partition_setup_.emplace(n_, /*base_tag=*/8, colors_);
        net.mark_phase("partition_setup");
        stage_ = Stage::kPartitionSetup;
        partition_setup_->advance(net);
      }
      return true;
    case Stage::kPartitionSetup:
      partition_setup_->advance(net);
      if (partition_setup_->done()) {
        dra_.emplace(n_, /*base_tag=*/16, &*partition_setup_, dra_params_);
        net.mark_phase("dra");
        stage_ = Stage::kDra;
        dra_->start(net);
      }
      return true;
    case Stage::kDra:
      if (!dra_->all_succeeded()) {
        failure_ = "Phase 1 failed: " + std::to_string(dra_->aborted_groups()) +
                   " partition(s) aborted";
      }
      stage_ = Stage::kDone;
      return false;
    case Stage::kDone:
      return false;
  }
  return false;
}

// ---------------------------------------------------------------------------
// DHC2 protocol
// ---------------------------------------------------------------------------

namespace {

class Dhc2Protocol : public congest::Protocol {
 public:
  Dhc2Protocol(NodeId n, std::uint32_t num_colors, const Dhc2Config& cfg)
      : n_(n), num_colors_(num_colors), merge_strategy_(cfg.merge_strategy),
        phase1_(n, num_colors, cfg.dra) {}

  void begin(Context& ctx) override { phase1_.begin(ctx); }

  void step(Context& ctx) override {
    if (stage_ == Stage::kPhase1) {
      phase1_.step(ctx);
    } else if (stage_ != Stage::kDone) {
      merge_->step(ctx);
    }
  }

  bool on_quiescence(Network& net) override {
    switch (stage_) {
      case Stage::kPhase1:
        if (phase1_.on_quiescence(net)) return true;
        // δ = 1: the single partition's cycle is the answer.
        if (!phase1_.failure().empty() || num_colors_ == 1) {
          stage_ = Stage::kDone;
          return false;
        }
        merge_.emplace(n_, /*base_tag=*/32, &*phase1_.partition_setup(), &*phase1_.dra(),
                       num_colors_, merge_strategy_);
        net.mark_phase("merge");
        stage_ = Stage::kMergeDiscovery;
        merge_->start_level(net);
        return true;
      case Stage::kMergeDiscovery:
        stage_ = Stage::kMergeBuild;
        merge_->start_build(net);
        return true;
      case Stage::kMergeBuild:
        if (merge_->levels_remaining()) {
          stage_ = Stage::kMergeDiscovery;
          merge_->start_level(net);
          return true;
        }
        stage_ = Stage::kDone;
        return false;
      case Stage::kDone:
        return false;
    }
    return false;
  }

  enum class Stage { kPhase1, kMergeDiscovery, kMergeBuild, kDone };

  NodeId n_;
  std::uint32_t num_colors_;
  MergeStrategy merge_strategy_;
  Stage stage_ = Stage::kPhase1;
  Phase1 phase1_;
  std::optional<MergeEngine> merge_;
};

}  // namespace

Result run_dhc2(const graph::Graph& g, std::uint64_t seed, const Dhc2Config& cfg) {
  Result result;
  const NodeId n = g.n();
  if (n < 3) {
    result.failure_reason = "graph has fewer than 3 nodes";
    return result;
  }
  DHC_REQUIRE(cfg.delta > 0.0 && cfg.delta <= 1.0, "delta must lie in (0, 1]");

  // K ≈ n^{1−δ} partitions of expected size n^δ (paper §II-B).
  std::uint32_t num_colors = cfg.num_colors_override;
  if (num_colors == 0) {
    num_colors = static_cast<std::uint32_t>(
        std::llround(std::pow(static_cast<double>(n), 1.0 - cfg.delta)));
    num_colors = std::max<std::uint32_t>(num_colors, 1);
  }

  congest::Network net(g, congest::network_config(cfg, seed));
  Dhc2Protocol protocol(n, num_colors, cfg);
  result.metrics = net.run(protocol);

  result.stats["num_colors"] = static_cast<double>(num_colors);
  const auto& dra = protocol.phase1_.dra();
  result.stats["dra_steps"] = dra ? static_cast<double>(dra->max_group_steps()) : 0.0;
  result.stats["aborted_partitions"] = dra ? static_cast<double>(dra->aborted_groups()) : 0.0;
  if (dra) {
    result.stats["starved_aborts"] = static_cast<double>(dra->starved_aborts());
    result.stats["budget_aborts"] = static_cast<double>(dra->budget_aborts());
    result.stats["tiny_aborts"] = static_cast<double>(dra->tiny_aborts());
    result.stats["dra_rotations"] = static_cast<double>(dra->total_rotations());
    result.stats["dra_extensions"] = static_cast<double>(dra->total_extensions());
    result.stats["dra_restarts"] = static_cast<double>(dra->restarts());
  }
  if (protocol.merge_) {
    result.stats["merge_levels"] = static_cast<double>(protocol.merge_->total_levels());
    result.stats["bridges_built"] = static_cast<double>(protocol.merge_->bridges_built());
    result.stats["verify_messages"] = static_cast<double>(protocol.merge_->verify_messages());
    result.stats["candidates_found"] = static_cast<double>(protocol.merge_->candidates_found());
    auto& bridges = result.series["bridges_per_level"];
    for (const auto b : protocol.merge_->bridges_per_level()) {
      bridges.push_back(static_cast<double>(b));
    }
    auto& cands = result.series["candidates_per_level"];
    for (const auto c : protocol.merge_->candidates_per_level()) {
      cands.push_back(static_cast<double>(c));
    }
  }
  if (const auto& global = protocol.phase1_.global_setup()) {
    result.stats["global_tree_depth"] = static_cast<double>(global->tree_depth(0));
  }

  conclude(result, g, protocol.phase1_.failure(), [&] {
    return protocol.merge_ ? protocol.merge_->incidence() : dra->incidence();
  });
  return result;
}

}  // namespace dhc::core
