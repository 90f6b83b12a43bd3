// DRA — the Distributed Rotation Algorithm (paper Algorithm 1).
//
// A single head per partition grows a Hamiltonian path: it draws a random
// unused incident edge and sends progress(pos) along it.  A fresh receiver
// joins the path and becomes the head; a receiver already on the path
// triggers a *rotation* — it broadcasts rotation(h, j, head) through its
// partition and every node renumbers its path index locally (Fig. 2):
//
//   i ← h + j + 1 − i   for j < i ≤ h,  swapping path pred/succ.
//
// The node whose new index is h becomes the head; it waits 2·depth+2 rounds
// (the broadcast settle time — all nodes know their partition tree depth
// from setup) before acting, so indices are never read stale.  The cycle
// closes when the head at pos = |partition| draws the edge to the node with
// index 1 (the leader).  A starved head (empty unused list, event E2) or an
// exhausted step budget (event E1) aborts the partition — failure is
// reported, never hung.
//
// DraComponent runs *all* partitions concurrently (they are disjoint color
// classes, so their messages never share an edge).  It is embedded by the
// DHC1/DHC2 protocols for Phase 1 and wrapped by run_dra() for standalone
// use (one partition spanning the whole graph).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "congest/network.h"
#include "congest/setup.h"
#include "core/result.h"
#include "graph/graph.h"
#include "support/atomic_stats.h"

namespace dhc::core {

using congest::kNoNode;
using graph::NodeId;

/// How rotation/success/abort broadcasts traverse a partition:
/// kTree — along the partition's BFS tree (O(partition) messages/broadcast),
/// kFlood — flooding every same-partition edge, the paper's literal wording
/// (O(partition edges) messages/broadcast).  Same Θ(depth) round cost;
/// EXP-A1 measures the difference.
enum class BroadcastMode : std::uint8_t { kTree, kFlood };

/// The rotation parameters proper — all DraComponent reads.  DHC1/DHC2
/// embed these for their Phase 1; standalone runs add the engine options.
struct DraParams {
  BroadcastMode broadcast = BroadcastMode::kTree;
  /// Abort an attempt after multiplier·s·ln s steps (Theorem 2 proves
  /// 7·s·ln s suffices whp for c ≥ 86; the default leaves slack for small c).
  double step_multiplier = 16.0;
  /// Independent retries per partition before giving up.  At the proof
  /// constants (c ≥ 86) a single attempt succeeds whp; at the practical
  /// densities the experiments explore, per-attempt starvation (event E2)
  /// has small constant probability, and restarting with fresh randomness
  /// drives partition failure to (small)^attempts — the "extend to failure
  /// probability O(1/n^α)" knob of Theorem 2, realized as restarts.
  std::uint32_t max_attempts = 8;
};

struct DraConfig : DraParams, congest::EngineOptions {};

/// Per-partition rotation engine, embedded in an enclosing Protocol.
/// Requires a finished SetupComponent (leaders, trees, sizes, depths).
class DraComponent {
 public:
  /// Uses message tags base_tag..base_tag+3.
  DraComponent(NodeId n, std::uint16_t base_tag, const congest::SetupComponent* setup,
               DraParams cfg);

  /// Uses message tags base_tag..base_tag+4.
  /// Wakes every partition leader; call once, after setup is done.
  void start(congest::Network& net);

  /// Handles this component's messages and head duties; call from the
  /// enclosing Protocol::step while the component is running.
  void step(congest::Context& ctx);

  /// True when every node's partition has finished (success or abort).
  bool all_done() const { return done_count_ == n_; }

  /// True when all partitions succeeded.
  bool all_succeeded() const { return all_done() && aborted_groups_ == 0; }

  bool node_done(NodeId v) const { return (flags_[v] & kDone) != 0; }
  bool node_succeeded(NodeId v) const { return (flags_[v] & kSuccess) != 0; }

  /// Path/cycle state (valid for nodes of succeeded partitions).
  std::uint32_t cycle_index(NodeId v) const { return cycindex_[v]; }
  NodeId path_pred(NodeId v) const { return pred_[v]; }
  NodeId path_succ(NodeId v) const { return succ_[v]; }

  /// Event counters for the experiment harness.
  std::uint64_t total_extensions() const { return extensions_; }
  std::uint64_t total_rotations() const { return rotations_; }
  std::uint64_t max_group_steps() const { return max_group_steps_; }
  std::uint32_t aborted_groups() const { return aborted_groups_; }
  std::uint32_t succeeded_groups() const { return succeeded_groups_; }
  std::uint32_t starved_aborts() const { return starved_aborts_; }    // event E2
  std::uint32_t budget_aborts() const { return budget_aborts_; }      // event E1
  std::uint32_t tiny_aborts() const { return tiny_aborts_; }          // |partition| < 3
  std::uint32_t restarts() const { return restarts_; }

  /// The per-node incidence (paper output convention) over all partitions:
  /// neighbors_of[v] = {pred, succ}.  Only meaningful where partitions
  /// succeeded; failed partitions leave kNoNode entries.
  graph::CycleIncidence incidence() const;

 private:
  std::uint16_t tag_progress() const { return base_tag_; }
  std::uint16_t tag_rotation() const { return static_cast<std::uint16_t>(base_tag_ + 1); }
  std::uint16_t tag_success() const { return static_cast<std::uint16_t>(base_tag_ + 2); }
  std::uint16_t tag_abort() const { return static_cast<std::uint16_t>(base_tag_ + 3); }
  std::uint16_t tag_restart() const { return static_cast<std::uint16_t>(base_tag_ + 4); }

  /// Node `v`'s live slice of the unused-edge slab (first unused_len_[v]
  /// entries of its CSR row).
  std::span<NodeId> unused_list(NodeId v) {
    return {unused_slab_.data() + slab_base_[v], unused_len_[v]};
  }
  /// Refills `v`'s slice with its same-partition neighbors; returns the new
  /// length.  Slices are disjoint per node, so parallel shards never alias.
  std::uint32_t refill_unused(congest::Context& ctx);

  void ensure_init(congest::Context& ctx);
  void act_as_head(congest::Context& ctx);
  void abort_or_restart(congest::Context& ctx);
  void abort_group(congest::Context& ctx);
  void reset_for_attempt(congest::Context& ctx);
  void broadcast(congest::Context& ctx, const congest::Message& msg, NodeId exclude);
  void on_progress(congest::Context& ctx, const congest::Message& msg);
  void apply_rotation(congest::Context& ctx, const congest::Message& msg);
  void finish_node(congest::Context& ctx, bool succeeded);
  std::uint64_t settle_delay(NodeId v) const;
  std::uint64_t step_budget(NodeId v) const;
  void remove_unused(NodeId v, NodeId w);

  NodeId n_;
  std::uint16_t base_tag_;
  const congest::SetupComponent* setup_;
  DraParams cfg_;

  // Per-node booleans, bit-packed into one byte per node (was four u8
  // vectors).  Distinct nodes touch distinct bytes, so parallel shards
  // stepping different nodes never race.
  static constexpr std::uint8_t kInited = 1;
  static constexpr std::uint8_t kIsHead = 2;
  static constexpr std::uint8_t kDone = 4;
  static constexpr std::uint8_t kSuccess = 8;
  std::vector<std::uint8_t> flags_;

  // The per-node unused-edge lists (Alg. 1 line 3), flattened: one slab
  // sized in start(), sliced by exact same-partition degree prefix sums.
  // Replaces n per-node std::vectors (24 B header + a heap block each) with
  // 4 B/entry + 8 B/node of offsets.
  std::vector<NodeId> unused_slab_;
  std::vector<std::uint32_t> slab_base_;  // n_+1 prefix sums into unused_slab_
  std::vector<std::uint32_t> unused_len_;

  std::vector<std::uint32_t> cycindex_;
  std::vector<NodeId> pred_;
  std::vector<NodeId> succ_;
  std::vector<NodeId> pending_target_;
  std::vector<std::uint64_t> my_steps_;
  std::vector<std::uint64_t> last_seq_;
  std::vector<std::uint32_t> attempt_;
  std::vector<std::uint64_t> attempt_start_steps_;

  // Aggregate statistics, bumped from step paths where several partitions
  // may be running in parallel shards — hence ShardCounter (relaxed atomic;
  // sums and maxima are order-free, so results stay shard-invariant).
  support::ShardCounter<std::uint32_t> done_count_ = 0;
  support::ShardCounter<std::uint64_t> extensions_ = 0;
  support::ShardCounter<std::uint64_t> rotations_ = 0;
  support::ShardCounter<std::uint64_t> max_group_steps_ = 0;
  support::ShardCounter<std::uint32_t> aborted_groups_ = 0;
  support::ShardCounter<std::uint32_t> succeeded_groups_ = 0;
  support::ShardCounter<std::uint32_t> starved_aborts_ = 0;
  support::ShardCounter<std::uint32_t> budget_aborts_ = 0;
  support::ShardCounter<std::uint32_t> tiny_aborts_ = 0;
  support::ShardCounter<std::uint32_t> restarts_ = 0;
};

/// Runs DRA standalone with the whole graph as a single partition (the
/// regime of Theorem 2: succeeds whp when p ≥ c·ln n / n, c large enough).
/// `seed` drives all randomness; the returned cycle (on success) is in the
/// paper's per-node form and should be checked with verify_cycle_incidence.
Result run_dra(const graph::Graph& g, std::uint64_t seed, const DraConfig& cfg = {});

}  // namespace dhc::core
