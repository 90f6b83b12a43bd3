// DHC2 — Distributed Hamiltonian Cycle Algorithm 2 (paper §II-B, Alg. 3).
//
// Works on G(n, p) with p = c·ln n / n^δ for any δ ∈ (0, 1]:
//
//  Phase 1  Every node draws a uniform color in [1..K], K ≈ n^{1−δ}; each
//           color class (expected size n^δ, concentrated by Lemma 7) runs
//           the Distributed Rotation Algorithm in parallel and produces a
//           sub-Hamiltonian-cycle.
//
//  Phase 2  ⌈log₂ K⌉ merge levels (Fig. 3): at each level cycles with
//           consecutive colors (odd c, c+1) merge over a *bridge* — cycle
//           edges (v, succ v) ∈ C_i and (u, u′) ∈ C_j joined by physical
//           edges (v, u) and (succ v, u′).  Discovery: active nodes send
//           verify(succ v) to color-(c+1) neighbors; a passive u asks its
//           cycle neighbors whether they see succ v (Alg. 3 lines 14–16);
//           confirmed bridges flow back to v and the minimum candidate is
//           agreed by improvement-flooding inside C_i.  The winner builds
//           the bridge and both cycles renumber via two floods — every node
//           recomputes its index locally from (t, q_u, side, sizes), the
//           distributed analogue of the paper's "trivial renumbering".
//           Colors halve (color ← ⌈color/2⌉) and the next level begins.
//
// Model notes (see DESIGN.md §2): verify bursts serialize on cycle edges in
// the CONGEST model, which the paper's constant-round-merge accounting
// glosses over.  MergeStrategy::kMinForward checks only each passive node's
// minimum candidate (constant rounds per merge, the cost Theorem 10
// assumes); kFullQueue serializes the full queue (the literal Alg. 3,
// stronger success probability, Θ(p·|C|) rounds at late levels).  EXP-A3
// measures the gap.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "congest/network.h"
#include "congest/setup.h"
#include "core/dra.h"
#include "core/result.h"
#include "support/atomic_stats.h"
#include "support/flat_queue.h"
#include "graph/graph.h"

namespace dhc::core {

enum class MergeStrategy : std::uint8_t { kMinForward, kFullQueue };

struct Dhc2Config : congest::EngineOptions {
  /// Density exponent δ: the graph is expected to have p ≈ c·ln n / n^δ.
  /// Partitions number K ≈ n^{1−δ}.  δ = 1 means a single partition (pure
  /// DRA); δ = 0.5 reproduces DHC1's Phase-1 geometry.
  double delta = 0.5;

  /// Overrides the partition count when nonzero (used by tests/ablations).
  std::uint32_t num_colors_override = 0;

  MergeStrategy merge_strategy = MergeStrategy::kMinForward;
  DraParams dra;
};

/// Phase 1 of DHC1 and DHC2 (paper Algs. 2 and 3): every node draws a
/// uniform color in [0, K); a global BFS tree is built (tags 1..), then one
/// tree per color class (tags 8..), and DRA runs in every class in parallel
/// (tags 16..).  The global tree prices the later phase barriers.  The
/// owning protocol forwards begin, step and on_quiescence here until
/// on_quiescence returns false.
class Phase1 {
 public:
  Phase1(NodeId n, std::uint32_t num_colors, const DraParams& dra)
      : n_(n), num_colors_(num_colors), dra_params_(dra), colors_(n, 0) {}

  /// Paper Alg. 2 line 6: the node draws its color.
  void begin(congest::Context& ctx) {
    colors_[ctx.self()] = static_cast<std::uint32_t>(ctx.rng().below(num_colors_));
  }
  void step(congest::Context& ctx);

  /// Advances to the next stage at a barrier.  True while Phase 1 runs;
  /// false once DRA has finished, whether or not every partition succeeded.
  bool on_quiescence(congest::Network& net);

  /// "Phase 1 failed: …" when DRA aborted a partition, else empty.
  const std::string& failure() const { return failure_; }
  std::uint32_t color(NodeId v) const { return colors_[v]; }
  const std::optional<congest::SetupComponent>& global_setup() const { return global_setup_; }
  const std::optional<congest::SetupComponent>& partition_setup() const {
    return partition_setup_;
  }
  const std::optional<DraComponent>& dra() const { return dra_; }

 private:
  enum class Stage : std::uint8_t { kInit, kGlobalSetup, kPartitionSetup, kDra, kDone };

  NodeId n_;
  std::uint32_t num_colors_;
  DraParams dra_params_;
  std::vector<std::uint32_t> colors_;
  Stage stage_ = Stage::kInit;
  std::string failure_;
  std::optional<congest::SetupComponent> global_setup_;
  std::optional<congest::SetupComponent> partition_setup_;
  std::optional<DraComponent> dra_;
};

/// The Phase-2 merge engine; embedded in the DHC2 protocol and driven
/// through (discovery, build) sub-phase pairs per level.
class MergeEngine {
 public:
  /// `setup` groups must hold color0-1 per node; `dra` must be finished and
  /// fully successful.  Uses message tags base_tag..base_tag+10.
  MergeEngine(NodeId n, std::uint16_t base_tag, const congest::SetupComponent* setup,
              const DraComponent* dra, std::uint32_t num_colors, MergeStrategy strategy);

  std::uint32_t total_levels() const { return total_levels_; }
  std::uint32_t levels_started() const { return levels_started_; }
  bool levels_remaining() const { return levels_started_ < total_levels_; }

  /// Starts the next level's discovery sub-phase (wakes everyone).
  void start_level(congest::Network& net);

  /// Starts the current level's build sub-phase (wakes everyone).
  void start_build(congest::Network& net);

  void step(congest::Context& ctx);

  /// Final per-node incidence after all levels (paper output convention).
  graph::CycleIncidence incidence() const;

  /// True when node 0's cycle spans all n nodes (cheap final sanity check;
  /// callers still run the full verifier).
  bool spanning_cycle_claimed() const { return csize_[0] == n_; }

  std::uint64_t bridges_built() const { return bridges_built_; }
  std::uint64_t candidates_found() const { return candidates_found_; }
  std::uint64_t verify_messages() const { return verify_messages_; }

  /// Per-level breakdown (index 0 = first merge level; Fig. 3 / EXP-L8).
  /// Materialized from the atomic tallies; one entry per started level.
  std::vector<std::uint64_t> bridges_per_level() const {
    return {bridges_per_level_.begin(), bridges_per_level_.begin() + levels_started_};
  }
  std::vector<std::uint64_t> candidates_per_level() const {
    return {candidates_per_level_.begin(), candidates_per_level_.begin() + levels_started_};
  }

 private:
  struct Candidate {
    NodeId u = kNoNode;
    NodeId uprime = kNoNode;
    NodeId v = kNoNode;
    std::uint32_t partner_size = 0;
    bool valid() const { return u != kNoNode; }
    /// Paper Alg. 3 line 11: the minimum candidate wins.
    bool operator<(const Candidate& o) const {
      if (u != o.u) return u < o.u;
      if (uprime != o.uprime) return uprime < o.uprime;
      return v < o.v;
    }
  };

  enum class SubPhase : std::uint8_t { kDiscovery, kBuild };

  std::uint16_t tag(std::uint16_t off) const { return static_cast<std::uint16_t>(base_tag_ + off); }
  // 0 verify, 1 check, 2 checkReply, 3 found, 4 cand, 5 build,
  // 6 buildPartner, 7 buildCut, 8 renumI, 9 renumJ

  std::uint32_t cur_color(NodeId x) const;
  bool flood_same_color(NodeId v, NodeId w) const;
  void flood_color(congest::Context& ctx, const congest::Message& msg,
                   NodeId exclude = congest::kNoNode);
  void ensure_level(congest::Context& ctx);
  void on_discovery_start(congest::Context& ctx);
  void on_build_start(congest::Context& ctx);
  void process_check_queue(congest::Context& ctx);
  void handle_message(congest::Context& ctx, const congest::Message& msg);
  void improve_candidate(congest::Context& ctx, const Candidate& cand);
  void apply_renum_i(congest::Context& ctx, std::uint32_t t, std::uint32_t sj);
  void apply_renum_j(congest::Context& ctx, std::uint32_t t, std::uint32_t qu, bool side_succ,
                     std::uint32_t si);

  NodeId n_;
  std::uint16_t base_tag_;
  const congest::SetupComponent* setup_;
  MergeStrategy strategy_;
  std::uint32_t num_colors_;
  std::uint32_t total_levels_ = 0;
  std::uint32_t levels_started_ = 0;
  SubPhase sub_phase_ = SubPhase::kDiscovery;

  // Per-node booleans plus the 2-bit check-reply count, packed into one
  // byte per node (was seven u8 vectors).  Distinct nodes touch distinct
  // bytes, so parallel shards stepping different nodes never race.
  static constexpr std::uint8_t kAlive = 1u << 0;
  static constexpr std::uint8_t kRenumDone = 1u << 1;
  static constexpr std::uint8_t kBridgeEndpoint = 1u << 2;
  static constexpr std::uint8_t kCheckInFlight = 1u << 3;
  static constexpr std::uint8_t kReplyYesSucc = 1u << 4;
  static constexpr std::uint8_t kReplyYesPred = 1u << 5;
  static constexpr unsigned kReplyCountShift = 6;  // bits 6–7: replies seen (0..2)
  std::vector<std::uint8_t> mflags_;

  // Cycle state (seeded from Phase 1, rewritten by merges).
  std::vector<NodeId> pred_;
  std::vector<NodeId> succ_;
  std::vector<std::uint32_t> cycindex_;
  std::vector<std::uint32_t> csize_;

  // Level-local state.
  std::vector<std::uint32_t> level_seen_;   // (level*2 + subphase) marker
  std::vector<Candidate> best_cand_;
  // Pending (w, v) adjacency checks; FlatQueue keeps FIFO order without
  // the O(queue) erase-from-front of the old inner vectors.
  std::vector<support::FlatQueue<std::pair<NodeId, NodeId>>> check_queue_;
  std::vector<NodeId> cur_w_;
  std::vector<NodeId> cur_v_;
  // Deferred flood emissions: kind 0 = none, 1 = kRenumI, 2 = kRenumJ.
  std::vector<std::uint8_t> pending_kind_;
  std::vector<std::uint64_t> pending_round_;
  std::vector<std::int64_t> pending_a_;
  std::vector<std::int64_t> pending_b_;
  std::vector<std::int64_t> pending_c_;
  std::vector<std::int64_t> pending_d_;

  // Aggregate statistics, bumped from sharded step paths (relaxed atomics;
  // sums are order-free, so results stay shard-invariant).
  support::ShardCounter<std::uint64_t> bridges_built_ = 0;
  support::ShardCounter<std::uint64_t> candidates_found_ = 0;
  support::ShardCounter<std::uint64_t> verify_messages_ = 0;
  std::vector<support::ShardCounter<std::uint64_t>> bridges_per_level_;
  std::vector<support::ShardCounter<std::uint64_t>> candidates_per_level_;
};

/// Runs DHC2 end to end on `g`.  On success the returned cycle is in the
/// per-node incident-edge form; callers should verify it against `g`.
/// Stats include phase rounds, merge levels, bridges, and step counts.
Result run_dhc2(const graph::Graph& g, std::uint64_t seed, const Dhc2Config& cfg = {});

}  // namespace dhc::core
