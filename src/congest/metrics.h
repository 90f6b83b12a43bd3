// Cost accounting for simulated CONGEST executions.
//
// The paper's claims are about rounds, message size, per-node memory, and
// balanced local computation (§I, §I-A).  The simulator measures all of them
// directly; the "fully distributed" property is an experiment (EXP-L1), not
// an assertion.
//
// Per-node accounting has two modes (NodeStatsMode).  kFull keeps the five
// classic 64-bit per-node vectors (40 B/node) — the mode every golden and
// differential test pins.  kStreaming keeps compact 32-bit accumulators
// (16 B/node), skips the received-messages vector entirely (one fewer
// receiver-side cache-line touch per delivered message), and reports the
// per-node distributions as streaming summaries (count/sum/max +
// p50/p95/p99 through a support::QuantileSketch) — the million-node mode.
// Both modes leave the headline counters (rounds, messages, bits, barriers,
// phase marks) bitwise identical.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dhc::congest {

/// How much per-node accounting a run keeps (see file comment).
enum class NodeStatsMode : std::uint8_t { kFull, kStreaming };

/// Streaming digest of one per-node distribution (messages sent, peak
/// memory, compute ops), computed by Metrics::finalize_node_stats().  Exact
/// in kFull mode; in kStreaming the quantiles come from a fixed-size
/// QuantileSketch and carry its relative error bound (DESIGN.md §7).
struct NodeStatSummary {
  std::uint64_t count = 0;  ///< Nodes contributing (0 = not tracked).
  double sum = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  friend bool operator==(const NodeStatSummary&, const NodeStatSummary&) = default;
};

/// Per-run cost measurements, populated by Network::run.
struct Metrics {
  /// Synchronous rounds executed (message rounds only; see barrier_count).
  std::uint64_t rounds = 0;

  /// Total messages delivered.
  std::uint64_t messages = 0;

  /// Total payload bits delivered (see message_bits()).
  std::uint64_t bits = 0;

  /// Number of global phase barriers the protocol used.  Each barrier models
  /// a termination-detection convergecast + broadcast over a global BFS tree
  /// and would cost O(D) rounds in a real deployment; report
  /// rounds + barrier_count·barrier_cost_rounds for the conservative total.
  std::uint64_t barrier_count = 0;

  /// Round cost charged per barrier (2·BFS-tree depth once known; protocols
  /// set it after building their tree, default small constant).
  std::uint64_t barrier_cost_rounds = 4;

  /// True when the run stopped because it hit the round limit.
  bool hit_round_limit = false;

  /// High-water mark of the simulator's message arenas, in bytes: the
  /// per-round maximum of logical messages in flight (shard logs + inbox
  /// arena + async delay wheel/far map) × sizeof(Message), which is 28 B; an
  /// async frame's 8-byte overlay header is not counted.  Counts logical
  /// occupancy, never vector capacities, so it is bitwise identical across
  /// shard counts.
  std::uint64_t arena_bytes_peak = 0;

  /// Async-model fault accounting (all zero on synchronous runs).  Note the
  /// async `messages` counter counts *sends*; dropped/crash-dropped messages
  /// are sent but never arrive.
  std::uint64_t delayed_messages = 0;        ///< delivered with latency > 1
  std::uint64_t dropped_messages = 0;        ///< lost in transit (drop_prob)
  std::uint64_t crash_dropped_messages = 0;  ///< arrived at a crashed node
  std::uint64_t crashed_steps = 0;           ///< activations lost to crashes

  /// Reliable-delivery overlay accounting (reliability=ack runs; all zero
  /// otherwise).  Retransmits and standalone acks count in `messages`/`bits`
  /// (acks at header cost) but not in the per-node send vectors, which keep
  /// counting protocol sends only so load-balance stats stay comparable
  /// across reliability modes.
  std::uint64_t retransmits = 0;     ///< payload copies re-sent by the overlay
  std::uint64_t dup_suppressed = 0;  ///< arrivals discarded as duplicates
  std::uint64_t acks_sent = 0;       ///< standalone ack messages
  std::uint64_t crashed_rejoins = 0; ///< nodes back (with stale state) after their crash window

  /// Valid when hit_round_limit: true if traffic was still moving at the
  /// break (sends in flight or retransmit/ack timers armed — e.g. turau's
  /// delay livelock), false if the run was quiescent apart from wake-up
  /// polling (the PR 7 drop-stall signature).
  bool round_limit_live = false;

  /// Which per-node accounting mode populated this run (set by the Network
  /// from its config; determines which vectors below are non-empty).
  NodeStatsMode node_stats_mode = NodeStatsMode::kFull;

  /// Per-node counts of messages sent (load-balance experiments).
  /// kFull mode only.
  std::vector<std::uint64_t> node_messages_sent;

  /// Per-node counts of messages received.  kFull mode only.
  std::vector<std::uint64_t> node_messages_received;

  /// Per-node registered memory, in words, current and peak (charged
  /// explicitly by protocols at allocation sites).  kFull mode only.
  std::vector<std::int64_t> node_memory_words;
  std::vector<std::int64_t> node_peak_memory_words;

  /// Per-node local computation charge (unit: "operations").  kFull only.
  std::vector<std::uint64_t> node_compute_ops;

  /// kStreaming-mode compact accumulators (16 B/node vs kFull's 40; the
  /// received distribution is intentionally not tracked).  Sent counts and
  /// compute charges saturate at 2^32−1 per node — a bound no realistic run
  /// approaches, since it would imply > 4·10^9 total messages.
  std::vector<std::uint32_t> node_sent32;
  std::vector<std::int32_t> node_mem_cur32;
  std::vector<std::int32_t> node_mem_peak32;
  std::vector<std::uint32_t> node_compute32;

  /// Per-node distribution digests, filled by finalize_node_stats() at the
  /// end of Network::run.  received_summary has count 0 in kStreaming mode.
  NodeStatSummary sent_summary;
  NodeStatSummary received_summary;
  NodeStatSummary peak_memory_summary;
  NodeStatSummary compute_summary;

  /// Named phase boundaries: (phase label, first round of the phase).
  std::vector<std::pair<std::string, std::uint64_t>> phase_marks;

  /// rounds + barriers charged at barrier_cost_rounds each.
  std::uint64_t accounted_rounds() const { return rounds + barrier_count * barrier_cost_rounds; }

  /// Protocol-level sends only: `messages` minus the transport traffic the
  /// reliability overlay added.  The apples-to-apples message-complexity
  /// number for paired comparisons across reliability modes.
  std::uint64_t payload_messages() const { return messages - retransmits - acks_sent; }

  /// Maximum over nodes of messages sent (congestion/load balance).  Reads
  /// whichever representation the mode kept (vector, compact vector, or the
  /// finalized summary when both are empty).
  std::uint64_t max_node_messages_sent() const;

  /// Maximum over nodes of peak registered memory.
  std::int64_t max_node_peak_memory() const;

  /// Maximum over nodes of compute charge.
  std::uint64_t max_node_compute() const;

  /// Computes the four NodeStatSummary digests from the mode's vectors:
  /// exact (sorted nearest-rank) in kFull, sketch-backed in kStreaming.
  /// Called by Network::run; idempotent.
  void finalize_node_stats();

  /// Total rounds spent under the label, summed over *every* span carrying
  /// it (protocols re-enter phases — DHC2 marks "merge" once per level; a
  /// span ends at the next mark, the last one at rounds + 1).
  std::uint64_t phase_rounds(const std::string& label) const;

  /// Field-for-field equality (shard-invariance checks).
  friend bool operator==(const Metrics&, const Metrics&) = default;
};

std::string to_string(NodeStatsMode mode);

/// Parses full | streaming; throws std::invalid_argument otherwise.
NodeStatsMode parse_node_stats_mode(const std::string& s);

}  // namespace dhc::congest
