// Cost accounting for simulated CONGEST executions.
//
// The paper's claims are about rounds, message size, per-node memory, and
// balanced local computation (§I, §I-A).  The simulator measures all of them
// directly; the "fully distributed" property is an experiment (EXP-L1), not
// an assertion.
//
// Per-node accounting is five exact 64-bit vectors (40 B/node): messages
// sent and received, current and peak registered memory, and compute
// charge.  Every golden and differential test pins them.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dhc::congest {

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
  /// arena + async delivery wheel) × sizeof(Message), which is 28 B; an
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

  /// Per-node counts of messages sent (load-balance experiments).
  std::vector<std::uint64_t> node_messages_sent;

  /// Per-node counts of messages received.
  std::vector<std::uint64_t> node_messages_received;

  /// Per-node registered memory, in words, current and peak (charged
  /// explicitly by protocols at allocation sites).
  std::vector<std::int64_t> node_memory_words;
  std::vector<std::int64_t> node_peak_memory_words;

  /// Per-node local computation charge (unit: "operations").
  std::vector<std::uint64_t> node_compute_ops;

  /// Named phase boundaries: (phase label, first round of the phase).
  std::vector<std::pair<std::string, std::uint64_t>> phase_marks;

  /// rounds + barriers charged at barrier_cost_rounds each.
  std::uint64_t accounted_rounds() const { return rounds + barrier_count * barrier_cost_rounds; }

  /// Protocol-level sends only: `messages` minus the transport traffic the
  /// reliability overlay added.  The apples-to-apples message-complexity
  /// number for paired comparisons across reliability modes.
  std::uint64_t payload_messages() const { return messages - retransmits - acks_sent; }

  /// Maximum over nodes of messages sent (congestion/load balance).  The
  /// three max_node_* helpers return 0 when their vector is empty (runs
  /// that never touched the engine, such as oracle trials).
  std::uint64_t max_node_messages_sent() const;

  /// Maximum over nodes of peak registered memory.
  std::int64_t max_node_peak_memory() const;

  /// Maximum over nodes of compute charge.
  std::uint64_t max_node_compute() const;

  /// Total rounds spent under the label, summed over *every* span carrying
  /// it (protocols re-enter phases — DHC2 marks "merge" once per level; a
  /// span ends at the next mark, the last one at rounds + 1).
  std::uint64_t phase_rounds(const std::string& label) const;

  /// Field-for-field equality (shard-invariance checks).
  friend bool operator==(const Metrics&, const Metrics&) = default;
};

}  // namespace dhc::congest
