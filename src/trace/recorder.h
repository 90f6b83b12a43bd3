// The flight recorder: accumulates one run's trace events and writes them
// as NDJSON (newline-delimited JSON, one record per line — streamable,
// grep-able, diff-able).
//
// Schema v4 (DESIGN.md §7), the only schema the reader accepts; traces are
// regenerated, not archived.  Line types, in file order:
//
//   meta     run identity: algo/model/family/n/m/seeds/…, and (shard-profile
//            field) the shard count
//   phase    a phase mark: {"type":"phase","label":L,"from":R}
//   round    one executed round: r, phase label, active, sent, bits, wake,
//            wall_ns, and on sharded rounds the per-shard profile arrays
//   fault    per-round fault-injection deltas (async runs, rounds where
//            something was delayed/dropped/crashed only)
//   retrans  per-round reliable-overlay deltas (reliability=ack runs, rounds
//            with retransmit/duplicate/ack activity only)
//   rejoin   the round crashed nodes silently rejoined, with their count
//            (async runs with a crash window only)
//   barrier  a quiescence barrier: round it fired after + round charge
//   kround   one k-machine-priced CONGEST round (k-machine runs only)
//   span     per-phase rollup computed at finalize: [from,to) rounds,
//            stepped rounds, messages, bits, barriers, wall_ns
//   summary  the run's Metrics totals (+ kmachine_rounds when priced)
//   outcome  success flag and failure reason
//
// Determinism: every field is a pure function of (graph, seed, protocol)
// except the wall-clock fields, whose names all contain "wall"; and every
// counter is shard-invariant, the only shard-dependent fields being the
// explicit shard-profile ones (meta "shards", round "sharded"/"shard_*").
// TraceWriteOptions can zero the former and omit the latter, which is how
// the golden-schema and shard-invariance tests compare traces bytewise.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "congest/metrics.h"
#include "congest/trace_sink.h"

namespace dhc::trace {

/// Run identity stamped on the meta line.
struct TraceMeta {
  std::string algo;
  std::string model = "congest";
  std::string family;
  std::string merge;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  double delta = 0.0;
  double c = 0.0;
  std::uint64_t graph_seed = 0;
  std::uint64_t algo_seed = 0;
  std::uint32_t machines = 0;
  std::uint64_t bandwidth = 0;
  std::uint32_t shards = 1;            ///< shard-profile field
  std::uint64_t config_index = 0;
  std::uint64_t trial_index = 0;
};

struct RoundRecord {
  std::uint64_t round = 0;
  std::uint32_t phase = kNoPhase;  ///< index into phase labels, or kNoPhase
  std::uint64_t active = 0;
  std::uint64_t sent = 0;
  std::uint64_t bits = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t wall_ns = 0;  // wall field
  bool sharded = false;       // shard-profile field
  std::vector<std::uint64_t> shard_wall_ns;  // wall + shard-profile
  std::vector<std::uint32_t> shard_active;   // shard-profile

  static constexpr std::uint32_t kNoPhase = 0xffffffffu;
};

struct PhaseMark {
  std::string label;
  std::uint64_t from_round = 0;
};

struct BarrierRecord {
  std::uint64_t round = 0;
  std::uint64_t charge = 0;
};

struct KRoundRecord {
  std::uint64_t congest_round = 0;
  std::uint64_t busiest = 0;
  std::uint64_t charge = 0;
};

/// Per-round fault-injection deltas (async runs; emitted only for rounds
/// where at least one counter is nonzero).  Mirrors congest::FaultTrace.
struct FaultRecord {
  std::uint64_t round = 0;
  std::uint64_t delayed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t crash_dropped = 0;
  std::uint64_t crashed_steps = 0;
};

/// Per-round reliable-overlay deltas (reliability=ack runs; emitted only for
/// rounds with overlay activity).  Mirrors congest::RetransTrace.
struct RetransRecord {
  std::uint64_t round = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t acks_sent = 0;
};

/// The round crashed nodes silently rejoined with stale state (async runs
/// with a crash window; at most one per run).
struct RejoinRecord {
  std::uint64_t round = 0;
  std::uint64_t nodes = 0;
};

/// Per-phase rollup over one span [from, to): computed by finalize().  Spans
/// partition [first round, rounds + 1); rounds executed before the first
/// phase mark get a synthetic "(untagged)" span so Σ span counters always
/// equal the run totals.
struct PhaseSpan {
  std::string label;
  std::uint64_t from_round = 0;
  std::uint64_t to_round = 0;  ///< exclusive; last span ends at rounds + 1
  std::uint64_t rounds = 0;    ///< to - from (idle gap rounds included)
  std::uint64_t stepped = 0;   ///< rounds that actually executed steps
  std::uint64_t sent = 0;
  std::uint64_t bits = 0;
  std::uint64_t barriers = 0;
  std::uint64_t wall_ns = 0;   // wall field: sum of contained round walls
};

struct TraceWriteOptions {
  /// false → every wall field is written as 0 (byte-stable across runs).
  bool walls = true;
  /// false → shard-profile fields are omitted entirely (byte-stable across
  /// shard counts).
  bool shard_profile = true;
};

class TraceRecorder final : public congest::TraceSink {
 public:
  void set_meta(TraceMeta meta) { meta_ = std::move(meta); }
  const TraceMeta& meta() const { return meta_; }

  // --- TraceSink ---
  void on_phase(const std::string& label, std::uint64_t first_round) override;
  void on_round(const congest::RoundTrace& t) override;
  void on_barrier(std::uint64_t round, std::uint64_t charge_rounds) override;
  void on_kround(std::uint64_t congest_round, std::uint64_t busiest_link,
                 std::uint64_t charge) override;
  void on_faults(const congest::FaultTrace& t) override;
  void on_retrans(const congest::RetransTrace& t) override;
  void on_rejoin(std::uint64_t round, std::uint64_t nodes) override;

  /// Computes the per-phase spans and captures the run totals.  Call once,
  /// after the run; write_ndjson() requires it.
  void finalize(const congest::Metrics& metrics);

  void set_outcome(bool success, std::string failure_reason);

  /// Writes the full NDJSON stream.  Requires finalize().
  void write_ndjson(std::ostream& os, const TraceWriteOptions& opt = {}) const;

  // --- accessors for tests and in-process consumers ---
  const std::vector<PhaseMark>& phases() const { return phases_; }
  const std::vector<RoundRecord>& rounds() const { return rounds_; }
  const std::vector<BarrierRecord>& barriers() const { return barriers_; }
  const std::vector<KRoundRecord>& krounds() const { return krounds_; }
  const std::vector<FaultRecord>& faults() const { return faults_; }
  const std::vector<RetransRecord>& retrans() const { return retrans_; }
  const std::vector<RejoinRecord>& rejoins() const { return rejoins_; }
  const std::vector<PhaseSpan>& spans() const { return spans_; }
  std::uint64_t kmachine_rounds_total() const { return kround_charge_total_; }
  const congest::Metrics& metrics() const { return metrics_; }

 private:
  TraceMeta meta_;
  std::vector<PhaseMark> phases_;
  std::vector<RoundRecord> rounds_;
  std::vector<BarrierRecord> barriers_;
  std::vector<KRoundRecord> krounds_;
  std::vector<FaultRecord> faults_;
  std::vector<RetransRecord> retrans_;
  std::vector<RejoinRecord> rejoins_;
  std::vector<PhaseSpan> spans_;
  std::uint64_t kround_charge_total_ = 0;
  congest::Metrics metrics_;  // node vectors cleared at finalize (totals only)
  std::uint64_t max_node_sent_ = 0;  // taken at finalize, before the clear
  std::int64_t max_node_peak_memory_ = 0;
  std::uint64_t max_node_compute_ = 0;
  bool finalized_ = false;
  bool success_ = false;
  std::string failure_reason_;
};

}  // namespace dhc::trace
