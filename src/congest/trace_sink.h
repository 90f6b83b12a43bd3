// Flight-recorder tap on a CONGEST execution.
//
// TraceSink is to per-round observability what MessageObserver is to
// per-message pricing: an abstract interface the simulator (and the
// k-machine pricing observer) feed, so congest/ never depends on how traces
// are stored or serialized.  The concrete recorder — NDJSON schema, phase
// spans, Chrome export — lives in src/trace/.
//
// Determinism contract: every field the simulator reports here is a pure
// function of (graph, seed, protocol) EXCEPT the wall-clock fields
// (RoundTrace::wall_ns, shard_wall_ns), and every counter is additionally
// shard-invariant (the round engine reproduces the one-shard execution
// bitwise; the only shard-dependent fields are the explicitly
// shard-profiling ones: `sharded`, `shard_active`, `shard_wall_ns`).
// Writers isolate those two field classes so traces can be compared bitwise
// across repeated runs and across shard counts (trace/recorder.h).
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace dhc::congest {

/// One simulated round, as reported to a TraceSink after the round stepped.
struct RoundTrace {
  std::uint64_t round = 0;    ///< Round index (1-based, matches Metrics).
  std::uint64_t active = 0;   ///< Nodes stepped this round.
  std::uint64_t sent = 0;     ///< Messages sent by this round's steps.
  std::uint64_t bits = 0;     ///< Payload bits of those messages.
  std::uint64_t wakeups = 0;  ///< Wake-ups armed by this round's steps.
  /// Wall-clock of delivery + stepping, nanoseconds.  The only
  /// nondeterministic fields of the record are this and shard_wall_ns.
  std::uint64_t wall_ns = 0;
  /// True when the round ran on the shard engine (shard-profiling field).
  bool sharded = false;
  /// Per-shard step wall-time / active-node counts; empty unless `sharded`.
  /// Views into simulator-owned storage, valid only during the callback.
  std::span<const std::uint64_t> shard_wall_ns;
  std::span<const std::uint32_t> shard_active;
};

/// Fault activity of one async-model round (only rounds with activity are
/// reported).  The delivery-side counters (crash_dropped) refer to messages
/// maturing at `round`; the send-side ones (delayed/dropped) to messages
/// sent by this round's steps.
struct FaultTrace {
  std::uint64_t round = 0;
  std::uint64_t delayed = 0;        ///< sends assigned latency > 1
  std::uint64_t dropped = 0;        ///< sends lost in transit
  std::uint64_t crash_dropped = 0;  ///< matured messages dropped at a crashed node
  std::uint64_t crashed_steps = 0;  ///< activations suppressed by crashes
};

/// Reliable-overlay activity of one async round (reliability=ack only, and
/// only rounds with activity): retransmit copies and standalone acks sent by
/// this round's timer service, duplicates suppressed among this round's
/// matured arrivals.
struct RetransTrace {
  std::uint64_t round = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t acks_sent = 0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// A phase mark: rounds from `first_round` until the next mark belong to
  /// `label` (mirrors Metrics::phase_marks).
  virtual void on_phase(const std::string& label, std::uint64_t first_round) = 0;

  /// Called once per executed round, after its steps ran.
  virtual void on_round(const RoundTrace& t) = 0;

  /// A quiescence barrier after `round`, charged `charge_rounds` rounds.
  virtual void on_barrier(std::uint64_t round, std::uint64_t charge_rounds) = 0;

  /// A completed k-machine-priced CONGEST round: its busiest link load and
  /// the ⌈busiest/bandwidth⌉ charge (fed by kmachine::KMachineCost, not the
  /// simulator; default no-op so CONGEST-only sinks need not care).
  virtual void on_kround(std::uint64_t congest_round, std::uint64_t busiest_link,
                         std::uint64_t charge) {
    (void)congest_round;
    (void)busiest_link;
    (void)charge;
  }

  /// One async-model round's fault activity (fed by the simulator only under
  /// `--model=async`, and only for rounds where something was delayed,
  /// dropped, or crashed; default no-op so synchronous sinks need not care).
  virtual void on_faults(const FaultTrace& t) { (void)t; }

  /// One async round's reliable-overlay activity (reliability=ack runs only,
  /// rounds with activity only; default no-op).
  virtual void on_retrans(const RetransTrace& t) { (void)t; }

  /// Crashed nodes rejoining: the first executed round at (or after) the
  /// crash window's end, with the number of nodes that were crashed.  Fired
  /// at most once per run (default no-op).
  virtual void on_rejoin(std::uint64_t round, std::uint64_t nodes) {
    (void)round;
    (void)nodes;
  }
};

}  // namespace dhc::congest
