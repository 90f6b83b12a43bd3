// The k-machine model as an execution backend (paper §IV; Klauck–Nanongkai–
// Pandurangan–Robinson [16]).
//
// In the k-machine model, k machines form a complete network; the n graph
// nodes are assigned to machines by a random vertex partition, and each of
// the k(k−1)/2 links carries O(polylog n) bits per round.  A CONGEST
// algorithm converts by direct simulation: each CONGEST round, every
// node-to-node message either stays inside a machine (free) or crosses one
// machine link; a CONGEST round whose busiest link carries L messages costs
// ⌈L / bandwidth⌉ k-machine rounds.
//
// KMachineCost is that conversion: a pricing observer.  Hang it off any
// protocol run (congest::EngineOptions::observer) and read the converted
// round count at any time, including mid-run: pricing is a pure read of the
// current state, never a mutation (see kmachine_rounds()).  The runner
// attaches one to every trial under `model = kmachine` by setting it as the
// observer of the solver's `run_*` call.
//
// The paper's claim — "our fully-distributed algorithms can be used to
// obtain efficient algorithms in the k-machine model" — is runnable for
// every algorithm: more machines means more parallel links, so converted
// rounds fall as k grows (EXP-K1).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "congest/network.h"
#include "core/dhc2.h"
#include "core/result.h"
#include "graph/graph.h"
#include "support/rng.h"

namespace dhc::kmachine {

using graph::NodeId;

/// Prices a CONGEST execution under the k-machine model.
///
/// Attach as NetworkConfig::observer: the engine's serial merge feeds each
/// round's shard logs through on_events() (congest/network.h) in the exact
/// global send order, so the price is identical for every shard count,
/// pinned by kmachine_test.
class KMachineCost : public congest::MessageObserver {
 public:
  /// Randomly partitions nodes 0..n-1 over k machines (the model's random
  /// vertex partition); each link carries `bandwidth` messages per round.
  KMachineCost(NodeId n, std::uint32_t k, std::uint64_t bandwidth, std::uint64_t seed);

  /// Prices a batch of sends (one merged shard log) message by message.
  void on_events(std::span<const congest::SendEvent> events) override;

  /// Attach a flight-recorder sink: every completed CONGEST round with
  /// cross-machine traffic emits one on_kround(round, busiest, charge)
  /// event as it is priced.  Not owned; must outlive the run.
  void set_trace(congest::TraceSink* trace) { trace_ = trace; }

  /// Flushes the final in-progress round so its kround event reaches the
  /// trace sink (rounds normally flush when the *next* round's first send
  /// arrives — the last one has no successor).  Idempotent; kmachine_rounds()
  /// stays correct whether or not this ran.
  void finish() { flush_round(); }

  /// Which machine hosts node v.
  std::uint32_t machine_of(NodeId v) const { return machine_of_[v]; }

  /// Converted k-machine rounds so far, including the ⌈L/bandwidth⌉ charge
  /// of the CONGEST round currently in progress.  Idempotent and safe to
  /// call mid-run: the price is computed from a read-only snapshot of the
  /// in-progress round's link loads — nothing is flushed or zeroed, so a
  /// mid-round read (or a second read) can never split a round's charge.
  std::uint64_t kmachine_rounds() const;

  std::uint64_t cross_messages() const { return cross_messages_; }
  std::uint64_t local_messages() const { return local_messages_; }
  /// Peak single-round load (messages) of the busiest machine link — the
  /// largest ⌈L/bandwidth⌉ numerator any one round charged.  A peak, not a
  /// total.
  std::uint64_t busiest_link_peak() const { return busiest_link_peak_; }

 private:
  void record(NodeId from, NodeId to, std::uint64_t round);
  void flush_round();

  std::uint32_t k_;
  std::uint64_t bandwidth_;
  std::vector<std::uint32_t> machine_of_;

  // Current-round link loads in a flat k×k table indexed a·k + b (a < b),
  // with the touched cells listed for O(links-used) flushing — record runs
  // once per simulated message, so it must not pay a hashed container.
  std::vector<std::uint64_t> round_load_;
  std::vector<std::uint32_t> touched_links_;
  std::uint64_t current_round_ = 0;
  std::uint64_t rounds_accum_ = 0;
  std::uint64_t cross_messages_ = 0;
  std::uint64_t local_messages_ = 0;
  std::uint64_t busiest_link_peak_ = 0;
  congest::TraceSink* trace_ = nullptr;
};

/// A solver call with the engine's attachments as arguments: run a CONGEST
/// protocol over `g` from `seed` with `observer` attached, `shards`
/// simulator shards (0 = the DHC_SHARDS environment default;
/// bitwise-neutral) and an optional fault plan (nullptr = synchronous).
/// async::run_async takes one; callers elsewhere call `core::run_*` with
/// the attachments in the config's EngineOptions.
using CongestAlgorithm = std::function<core::Result(
    const graph::Graph& g, std::uint64_t seed, congest::MessageObserver* observer,
    std::uint32_t shards, const congest::FaultPlan* faults)>;

/// core::run_dhc2 with `base` as the config and (observer, shards, faults)
/// taken per call; trace stays the base's.
CongestAlgorithm dhc2_algorithm(core::Dhc2Config base = {});

}  // namespace dhc::kmachine
