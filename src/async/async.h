// The async fault model's one-call shim, kept for perfbench's traced
// `async-ack` path.
//
// The async execution model (`--model=async`, DESIGN.md §8) is a
// congest::FaultPlan in the `faults` slot of a solver's EngineOptions:
// per-directed-edge delivery delays, per-message drops and node crash
// windows, all pure hashes of the edge/node/round, so identical (seed, fault
// spec) pairs reproduce identical executions bitwise across shard counts.
// The runner (runner/trial_runner.cc, run_congest) and the tests build that
// plan and call the solver's `run_*` directly.
//
// run_async() does the same for a kmachine::CongestAlgorithm: it builds the
// plan from an AsyncConfig, seeded by congest::derive_fault_seed(seed), runs
// the algorithm once, and reports the three counters perfbench reads.  Every
// other fault counter is in the result's congest::Metrics.
#pragma once

#include <cstdint>

#include "congest/fault_plan.h"
#include "core/result.h"
#include "graph/graph.h"
#include "kmachine/kmachine.h"

namespace dhc::async {

struct AsyncConfig {
  /// Per-directed-edge latency distribution (congest/fault_plan.h specs).
  congest::DelaySpec delay;
  /// Per-message loss probability in [0, 1).
  double drop_prob = 0.0;
  /// Node crash schedule.
  congest::CrashSpec crash;
  /// Cap on simulated rounds (0 = simulator default).  Faults can make a
  /// protocol diverge; the cap turns a hang into hit_round_limit reporting.
  std::uint64_t max_rounds = 0;
  /// Simulator shards (0 = DHC_SHARDS environment default; bitwise-neutral).
  std::uint32_t shards = 0;
  /// Reliable-delivery overlay (congest/reliable.h): kNone is the lossy
  /// model; kAck adds per-link seq/ack + retransmission.
  congest::ReliabilitySpec reliability;
  /// Retransmit timeout/backoff parameters (used only under kAck).
  congest::RtoSpec rto;
};

/// The counters perfbench reads; the rest are in the result's Metrics.
struct AsyncReport {
  std::uint64_t payload_messages = 0;  ///< messages minus overlay traffic
  bool hit_round_limit = false;
  bool round_limit_live = false;  ///< limit hit with traffic still moving
};

struct AsyncOutcome {
  AsyncReport report;
  core::Result result;
};

/// Runs `algo` on `g` under the configured fault plan.  Throws
/// std::invalid_argument on malformed fault parameters.
AsyncOutcome run_async(const kmachine::CongestAlgorithm& algo, const graph::Graph& g,
                       std::uint64_t seed, const AsyncConfig& cfg);

}  // namespace dhc::async
