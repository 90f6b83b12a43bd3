// The async execution backend (`--model=async`).
//
// The paper's solvers — and Turau's — are specified for fully synchronous
// CONGEST rounds: every message takes exactly one round, nothing is lost,
// nobody fails.  This backend runs any registered CONGEST algorithm on the
// same Network engine with that assumption relaxed three ways, all
// seed-deterministically (congest/fault_plan.h):
//
//   * per-directed-edge delivery delays (fixed / uniform / geometric),
//   * per-message drop probabilities,
//   * node crash windows (crashed nodes neither step nor receive; they
//     rejoin silently when the window closes).
//
// Identical (seed, fault spec) pairs reproduce identical executions bitwise,
// including across shard counts, because every fault decision is a pure hash
// of the edge/node/round — never a draw from mutable RNG state (see the
// determinism argument in fault_plan.h and DESIGN.md §8).
//
// run_async() drives a kmachine::CongestAlgorithm adapter (kmachine/
// kmachine.h) with a FaultPlan attached and returns the verified
// core::Result plus a fault report.  The runner attaches the same FaultPlan
// itself (runner/trial_runner.cc, run_congest).
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
  /// Seed of the fault stream; 0 means "derive from the algorithm seed"
  /// (derive_fault_seed), the runner's convention — so the fault stream is
  /// independent of the protocol's own randomness but pinned by the trial.
  std::uint64_t fault_seed = 0;
  /// Cap on simulated rounds (0 = simulator default).  Faults can make a
  /// protocol diverge; the cap turns a hang into hit_round_limit reporting.
  std::uint64_t max_rounds = 0;
  /// Simulator shards (0 = DHC_SHARDS environment default; bitwise-neutral).
  std::uint32_t shards = 0;
  /// Reliable-delivery overlay (congest/reliable.h): kNone replays PR 7's
  /// lossy behavior; kAck adds per-link seq/ack + retransmission so solvers
  /// survive drops and crash windows.
  congest::ReliabilitySpec reliability;
  /// Retransmit timeout/backoff parameters (used only under kAck).
  congest::RtoSpec rto;
};

/// What the faults did to one run.
struct AsyncReport {
  bool success = false;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;                ///< messages *sent*
  std::uint64_t delayed_messages = 0;        ///< delivered with latency > 1
  std::uint64_t dropped_messages = 0;        ///< lost in transit
  std::uint64_t crash_dropped_messages = 0;  ///< arrived at a crashed node
  std::uint64_t crashed_steps = 0;           ///< activations lost to crashes
  std::uint64_t crashed_nodes = 0;           ///< nodes with a crash window
  std::uint64_t crashed_rejoins = 0;         ///< nodes back after their window
  std::uint64_t retransmits = 0;             ///< overlay re-sends
  std::uint64_t dup_suppressed = 0;          ///< duplicate arrivals suppressed
  std::uint64_t acks_sent = 0;               ///< standalone ack messages
  std::uint64_t payload_messages = 0;        ///< messages minus overlay traffic
  bool hit_round_limit = false;
  bool round_limit_live = false;  ///< limit hit with traffic still moving
};

/// The backend's full answer: the fault accounting plus the underlying run
/// (cycle included, so callers can verify the output and reuse every solver
/// stat).
struct AsyncOutcome {
  AsyncReport report;
  core::Result result;
};

/// The fault-stream seed the runner derives when AsyncConfig::fault_seed is
/// 0: a salted splitmix64 chain over the algorithm seed, so protocol
/// randomness and fault randomness never alias.
std::uint64_t derive_fault_seed(std::uint64_t algo_seed);

/// Runs `algo` on `g` under the configured fault plan and returns the
/// outcome.  Throws std::invalid_argument on malformed fault parameters.
AsyncOutcome run_async(const kmachine::CongestAlgorithm& algo, const graph::Graph& g,
                       std::uint64_t seed, const AsyncConfig& cfg);

}  // namespace dhc::async
