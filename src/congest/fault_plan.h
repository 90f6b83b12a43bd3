// Seed-deterministic fault injection for the async execution model.
//
// A FaultPlan answers three questions the Network asks while running a
// protocol asynchronously (DESIGN.md §8):
//
//   delay(from, to)        how many rounds does a message on directed edge
//                          (from, to) take to arrive?  (>= 1; 1 == the
//                          synchronous schedule)
//   drop(from, to, round)  is the message sent on (from, to) this round
//                          lost in transit?
//   crashed(v, round)      is node v crashed (neither stepping nor
//                          receiving) at this round?
//
// Every answer is a *pure hash* of (fault_seed, arguments) — no mutable RNG
// state, no draw ordering.  That is the determinism argument for the async
// backend: because a decision depends only on the identity of the edge/node
// and the round, it is independent of the order in which sends are committed,
// so the engine's serial merge makes the same decisions for every shard
// count and shard-invariance holds for free.
//
// The hash is the splitmix64 word-absorption chain used for trial seed
// derivation (src/runner/scenario.cc), with a distinct salt per question.
// Probabilistic decisions compare a uniform [0,1) hash against the
// configured probability, so fault streams at different intensities are
// *nested*: a message dropped at drop_prob 0.05 is also dropped at 0.10
// under the same fault seed (common-random-numbers pairing across the
// drop_prob axis).
#pragma once

#include <cstdint>
#include <string>

#include "congest/message.h"
#include "congest/reliable.h"

namespace dhc::congest {

/// Per-directed-edge delivery latency distribution.  Spec strings use ':'
/// separators so comma-separated scenario axis lists stay parseable:
///   "none"          every message takes 1 round (synchronous schedule)
///   "fixed:K"       every message takes K rounds (K >= 1)
///   "uniform:A:B"   latency uniform over {A, ..., B} (1 <= A <= B)
///   "geometric:P"   latency 1 + Geometric(P) (0 < P <= 1)
struct DelaySpec {
  enum class Kind : std::uint8_t { kNone, kFixed, kUniform, kGeometric };

  Kind kind = Kind::kNone;
  std::uint64_t a = 1;  ///< fixed: the latency; uniform: lower bound
  std::uint64_t b = 1;  ///< uniform: upper bound (inclusive)
  double p = 1.0;       ///< geometric: success probability

  /// Parses a spec string; throws std::invalid_argument on malformed input.
  static DelaySpec parse(const std::string& spec);
  std::string to_string() const;

  bool active() const { return kind != Kind::kNone; }
};

/// Node crash schedule.  Spec strings:
///   "none"                    no crashes
///   "random:FRAC:START:DUR"   each node crashes with probability FRAC
///                             (hash-chosen per node), from round START for
///                             DUR rounds, then silently rejoins
struct CrashSpec {
  enum class Kind : std::uint8_t { kNone, kRandom };

  Kind kind = Kind::kNone;
  double fraction = 0.0;
  std::uint64_t start = 0;
  std::uint64_t duration = 0;

  /// Parses a spec string; throws std::invalid_argument on malformed input.
  static CrashSpec parse(const std::string& spec);
  std::string to_string() const;

  bool active() const { return kind != Kind::kNone && fraction > 0.0 && duration > 0; }
};

class FaultPlan {
 public:
  FaultPlan(DelaySpec delay, double drop_prob, CrashSpec crash, std::uint64_t fault_seed,
            std::uint64_t round_limit = 0);

  /// Delivery latency in rounds for a message on directed edge (from, to).
  /// Always >= 1; latency is a property of the edge, not the round, so a
  /// FIFO link never reorders its own messages.
  std::uint64_t delay(NodeId from, NodeId to) const;

  /// True when the message sent on (from, to) at `round` is lost.
  bool drop(NodeId from, NodeId to, std::uint64_t round) const;

  /// True when node v is inside its crash window at `round`.
  bool crashed(NodeId v, std::uint64_t round) const;

  /// True when v crashes at some point under this plan (round-independent).
  bool crash_scheduled(NodeId v) const;

  /// Number of nodes in [0, n) with a scheduled crash window.
  std::uint64_t crashed_node_count(NodeId n) const;

  /// First round at which crashed nodes are back ("rejoined", with whatever
  /// stale state they crashed with).  Meaningful only when crashes_active().
  std::uint64_t crash_rejoin_round() const;

  bool delays_active() const { return delay_.active(); }
  bool drops_active() const { return drop_prob_ > 0.0; }
  bool crashes_active() const { return crash_.active(); }

  const DelaySpec& delay_spec() const { return delay_; }
  double drop_prob() const { return drop_prob_; }
  const CrashSpec& crash_spec() const { return crash_; }
  std::uint64_t fault_seed() const { return fault_seed_; }

  /// Optional cap on simulated rounds (0 = simulator default).  Fault plans
  /// can make protocols diverge (drops starve a phase, crashes partition the
  /// graph); the cap turns a would-be hang into `hit_round_limit` reporting.
  std::uint64_t round_limit() const { return round_limit_; }

  /// Reliable-delivery overlay riding on this plan (congest/reliable.h).
  /// Carried here — rather than through every solver's config — because the
  /// plan already travels in the solver's EngineOptions into the Network.
  /// The overlay consumes none of the hash streams above, so setting it
  /// never perturbs the drop/delay/crash decisions (paired runs stay
  /// paired).
  void set_reliability(ReliabilitySpec reliability, RtoSpec rto) {
    reliability_ = reliability;
    rto_ = rto;
  }
  const ReliabilitySpec& reliability() const { return reliability_; }
  const RtoSpec& rto() const { return rto_; }

 private:
  DelaySpec delay_;
  double drop_prob_ = 0.0;
  CrashSpec crash_;
  std::uint64_t fault_seed_ = 0;
  std::uint64_t round_limit_ = 0;
  ReliabilitySpec reliability_;
  RtoSpec rto_;
};

/// The fault seed of a trial whose protocol runs from `algo_seed`: a salted
/// splitmix64 chain over it, so protocol randomness and fault randomness
/// never alias, yet the fault stream is pinned by the trial.
std::uint64_t derive_fault_seed(std::uint64_t algo_seed);

}  // namespace dhc::congest
