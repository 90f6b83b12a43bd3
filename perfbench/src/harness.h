// The benchmark harness: closed-loop timed runs through runner::run_trial,
// and traced runs that time each layer through its public entry point and
// check that tracing changed no work counter.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "runner/trial_runner.h"
#include "trace.h"

namespace perfbench {

/// Work counters a trial must reproduce exactly, traced or not, at any
/// shard count.  Fields a solver does not have stay 0.
struct TrialCounters {
  std::uint64_t success = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t barriers = 0;
  std::uint64_t arena_bytes_peak = 0;
  std::uint64_t steps = 0;
  std::uint64_t extensions = 0;
  std::uint64_t rotations = 0;
  std::uint64_t resamples = 0;
  std::uint64_t payload_messages = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t dropped_messages = 0;
  std::uint64_t delayed_messages = 0;
  std::uint64_t hit_round_limit = 0;

  bool operator==(const TrialCounters&) const = default;
};

/// The counters as run_trial reports them.
TrialCounters counters_of(const dhc::runner::TrialResult& r);

/// "name: a != b" for every field where the two differ.
std::vector<std::string> counter_diff(const TrialCounters& untraced, const TrialCounters& traced);

/// One trial run layer by layer: instance generation, the solver entry with
/// a LayerSink attached, and cycle verification, each timed on its own.
struct TracedTrial {
  /// Message, bit, barrier, fault and overlay counts come from the sink,
  /// the rest from the solver's report, so equality with run_trial also
  /// checks the tap.
  TrialCounters counters;
  std::string failure_reason;
  std::uint64_t edges = 0;
  double gen_s = 0.0;
  double solve_s = 0.0;
  double verify_s = 0.0;
  EngineTally tally;
  std::map<std::string, PhaseTotal> phases;
};

/// With `attach_sink` false the solver runs with no sink: the same calls,
/// so that the solve times of the two price the sink alone.  Its engine
/// tally and sink-side counters are then 0.
TracedTrial run_traced_trial(const dhc::runner::TrialConfig& t, std::uint32_t shards,
                             bool attach_sink);

/// Failures group by reason with digit runs folded to "#", so per-partition
/// or per-round variants of one cause land in one bucket.
std::string failure_class(const std::string& reason);

/// True for failures that mean a wrong answer or a crash (verifier
/// rejections, exceptions) rather than a randomized solver giving up.
bool is_incorrect(const std::string& reason);

/// The command: parses `args` (without the program name), runs, prints the
/// report to `out` with the result JSON as its last line, and returns the
/// exit code (0 ok, 1 incorrect output or counter mismatch, 2 usage).
int run_main(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace perfbench
