// Declarative experiment scenarios for the parallel trial runner.
//
// A Scenario names an experiment the way the paper's tables do: which
// algorithm(s), which graph family, and the lists of n / δ / c /
// merge-strategy values to sweep, plus how many seeded trials per cell.
// expand() turns it into the full cross-product of TrialConfigs, each
// carrying its own deterministically derived seeds — a trial is a pure
// function of its TrialConfig, which is what lets TrialRunner execute them
// on any number of threads with bitwise-identical results.
//
// Scenarios are parsed from a key=value scenario file (scenario_from_file),
// from --key=value flags (scenario_from_cli), or both; every route builds
// one key/value map and parses it once (scenario_from_spec), so the same
// key and value mean the same thing everywhere.  Malformed specs throw
// std::invalid_argument, never half-parse.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/dhc2.h"
#include "graph/graph.h"
#include "support/cli.h"

namespace dhc::runner {

/// Which solver a trial runs.  kCollectAll is Upcast with collect_all set
/// (the trivial baseline); kTurau is the O(log n)-time comparison protocol
/// of arXiv:1805.06728 (DESIGN.md §2.4).
enum class Algorithm : std::uint8_t {
  kSequential,
  kDra,
  kDhc1,
  kDhc2,
  kUpcast,
  kCollectAll,
  kTurau,
  /// CRE — the linear-space sequential oracle (core/sequential_linear.h).
  /// Like kSequential it has no CONGEST execution, so it is rejected under
  /// model = kmachine / async and is never traced.
  kCre,
};

/// Which execution model prices a trial.  kCongest runs the plain CONGEST
/// simulation; kKMachine runs the same simulation through the k-machine
/// backend (src/kmachine, paper §IV): a random vertex partition over k
/// machines, per-link bandwidth B, converted rounds = Σ ⌈busiest link /
/// B⌉.  Under kKMachine the scenario's `machines` list becomes a sweep axis
/// for *every* algorithm, not just dhc2.  kAsync runs the same simulation
/// through the async backend (src/async): seed-deterministic per-edge
/// delivery delays, message drops, and node crash windows; the fault axes
/// (`delay_dist`, `drop_prob`, `crash_schedule`) multiply every cell.
enum class ExecutionModel : std::uint8_t { kCongest, kKMachine, kAsync };

/// Input graph family.  All families are parameterized through (c, δ): the
/// target edge probability is p = c·ln n / n^δ; G(n, M) matches its expected
/// edge count, the regular family its expected degree, and the powerlaw
/// family (Chung–Lu with exponent-2.5 power-law weights) its average degree.
enum class GraphFamily : std::uint8_t { kGnp, kGnm, kRegular, kPowerlaw };

std::string to_string(Algorithm a);
std::string to_string(ExecutionModel m);
std::string to_string(GraphFamily f);
std::string to_string(core::MergeStrategy s);

/// Parse the one spelling of each value, the one to_string prints; throw
/// std::invalid_argument on anything else.
Algorithm parse_algorithm(const std::string& s);
ExecutionModel parse_execution_model(const std::string& s);
GraphFamily parse_graph_family(const std::string& s);
core::MergeStrategy parse_merge_strategy(const std::string& s);

/// A declarative experiment: the cross product of every list below (merge
/// strategies apply only to DHC2-based algorithms, machine counts only to
/// the k-machine conversion) times `seeds` trials per cell.
struct Scenario {
  std::string name = "scenario";
  std::vector<Algorithm> algos = {Algorithm::kDhc2};
  /// Execution model (spec key `model`): congest | kmachine.  Under
  /// kmachine, every algorithm in `algos` is run through the k-machine
  /// backend and `machines` multiplies every cell.
  ExecutionModel model = ExecutionModel::kCongest;
  GraphFamily family = GraphFamily::kGnp;
  std::vector<graph::NodeId> sizes = {512};
  std::vector<double> deltas = {0.5};
  std::vector<double> cs = {2.5};
  std::vector<core::MergeStrategy> merges = {core::MergeStrategy::kMinForward};
  /// Machine counts for the k-machine sweep (spec key `machines`): every
  /// algorithm under model = kmachine.
  std::vector<std::uint32_t> machines = {8};
  /// Per-link bandwidth (messages/round) for the k-machine pricing.
  std::uint64_t bandwidth = 32;
  /// Async fault axes (model = async only; congest/fault_plan.h spec
  /// grammar).  Each list is a sweep axis multiplying every cell; the
  /// defaults are the no-fault singletons, so non-async scenarios expand to
  /// exactly the trial lists (and seeds) they always did.
  std::vector<std::string> delay_dists = {"none"};
  std::vector<double> drop_probs = {0.0};
  std::vector<std::string> crash_schedules = {"none"};
  /// Reliability modes for the async transport (congest/reliable.h): "none"
  /// loses dropped messages for good, "ack" re-sends until acknowledged.  A
  /// sweep axis like the fault axes above, excluded from both derived seeds
  /// so reliability=ack cells stay paired with their reliability=none
  /// controls.
  std::vector<std::string> reliabilities = {"none"};
  /// Retransmit timeout/backoff spec shared by every reliability=ack cell
  /// (congest/reliable.h grammar: rto:K[:MULT[:MAX]]).
  std::string rto = "rto:4:2:16";
  /// Per-trial round budget under model = async (0 = engine default).  Fault
  /// injection can livelock a protocol that assumes reliable synchronous
  /// delivery; a budget turns that into a fast hit_round_limit failure
  /// instead of a 50M-round crawl to the engine ceiling.
  std::uint64_t max_rounds = 0;
  /// Seeded trials per configuration cell.
  std::uint64_t seeds = 5;
  /// Root seed; every trial's graph/algorithm seeds are derived from it.
  std::uint64_t base_seed = 1;

  /// Throws std::invalid_argument when any field is out of range (empty
  /// lists, δ outside (0, 1], n < 4, seeds == 0, ...).
  void validate() const;

  bool operator==(const Scenario&) const = default;
};

/// One executable trial: a configuration cell plus a trial index and the
/// derived seeds.  Everything a worker thread needs, nothing shared.
struct TrialConfig {
  std::size_t config_index = 0;   ///< Which cross-product cell this trial belongs to.
  std::uint64_t trial_index = 0;  ///< 0-based seed index within the cell.
  Algorithm algo = Algorithm::kDhc2;
  /// The scenario's execution model.
  ExecutionModel model = ExecutionModel::kCongest;
  GraphFamily family = GraphFamily::kGnp;
  graph::NodeId n = 0;
  double delta = 0.0;
  double c = 0.0;
  core::MergeStrategy merge = core::MergeStrategy::kMinForward;
  std::uint32_t machines = 0;     ///< 0 unless model == kKMachine.
  std::uint64_t bandwidth = 0;    ///< 0 unless model == kKMachine.
  /// Async fault parameters ("none"/0.0 unless model == kAsync).  The fault
  /// axes are excluded from both derived seeds: trials differing only in
  /// fault intensity run the same instance with the same protocol
  /// randomness, so degradation sweeps are paired comparisons.
  std::string delay_dist = "none";
  double drop_prob = 0.0;
  std::string crash_schedule = "none";
  /// Async transport reliability ("none" unless model == kAsync).  Excluded
  /// from the derived seeds like the fault axes, so ack/none cells pair.
  std::string reliability = "none";
  std::string rto;                ///< empty unless model == kAsync.
  std::uint64_t max_rounds = 0;   ///< 0 unless model == kAsync (0 = engine default).
  std::uint64_t graph_seed = 0;
  std::uint64_t algo_seed = 0;
};

/// Expands the scenario into the full, deterministically ordered and seeded
/// trial list.  Calling expand() twice on the same scenario yields identical
/// configs (including seeds); validate() is invoked first.  Graph seeds
/// depend only on (base_seed, family, n, delta, c, trial index): trials that
/// differ in algorithm, merge strategy, or machine count run on identical
/// instances, so head-to-head sweeps are paired comparisons.  Algorithm
/// seeds additionally ignore the machine-count axis, so k-machine cells
/// differing only in k price the *same* underlying execution.
std::vector<TrialConfig> expand(const Scenario& s);

/// Builds a Scenario from a key=value map (the one parser behind files and
/// flags).  Recognized keys: name, algos, model, family, sizes, deltas, cs,
/// merges, machines, bandwidth, seeds, seed, delay_dist, drop_prob,
/// crash_schedule, reliability, rto, max_rounds.  List values are
/// comma-separated; every value must parse whole into its field's type.
/// Fault and rto specs are stored in the spelling their to_string() prints
/// (geometric:0.50 → geometric:0.5, 4:2:16 → rto:4:2:16), so one config has
/// one artifact.  Unknown keys and malformed or out-of-range values throw
/// std::invalid_argument.
Scenario scenario_from_spec(const std::map<std::string, std::string>& spec);

/// Parses a scenario file: one `key = value` per line, `#` comments and
/// blank lines ignored.  Throws std::invalid_argument on unreadable files or
/// malformed content.
Scenario scenario_from_file(const std::string& path);

/// Builds a Scenario from command-line flags: the --scenario=FILE map (if
/// given), overlaid with every flag that names a spec key, parsed once by
/// scenario_from_spec.
Scenario scenario_from_cli(const support::Cli& cli);

/// Every flag scenario_from_cli reads: the spec keys plus --scenario.
/// Drivers add their own flags and pass the union to
/// support::Cli::reject_unknown.
std::set<std::string> scenario_flags();

}  // namespace dhc::runner
