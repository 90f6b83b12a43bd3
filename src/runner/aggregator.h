// Folds per-trial results into per-configuration summaries and artifacts.
//
// The aggregator is the runner's reporting half: it groups TrialResults by
// their scenario cell, reduces each group with support/stats (success rate;
// mean/median/p95 of rounds, messages, bits, peak memory over the
// *successful* trials; means of every named stat over *all* trials), and
// renders three views — an aligned support::Table for stdout, a JSON
// artifact (what bench/golden/ pins byte for byte), and a CSV for
// spreadsheets.  All serialization is deterministic: equal summaries
// produce byte-identical output, which is how the thread-count-invariance
// tests compare runs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "runner/scenario.h"
#include "runner/trial_runner.h"
#include "support/table.h"

namespace dhc::runner {

/// Digest of one measurement over the successful trials of a cell.
struct MetricSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Aggregate of all trials sharing one scenario cell.
struct ConfigSummary {
  /// The cell's parameters (trial_index and seeds are zeroed).
  TrialConfig config;
  std::uint64_t trials = 0;
  std::uint64_t successes = 0;
  double success_rate = 0.0;
  /// Over successful trials only (a failed trial's cost is not a cost of
  /// solving; success_rate carries the failure information).
  MetricSummary rounds, messages, bits, memory;
  /// Mean of each TrialResult::stats key over all trials of the cell.
  std::map<std::string, double> stat_means;
  /// Sum of per-trial wall clocks; informational, never serialized.
  double wall_seconds_total = 0.0;
  /// Flight-recorder trace files of the cell's trials, in trial order; empty
  /// when tracing was off.  Serialized into the JSON artifact (after
  /// "stats") only when non-empty, so untraced artifacts are unchanged.
  std::vector<std::string> trace_files;
};

/// Groups `results` by trials[i].config_index and reduces each group.
/// Requires results.size() == trials.size(); summaries come back ordered by
/// config_index.
std::vector<ConfigSummary> aggregate(const std::vector<TrialConfig>& trials,
                                     const std::vector<TrialResult>& results);

/// One row per configuration cell: parameters, success, and the headline
/// round/message/memory digests.
support::Table summary_table(const std::vector<ConfigSummary>& summaries);

/// JSON artifact: {"scenario": name, "configs": [...]} with every summary
/// field except wall clocks.  Deterministic number formatting.
void write_json(std::ostream& os, const std::string& scenario_name,
                const std::vector<ConfigSummary>& summaries);

/// Flat CSV with one row per configuration cell: the fixed parameter and
/// digest columns, then one `stat_<key>` column per stat-mean key appearing
/// in any cell (sorted union; cells without the stat stay empty).
void write_csv(std::ostream& os, const std::vector<ConfigSummary>& summaries);

}  // namespace dhc::runner
