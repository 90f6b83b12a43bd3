// Parallel execution of expanded scenario trials.
//
// Every trial is a pure function of its TrialConfig — the graph is generated
// from graph_seed, the solver from algo_seed, and no state is shared between
// trials — so run_trials() can hand the list to a support::WorkerPool and
// still produce results that are bitwise independent of thread count and
// scheduling order: workers write into a pre-sized vector slot keyed by the
// trial's position, never append.  Only wall_seconds varies between runs,
// and it is excluded from every aggregate and artifact.
//
// The thread budget is arbitrated between the two parallelism axes
// (resolve_parallelism): many small trials run trial-parallel with
// sequential simulators; few huge trials run near-serially with *sharded*
// simulators (congest/network.h), which are bitwise identical to the
// sequential ones — so aggregates are also independent of the shard split.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runner/scenario.h"

namespace dhc::runner {

/// Outcome of one trial, reduced to the aggregatable measurements.
struct TrialResult {
  bool success = false;
  std::string failure_reason;

  /// CONGEST cost (for kSequential: rounds counts solver steps, the rest 0;
  /// for k-machine-model trials: rounds is the converted k-machine round
  /// count and the raw CONGEST rounds are stats["congest_rounds"], with the
  /// cross/local split and busiest_link_peak alongside).
  double rounds = 0.0;
  double messages = 0.0;
  double bits = 0.0;
  /// Max over nodes of peak registered memory, words.
  double peak_memory = 0.0;
  double barriers = 0.0;
  double accounted_rounds = 0.0;

  /// Algorithm counters passed through from core::Result::stats, plus the
  /// instance facts graph_m, graph_connected (0/1), and mean_degree.
  std::map<std::string, double> stats;

  /// Wall-clock of this trial on its worker thread.  Informational only:
  /// never aggregated or serialized (it would break thread-count
  /// determinism).
  double wall_seconds = 0.0;

  /// Path of the NDJSON flight-recorder trace written for this trial, empty
  /// when tracing was off (or the trial is sequential — no network to tap).
  std::string trace_file;
};

/// The knobs of run_trials and run_trial.  run_trial ignores `threads`;
/// everything else applies per trial.
struct RunnerOptions {
  /// Worker-thread budget shared by trial- and shard-parallelism; 0 means
  /// std::thread::hardware_concurrency().  Always clamped to the hardware
  /// before any other arbitration, so the resolved split describes what
  /// actually ran.
  unsigned threads = 1;
  /// Verify returned cycles against the input graph (recommended; applies
  /// to k-machine-model trials too — the backend returns the underlying
  /// solver's cycle).
  bool verify = true;
  /// Simulator shards per trial; any value produces bitwise-identical
  /// results, only wall-clock changes.  0 = auto: run_trial takes the
  /// DHC_SHARDS environment default; run_trials (resolve_parallelism)
  /// prefers trial-parallelism when there are at least as many trials as
  /// budget lanes, otherwise hands the leftover lanes to each trial as
  /// shards (few huge trials — the regime where runner-level parallelism is
  /// useless).
  std::uint32_t shards = 0;
  /// When non-empty, every CONGEST trial writes a flight-recorder trace to
  /// `trace_dir`/trace_c<config>_t<trial>.ndjson (see src/trace/).  The
  /// directory must exist.  Trace counters are deterministic and
  /// shard-invariant; only wall fields vary between runs.
  std::string trace_dir{};
  /// Record stats["rss_peak_kb"] (the process peak RSS, getrusage, at the
  /// end of each trial) on every result.  Off by default: the value is
  /// machine- and scheduling-dependent, so it must never enter artifacts
  /// that are compared bitwise across thread counts.
  bool track_rss = false;
};

/// The arbitrated thread/shard split for a run: `threads` concurrent trials,
/// each simulated with `shards` shards (threads × shards stays within the
/// clamped budget; an explicit RunnerOptions::shards is honored as the
/// partition count, and the in-trial pool caps its own workers at the
/// hardware).  dhc_run prints it before a run.
struct ResolvedParallelism {
  unsigned threads = 1;
  std::uint32_t shards = 1;
};

/// Resolves `opt` against the machine and the trial count.
ResolvedParallelism resolve_parallelism(std::size_t trial_count, const RunnerOptions& opt);

/// Generates a trial's input graph deterministically from its graph_seed and
/// instance parameters (family, n, delta, c).  Exposed so tests can pin the
/// DESIGN.md §3 pairing guarantee: trials that differ only in algorithm,
/// merge strategy, or machine count receive bitwise-identical graphs.
graph::Graph make_trial_instance(const TrialConfig& t);

/// Generates the instance deterministically from `t` and runs its solver
/// with `shards` simulator shards (0 = the DHC_SHARDS environment default;
/// every value yields bitwise-identical results).  Failures (including
/// thrown std::exception) are reported as unsuccessful results, never
/// propagated.
TrialResult run_trial(const TrialConfig& t, bool verify = true, std::uint32_t shards = 0);

/// Same, with the trace and RSS knobs.  A failure to write the trace
/// file is a trial failure (reported, never thrown).
TrialResult run_trial(const TrialConfig& t, const RunnerOptions& opt);

/// Runs all trials on a worker pool, split as resolve_parallelism(trials,
/// opt) says, and returns results in trial order.  Aggregate-relevant fields
/// are identical for every `opt.threads` / `opt.shards` value.
std::vector<TrialResult> run_trials(const std::vector<TrialConfig>& trials,
                                    const RunnerOptions& opt = {});

}  // namespace dhc::runner
