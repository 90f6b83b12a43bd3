// End-to-end runner tests: trial execution is a pure function of the
// TrialConfig, so results — and the serialized JSON artifact — must be
// bitwise independent of worker-thread count and scheduling order.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include <algorithm>

#include "congest/network.h"
#include "runner/aggregator.h"
#include "runner/scenario.h"
#include "runner/trial_runner.h"
#include "support/worker_pool.h"

namespace dhc::runner {
namespace {

void expect_same_results(const std::vector<TrialResult>& a, const std::vector<TrialResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].success, b[i].success) << "trial " << i;
    EXPECT_EQ(a[i].failure_reason, b[i].failure_reason) << "trial " << i;
    EXPECT_EQ(a[i].rounds, b[i].rounds) << "trial " << i;
    EXPECT_EQ(a[i].messages, b[i].messages) << "trial " << i;
    EXPECT_EQ(a[i].bits, b[i].bits) << "trial " << i;
    EXPECT_EQ(a[i].peak_memory, b[i].peak_memory) << "trial " << i;
    EXPECT_EQ(a[i].stats, b[i].stats) << "trial " << i;
  }
}

std::string json_of(const Scenario& s, const std::vector<TrialConfig>& trials,
                    const std::vector<TrialResult>& results) {
  std::ostringstream os;
  write_json(os, s.name, aggregate(trials, results));
  return os.str();
}

TEST(TrialRunner, DraResultsAreThreadCountInvariant) {
  Scenario s;
  s.algos = {Algorithm::kDra};
  s.sizes = {48};
  s.deltas = {1.0};
  s.cs = {6.0};
  s.seeds = 6;
  s.base_seed = 3;
  const auto trials = expand(s);

  const auto serial = run_trials(trials, {.threads = 1});
  const auto parallel = run_trials(trials, {.threads = 8});
  expect_same_results(serial, parallel);
  EXPECT_EQ(json_of(s, trials, serial), json_of(s, trials, parallel));
}

TEST(TrialRunner, MixedAlgorithmScenarioIsThreadCountInvariant) {
  Scenario s;
  s.algos = {Algorithm::kSequential, Algorithm::kDhc2, Algorithm::kUpcast};
  s.sizes = {64};
  s.deltas = {0.5};
  s.cs = {4.0};
  s.seeds = 3;
  s.base_seed = 11;
  const auto trials = expand(s);

  const auto serial = run_trials(trials, {.threads = 1});
  const auto parallel = run_trials(trials, {.threads = 4});
  expect_same_results(serial, parallel);
  EXPECT_EQ(json_of(s, trials, serial), json_of(s, trials, parallel));
}

TEST(TrialRunner, SuccessfulTrialsVerifyAndRecordGraphStats) {
  Scenario s;
  s.algos = {Algorithm::kDra};
  s.sizes = {48};
  s.deltas = {1.0};
  s.cs = {8.0};
  s.seeds = 4;
  const auto trials = expand(s);
  const auto results = run_trials(trials, {.threads = 2});

  std::size_t successes = 0;
  for (const auto& r : results) {
    if (r.success) ++successes;
    // Instance facts are recorded for every trial.
    EXPECT_TRUE(r.stats.contains("graph_m"));
    EXPECT_TRUE(r.stats.contains("graph_connected"));
    EXPECT_GT(r.stats.at("mean_degree"), 0.0);
  }
  // c = 8 at n = 48 is far above the practical threshold: DRA (with its
  // built-in restarts) should essentially always succeed.
  EXPECT_GE(successes, 3u);
}

TEST(TrialRunner, ExceptionsBecomeFailedTrialsNotCrashes) {
  // gnm with c so large the edge count clamps to the complete graph still
  // runs; an intentionally absurd n = 4, delta tiny combination may starve
  // but must never throw out of run_trials.
  Scenario s;
  s.algos = {Algorithm::kDhc1};
  s.sizes = {4};
  s.deltas = {0.05};
  s.cs = {0.1};
  s.seeds = 2;
  const auto trials = expand(s);
  std::vector<TrialResult> results;
  EXPECT_NO_THROW(results = run_trials(trials, {.threads = 2}));
  for (const auto& r : results) {
    if (!r.success) {
      EXPECT_FALSE(r.failure_reason.empty());
    }
  }
}

TEST(TrialRunner, KMachinePricingRunsAndScalesWithMachines) {
  Scenario s;
  s.algos = {Algorithm::kDhc2};
  s.model = ExecutionModel::kKMachine;
  s.sizes = {64};
  s.deltas = {0.5};
  s.cs = {4.0};
  s.machines = {2, 8};
  s.bandwidth = 8;
  s.seeds = 2;
  const auto trials = expand(s);
  const auto results = run_trials(trials, {.threads = 2});
  const auto summaries = aggregate(trials, results);
  ASSERT_EQ(summaries.size(), 2u);
  for (const auto& sum : summaries) {
    EXPECT_TRUE(sum.stat_means.contains("kmachine_rounds"));
    EXPECT_TRUE(sum.stat_means.contains("congest_rounds"));
  }
}

TEST(TrialRunner, ResultsAreShardCountInvariant) {
  Scenario s;
  s.algos = {Algorithm::kDhc2, Algorithm::kTurau};
  s.sizes = {64};
  s.deltas = {0.5};
  s.cs = {4.0};
  s.seeds = 3;
  s.base_seed = 19;
  const auto trials = expand(s);

  const auto sequential = run_trials(trials, {.threads = 1, .shards = 1});
  const auto sharded = run_trials(trials, {.threads = 1, .shards = 4});
  expect_same_results(sequential, sharded);
  EXPECT_EQ(json_of(s, trials, sequential), json_of(s, trials, sharded));
}

TEST(TrialRunner, KMachineModelResultsAreShardCountInvariant) {
  // The k-machine backend consumes the merged event log on sharded rounds;
  // converted rounds (and the whole artifact) must not depend on the split.
  Scenario s;
  s.model = ExecutionModel::kKMachine;
  s.algos = {Algorithm::kDra, Algorithm::kDhc2, Algorithm::kTurau};
  s.sizes = {64};
  s.deltas = {0.5};
  s.cs = {4.0};
  s.machines = {4};
  s.bandwidth = 8;
  s.seeds = 2;
  s.base_seed = 23;
  const auto trials = expand(s);

  const auto sequential = run_trials(trials, {.threads = 1, .shards = 1});
  const auto sharded = run_trials(trials, {.threads = 1, .shards = 4});
  expect_same_results(sequential, sharded);
  EXPECT_EQ(json_of(s, trials, sequential), json_of(s, trials, sharded));
}

TEST(ResolveParallelism, ClampsThreadsToHardwareBeforeTrialCountMin) {
  const unsigned hw = support::WorkerPool::hardware_lanes();
  RunnerOptions opt;
  opt.threads = hw * 64;  // absurd request
  const auto par = resolve_parallelism(/*trial_count=*/1000, opt);
  EXPECT_LE(par.threads, hw);  // hardware clamp applied first
  // Many trials: trial-parallelism wins (a DHC_SHARDS environment default,
  // as in the CI shard matrix, is honored like an explicit flag).
  EXPECT_EQ(par.shards, congest::default_shards());
}

TEST(ResolveParallelism, HonorsExplicitShardsAndClampsTrialThreads) {
  RunnerOptions opt;
  opt.threads = 1;
  opt.shards = 8;  // explicit: the partition count is a determinism knob
  const auto par = resolve_parallelism(/*trial_count=*/10, opt);
  EXPECT_EQ(par.shards, 8u);
  EXPECT_EQ(par.threads, 1u);  // budget 1: no concurrent trials
}

TEST(ResolveParallelism, AutoPrefersTrialParallelismForManySmallTrials) {
  RunnerOptions opt;
  opt.threads = 0;  // whole machine
  const unsigned hw = support::WorkerPool::hardware_lanes();
  const auto par = resolve_parallelism(/*trial_count=*/hw * 4, opt);
  EXPECT_EQ(par.shards, congest::default_shards());  // 1 without DHC_SHARDS
  // The whole budget goes to trials, less the lanes a DHC_SHARDS default
  // claims for each trial (hw when unset).
  EXPECT_EQ(par.threads, std::max(1u, hw / std::min(congest::default_shards(), hw)));
}

TEST(ResolveParallelism, AutoShardsWhenTrialsCannotFillTheBudget) {
  // Simulate an 8-lane budget with 2 huge trials on any machine: the split
  // must keep threads × shards within min(8, hardware).
  RunnerOptions opt;
  opt.threads = 8;
  const unsigned hw = support::WorkerPool::hardware_lanes();
  const unsigned budget = std::min(8u, hw);
  const auto par = resolve_parallelism(/*trial_count=*/2, opt);
  if (congest::default_shards() == 1) {
    EXPECT_EQ(par.shards, std::max(1u, budget / 2));
  }
  EXPECT_LE(static_cast<unsigned>(par.threads) * std::min<unsigned>(par.shards, budget),
            budget * 2);  // never oversubscribes beyond the lanes-per-trial clamp
  EXPECT_LE(par.threads, 2u);
}

TEST(ResolveParallelism, NeverReturnsZero) {
  const auto par = resolve_parallelism(0, RunnerOptions{.threads = 0, .shards = 0});
  EXPECT_GE(par.threads, 1u);
  EXPECT_GE(par.shards, 1u);
}

TEST(ResolveParallelism, ZeroTrialsResolveToTheNeutralSplit) {
  // An empty trial list used to fall into the few-huge-trials branch and
  // hand the entire budget to the shard axis of trials that don't exist;
  // bench artifacts then recorded that fictional split.
  RunnerOptions opt;
  opt.threads = 8;
  const auto par = resolve_parallelism(/*trial_count=*/0, opt);
  EXPECT_EQ(par.threads, 1u);
  EXPECT_EQ(par.shards, 1u);
}

TEST(ResolveParallelism, ThreadsTimesLanesNeverExceedTheBudget) {
  const unsigned hw = support::WorkerPool::hardware_lanes();
  for (const unsigned threads : {1u, 2u, 5u, 8u, 64u}) {
    for (const std::size_t trials : {1ul, 2ul, 3ul, 7ul, 100ul}) {
      RunnerOptions opt;
      opt.threads = threads;
      const unsigned budget = std::max(1u, std::min(threads, hw));
      const auto par = resolve_parallelism(trials, opt);
      const unsigned lanes_per_trial = std::min<unsigned>(par.shards, budget);
      EXPECT_LE(par.threads * lanes_per_trial, budget)
          << "threads=" << threads << " trials=" << trials;
      EXPECT_LE(par.threads, trials) << "threads=" << threads << " trials=" << trials;
    }
  }
}

TEST(TrialRunner, BackToBackTrialsOnAPersistentPoolAreBitwiseIdentical) {
  // Regression for cross-trial state on reused pool threads: upcast's
  // downcast pump once kept a `static thread_local` scratch buffer, so a
  // worker thread's second trial started with a different allocator/footprint
  // state than a fresh thread's first.  Running the same scenario twice
  // through one persistent 1-thread pool (same worker thread serves every
  // trial) must reproduce the fresh-run results bitwise.
  Scenario s;
  s.algos = {Algorithm::kUpcast, Algorithm::kCollectAll};
  s.sizes = {64};
  s.deltas = {0.5};
  s.cs = {4.0};
  s.seeds = 2;
  s.base_seed = 31;
  const auto trials = expand(s);

  const auto fresh = run_trials(trials, {.threads = 1});
  const auto first = run_trials(trials, {.threads = 1});
  const auto second = run_trials(trials, {.threads = 1});
  expect_same_results(fresh, first);
  expect_same_results(first, second);
  EXPECT_EQ(json_of(s, trials, first), json_of(s, trials, second));
}

}  // namespace
}  // namespace dhc::runner
