// End-to-end tests for the async execution model (--model=async): a
// congest::FaultPlan in the `faults` slot of each solver's `run_*` call.
// Equivalence with the synchronous schedule at latency 1, golden-seed
// determinism per solver under delays + drops, shard invariance of the
// faulted engine, graceful crash behaviour, the run_async shim, and the
// runner/artifact integration (fault axes, paired seeds, async stats
// columns).
#include "async/async.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/hamiltonian.h"
#include "runner/aggregator.h"
#include "runner/scenario.h"
#include "runner/trial_runner.h"
#include "solver_table.h"

namespace dhc::async {
namespace {

using graph::Graph;
using testutil::kSolvers;
using testutil::Solver;
using testutil::solver;

Graph test_instance(graph::NodeId n, std::uint64_t seed) {
  support::Rng rng(seed);
  return graph::gnp(n, graph::edge_probability(n, 2.5, 0.5), rng);
}

/// The fault plan of a run from `seed`, with its fault seed derived the way
/// the runner derives it.
congest::FaultPlan fault_plan(std::uint64_t seed, const char* delay, double drop_prob,
                              std::uint64_t max_rounds, const char* reliability = "none",
                              const char* crash = "none") {
  congest::FaultPlan plan(congest::DelaySpec::parse(delay), drop_prob,
                          congest::CrashSpec::parse(crash), congest::derive_fault_seed(seed),
                          max_rounds);
  plan.set_reliability(congest::ReliabilitySpec::parse(reliability), congest::RtoSpec{});
  return plan;
}

/// Runs `s` from `seed` on `g` under `plan` with `shards` simulator shards.
core::Result run_faulted(const Solver& s, const Graph& g, std::uint64_t seed,
                         const congest::FaultPlan& plan, std::uint32_t shards = 0) {
  congest::EngineOptions engine;
  engine.faults = &plan;
  engine.shards = shards;
  return s.run(g, seed, engine);
}

/// Shards even sparse rounds (DHC_SHARD_GRAIN=1, as the CI shard matrix
/// does) for its lifetime, then restores the caller's setting, so a sharded
/// rerun of this binary keeps grain 1 for the tests that follow.
class ForceShardGrainOne {
 public:
  ForceShardGrainOne() {
    if (const char* old = std::getenv("DHC_SHARD_GRAIN")) old_ = old;
    setenv("DHC_SHARD_GRAIN", "1", 1);
  }
  ~ForceShardGrainOne() {
    if (old_.empty()) {
      unsetenv("DHC_SHARD_GRAIN");
    } else {
      setenv("DHC_SHARD_GRAIN", old_.c_str(), 1);
    }
  }

 private:
  std::string old_;
};

void expect_results_equal(const core::Result& a, const core::Result& b, const char* what) {
  const congest::Metrics& am = a.metrics;
  const congest::Metrics& bm = b.metrics;
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(am.rounds, bm.rounds) << what;
  EXPECT_EQ(am.messages, bm.messages) << what;
  EXPECT_EQ(am.delayed_messages, bm.delayed_messages) << what;
  EXPECT_EQ(am.dropped_messages, bm.dropped_messages) << what;
  EXPECT_EQ(am.crash_dropped_messages, bm.crash_dropped_messages) << what;
  EXPECT_EQ(am.crashed_steps, bm.crashed_steps) << what;
  EXPECT_EQ(am.crashed_rejoins, bm.crashed_rejoins) << what;
  EXPECT_EQ(am.retransmits, bm.retransmits) << what;
  EXPECT_EQ(am.dup_suppressed, bm.dup_suppressed) << what;
  EXPECT_EQ(am.acks_sent, bm.acks_sent) << what;
  EXPECT_EQ(am.payload_messages(), bm.payload_messages()) << what;
  EXPECT_EQ(am.hit_round_limit, bm.hit_round_limit) << what;
  EXPECT_EQ(am.round_limit_live, bm.round_limit_live) << what;
  EXPECT_EQ(am.bits, bm.bits) << what;
  EXPECT_EQ(am.node_messages_sent, bm.node_messages_sent) << what;
  EXPECT_EQ(am.node_messages_received, bm.node_messages_received) << what;
  EXPECT_EQ(a.stats, b.stats) << what;
  EXPECT_EQ(a.failure_reason, b.failure_reason) << what;
  EXPECT_EQ(a.cycle.neighbors_of, b.cycle.neighbors_of) << what;
}

TEST(AsyncBackend, LatencyOneMatchesTheSynchronousRunBitwise) {
  // delay = fixed:1, no drops, no crashes *is* the synchronous schedule; the
  // async machinery must reproduce the plain run exactly, for every solver.
  const Graph g = test_instance(256, 41);
  const congest::FaultPlan plan = fault_plan(/*seed=*/7, "fixed:1", 0.0, /*max_rounds=*/0);
  for (const Solver& s : kSolvers) {
    const core::Result plain = s.run(g, /*seed=*/7, congest::EngineOptions{});
    const core::Result faulted = run_faulted(s, g, /*seed=*/7, plan);

    EXPECT_EQ(faulted.metrics.delayed_messages, 0u) << s.name;
    EXPECT_EQ(faulted.metrics.dropped_messages, 0u) << s.name;
    EXPECT_EQ(faulted.success, plain.success) << s.name;
    EXPECT_EQ(faulted.metrics.rounds, plain.metrics.rounds) << s.name;
    EXPECT_EQ(faulted.metrics.messages, plain.metrics.messages) << s.name;
    EXPECT_EQ(faulted.metrics.bits, plain.metrics.bits) << s.name;
    EXPECT_EQ(faulted.metrics.node_messages_received, plain.metrics.node_messages_received)
        << s.name;
    EXPECT_EQ(faulted.stats, plain.stats) << s.name;
    EXPECT_EQ(faulted.cycle.neighbors_of, plain.cycle.neighbors_of) << s.name;
  }
}

TEST(AsyncBackend, GoldenSeedDeterminismPerSolverUnderDelaysAndDrops) {
  const Graph g = test_instance(192, 23);
  const congest::FaultPlan plan = fault_plan(/*seed=*/11, "uniform:1:4", 0.01, 200000);
  for (const Solver& s : kSolvers) {
    const core::Result first = run_faulted(s, g, /*seed=*/11, plan);
    const core::Result again = run_faulted(s, g, /*seed=*/11, plan);
    expect_results_equal(first, again, s.name);
    // The run did experience faults (otherwise the test is vacuous).
    EXPECT_GT(first.metrics.delayed_messages, 0u) << s.name;
  }
}

TEST(AsyncBackend, ShardCountIsBitwiseNeutralUnderFaults) {
  // Force the sharded engine on even for small rounds, as the CI shard
  // matrix does; the per-message fault decisions are pure hashes, so the
  // serial shard merge must replay the sequential decisions exactly.
  const ForceShardGrainOne grain;
  const Graph g = test_instance(160, 57);
  const congest::FaultPlan plan = fault_plan(/*seed=*/29, "uniform:1:3", 0.02, 200000);
  for (const char* name : {"dhc2", "turau", "upcast"}) {
    const Solver& s = solver(name);
    const core::Result base = run_faulted(s, g, /*seed=*/29, plan, /*shards=*/1);
    for (const std::uint32_t shards : {2u, 4u}) {
      const core::Result sharded = run_faulted(s, g, /*seed=*/29, plan, shards);
      expect_results_equal(base, sharded,
                           (std::string(name) + " shards=" + std::to_string(shards)).c_str());
    }
  }
}

TEST(AsyncBackend, MassCrashFailsGracefullyInsteadOfHanging) {
  // More than half the nodes crash early and never rejoin within any
  // plausible run: the protocol cannot finish, and the engine must turn
  // that into reporting (hit_round_limit or a clean failure), not a hang.
  const Graph g = test_instance(128, 3);
  const congest::FaultPlan plan =
      fault_plan(/*seed=*/5, "none", 0.0, /*max_rounds=*/2000, "none", "random:0.6:2:100000000");
  const core::Result out = run_faulted(solver("dhc2"), g, /*seed=*/5, plan);
  EXPECT_FALSE(out.success);
  EXPECT_GT(plan.crashed_node_count(g.n()), 0u);
  EXPECT_TRUE(out.metrics.hit_round_limit || !out.failure_reason.empty());
}

// --- reliable-delivery overlay (reliability=ack) ---------------------------

TEST(AsyncReliable, AckWithNoLossIsBitwiseIdenticalToNone) {
  // The overlay only engages when the plan can actually lose messages, so a
  // lossless ack run must reproduce the none run exactly — for every solver.
  const Graph g = test_instance(128, 17);
  const congest::FaultPlan none_plan = fault_plan(/*seed=*/13, "fixed:2", 0.0, 200000);
  const congest::FaultPlan ack_plan = fault_plan(/*seed=*/13, "fixed:2", 0.0, 200000, "ack");
  for (const Solver& s : kSolvers) {
    const core::Result none = run_faulted(s, g, /*seed=*/13, none_plan);
    const core::Result ack = run_faulted(s, g, /*seed=*/13, ack_plan);

    EXPECT_EQ(ack.metrics.retransmits, 0u) << s.name;
    EXPECT_EQ(ack.metrics.acks_sent, 0u) << s.name;
    EXPECT_EQ(ack.metrics.dup_suppressed, 0u) << s.name;
    expect_results_equal(none, ack, s.name);
  }
}

TEST(AsyncReliable, AckOverlayDeliversWhereNoneStalls) {
  // The drop-stall headline: at a 2% per-message drop rate the bare async
  // model cannot finish (no solver re-sends), while the overlay retransmits
  // its way through and the verified cycle comes out intact.
  const Graph g = test_instance(128, 61);
  const Solver& dhc2 = solver("dhc2");

  const core::Result bare =
      run_faulted(dhc2, g, /*seed=*/3, fault_plan(/*seed=*/3, "fixed:1", 0.02, 200000));
  EXPECT_FALSE(bare.success);

  const congest::FaultPlan plan = fault_plan(/*seed=*/3, "fixed:1", 0.02, 200000, "ack");
  const core::Result ack = run_faulted(dhc2, g, /*seed=*/3, plan);
  EXPECT_TRUE(ack.success) << ack.failure_reason;
  EXPECT_GT(ack.metrics.retransmits, 0u);
  EXPECT_EQ(ack.metrics.payload_messages(),
            ack.metrics.messages - ack.metrics.retransmits - ack.metrics.acks_sent);

  // Golden-seed determinism over the retransmission paths: same config,
  // same seeds, bitwise-equal outcome.
  const core::Result again = run_faulted(dhc2, g, /*seed=*/3, plan);
  expect_results_equal(ack, again, "ack rerun");
}

TEST(AsyncReliable, AckShardInvarianceUnderDrops) {
  // The overlay's bookkeeping all runs on the engine's serial paths, so the
  // retransmit/ack schedule must be bitwise shard-invariant like everything
  // else — forced-sharded via DHC_SHARD_GRAIN as in the CI matrix.
  const ForceShardGrainOne grain;
  const Graph g = test_instance(128, 61);
  const congest::FaultPlan plan = fault_plan(/*seed=*/3, "fixed:1", 0.02, 200000, "ack");
  const Solver& dhc2 = solver("dhc2");
  const core::Result base = run_faulted(dhc2, g, /*seed=*/3, plan, /*shards=*/1);
  EXPECT_GT(base.metrics.retransmits, 0u);
  for (const std::uint32_t shards : {2u, 4u}) {
    const core::Result sharded = run_faulted(dhc2, g, /*seed=*/3, plan, shards);
    expect_results_equal(base, sharded, ("ack shards=" + std::to_string(shards)).c_str());
  }
}

// --- the run_async shim ----------------------------------------------------

TEST(AsyncShim, RunAsyncMatchesADirectRunDhc2) {
  // run_async(dhc2_algorithm(cfg), ...) is the call perfbench's async-ack
  // workload makes; it must be exactly core::run_dhc2 under the plan the
  // runner would build, with the report read off that run's Metrics.
  const Graph g = test_instance(128, 61);
  core::Dhc2Config cfg;
  AsyncConfig acfg;
  acfg.delay = congest::DelaySpec::parse("fixed:1");
  acfg.drop_prob = 0.02;
  acfg.max_rounds = 200000;
  acfg.reliability = congest::ReliabilitySpec::parse("ack");
  const AsyncOutcome shim = run_async(kmachine::dhc2_algorithm(cfg), g, /*seed=*/3, acfg);

  const congest::FaultPlan plan = fault_plan(/*seed=*/3, "fixed:1", 0.02, 200000, "ack");
  core::Dhc2Config direct_cfg = cfg;
  direct_cfg.faults = &plan;
  const core::Result direct = core::run_dhc2(g, /*seed=*/3, direct_cfg);

  ASSERT_GT(direct.metrics.retransmits, 0u);  // the overlay really ran
  EXPECT_TRUE(shim.result.metrics == direct.metrics);
  expect_results_equal(shim.result, direct, "run_async vs run_dhc2");
  const congest::Metrics& m = direct.metrics;
  EXPECT_EQ(shim.report.payload_messages, m.payload_messages());
  EXPECT_EQ(shim.report.hit_round_limit, m.hit_round_limit);
  EXPECT_EQ(shim.report.round_limit_live, m.round_limit_live);
}

// --- runner integration ----------------------------------------------------

runner::Scenario async_scenario() {
  runner::Scenario s;
  s.name = "async-test";
  s.model = runner::ExecutionModel::kAsync;
  s.algos = {runner::Algorithm::kDhc2};
  s.sizes = {96};
  s.deltas = {0.5};
  s.cs = {2.5};
  s.delay_dists = {"fixed:2"};
  s.drop_probs = {0.0, 0.1};
  s.seeds = 2;
  s.base_seed = 99;
  return s;
}

TEST(AsyncRunner, FaultAxesMultiplyCellsButNotSeeds) {
  const auto trials = runner::expand(async_scenario());
  ASSERT_EQ(trials.size(), 4u);  // 2 drop probs x 2 seeds
  EXPECT_EQ(trials[0].model, runner::ExecutionModel::kAsync);
  EXPECT_EQ(trials[0].delay_dist, "fixed:2");
  EXPECT_DOUBLE_EQ(trials[0].drop_prob, 0.0);
  EXPECT_DOUBLE_EQ(trials[2].drop_prob, 0.1);
  EXPECT_NE(trials[0].config_index, trials[2].config_index);
  // Paired degradation sweeps: trials differing only in fault intensity run
  // the same instance with the same protocol randomness.
  EXPECT_EQ(trials[0].graph_seed, trials[2].graph_seed);
  EXPECT_EQ(trials[0].algo_seed, trials[2].algo_seed);
  EXPECT_NE(trials[0].algo_seed, trials[1].algo_seed);
}

TEST(AsyncRunner, NonAsyncScenariosRejectFaultAxes) {
  runner::Scenario s = async_scenario();
  s.model = runner::ExecutionModel::kCongest;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.model = runner::ExecutionModel::kAsync;
  EXPECT_NO_THROW(s.validate());
  s.drop_probs = {1.0};
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.drop_probs = {0.0};
  s.delay_dists = {"bogus:3"};
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(AsyncRunner, ReliabilityAxisMultipliesCellsButNotSeeds) {
  runner::Scenario s = async_scenario();
  s.drop_probs = {0.1};
  s.reliabilities = {"none", "ack"};
  const auto trials = runner::expand(s);
  ASSERT_EQ(trials.size(), 4u);  // 2 reliability modes x 2 seeds
  EXPECT_EQ(trials[0].reliability, "none");
  EXPECT_EQ(trials[2].reliability, "ack");
  EXPECT_EQ(trials[2].rto, s.rto);
  EXPECT_NE(trials[0].config_index, trials[2].config_index);
  // ack rows stay paired (common random numbers) with their none controls.
  EXPECT_EQ(trials[0].graph_seed, trials[2].graph_seed);
  EXPECT_EQ(trials[0].algo_seed, trials[2].algo_seed);
  EXPECT_NE(trials[0].algo_seed, trials[1].algo_seed);
}

TEST(AsyncRunner, NonAsyncScenariosRejectReliability) {
  runner::Scenario s = async_scenario();
  s.reliabilities = {"none", "ack"};
  EXPECT_NO_THROW(s.validate());
  s.model = runner::ExecutionModel::kCongest;
  s.drop_probs = {0.0};
  s.delay_dists = {"none"};
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.reliabilities = {"none"};
  s.rto = "rto:9";
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.rto = runner::Scenario{}.rto;
  EXPECT_NO_THROW(s.validate());
  // Malformed specs are rejected on any model.
  s.model = runner::ExecutionModel::kAsync;
  s.reliabilities = {"bogus"};
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.reliabilities = {"ack"};
  s.rto = "rto:0";
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(AsyncRunner, RoundLimitFailuresClassifyStalledVersusLive) {
  // A run that trips the round limit gets classified: live (messages still
  // in flight — turau's delay livelock) vs stalled (only wake-up polling
  // left, the drop-stall signature), both in the failure reason suffix and
  // as the round_limit_live stat.
  runner::RunnerOptions opt;
  opt.threads = 1;

  runner::Scenario live = async_scenario();
  live.algos = {runner::Algorithm::kTurau};
  live.delay_dists = {"uniform:1:3"};
  live.drop_probs = {0.0};
  live.seeds = 1;
  live.max_rounds = 3000;
  const auto live_results = runner::run_trials(runner::expand(live), opt);
  ASSERT_EQ(live_results.size(), 1u);
  ASSERT_FALSE(live_results[0].success);
  ASSERT_EQ(live_results[0].stats.at("hit_round_limit"), 1.0);
  EXPECT_EQ(live_results[0].stats.at("round_limit_live"), 1.0);
  EXPECT_NE(live_results[0].failure_reason.find(" (live)"), std::string::npos)
      << live_results[0].failure_reason;

  runner::Scenario mixed = async_scenario();
  mixed.algos = {runner::Algorithm::kDra};
  mixed.delay_dists = {"uniform:1:8"};
  mixed.drop_probs = {0.0};
  mixed.seeds = 2;
  mixed.max_rounds = 3000;
  const auto mixed_results = runner::run_trials(runner::expand(mixed), opt);
  ASSERT_EQ(mixed_results.size(), 2u);
  bool saw_stalled = false;
  for (const auto& r : mixed_results) {
    if (r.stats.at("hit_round_limit") == 0.0) continue;
    const bool is_live = r.stats.at("round_limit_live") != 0.0;
    saw_stalled |= !is_live;
    EXPECT_NE(r.failure_reason.find(is_live ? " (live)" : " (stalled)"), std::string::npos)
        << r.failure_reason;
  }
  EXPECT_TRUE(saw_stalled) << "dra/uniform:1:8 seed pair should include a quiescent stall";
}

TEST(AsyncRunner, NonAsyncExpansionIsUnchangedByTheFaultAxesDefaults) {
  // The no-fault singletons must leave non-async trial lists (cells and
  // seeds) exactly as they were before the async model existed.
  runner::Scenario s;
  s.algos = {runner::Algorithm::kDhc2};
  s.sizes = {64};
  s.seeds = 3;
  s.base_seed = 7;
  const auto trials = runner::expand(s);
  ASSERT_EQ(trials.size(), 3u);
  for (const auto& t : trials) {
    EXPECT_EQ(t.model, runner::ExecutionModel::kCongest);
    EXPECT_EQ(t.delay_dist, "none");
    EXPECT_DOUBLE_EQ(t.drop_prob, 0.0);
    EXPECT_EQ(t.crash_schedule, "none");
  }
}

TEST(AsyncRunner, TrialsCarryFaultStatsIntoArtifacts) {
  const auto trials = runner::expand(async_scenario());
  runner::RunnerOptions opt;
  opt.threads = 2;
  const auto results = runner::run_trials(trials, opt);
  ASSERT_EQ(results.size(), trials.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    ASSERT_TRUE(r.stats.contains("delayed_messages")) << i;
    ASSERT_TRUE(r.stats.contains("dropped_messages")) << i;
    ASSERT_TRUE(r.stats.contains("crashed_steps")) << i;
    ASSERT_TRUE(r.stats.contains("hit_round_limit")) << i;
    ASSERT_TRUE(r.stats.contains("retransmits")) << i;
    ASSERT_TRUE(r.stats.contains("payload_messages")) << i;
    ASSERT_TRUE(r.stats.contains("crashed_rejoins")) << i;
    EXPECT_GT(r.stats.at("delayed_messages"), 0.0) << i;  // fixed:2 delays all
    if (trials[i].drop_prob == 0.0) {
      EXPECT_EQ(r.stats.at("dropped_messages"), 0.0) << i;
      EXPECT_TRUE(r.success) << i << ": " << r.failure_reason;
    }
  }

  const auto summaries = runner::aggregate(trials, results);
  std::ostringstream os;
  runner::write_json(os, "async-test", summaries);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"model\": \"async\""), std::string::npos);
  EXPECT_NE(json.find("\"delay_dist\": \"fixed:2\""), std::string::npos);
  EXPECT_NE(json.find("\"crash_schedule\": \"none\""), std::string::npos);
  EXPECT_NE(json.find("\"reliability\": \"none\""), std::string::npos);
  EXPECT_NE(json.find("\"rto\": \"rto:4:2:16\""), std::string::npos);
  EXPECT_NE(json.find("\"delayed_messages\""), std::string::npos);
}

TEST(AsyncRunner, AsyncTrialsAreThreadCountInvariant) {
  const auto trials = runner::expand(async_scenario());
  runner::RunnerOptions serial;
  serial.threads = 1;
  runner::RunnerOptions wide;
  wide.threads = 4;
  const auto a = runner::run_trials(trials, serial);
  const auto b = runner::run_trials(trials, wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].success, b[i].success) << i;
    EXPECT_DOUBLE_EQ(a[i].rounds, b[i].rounds) << i;
    EXPECT_DOUBLE_EQ(a[i].messages, b[i].messages) << i;
    EXPECT_EQ(a[i].stats, b[i].stats) << i;
  }
}

}  // namespace
}  // namespace dhc::async
