// End-to-end tests for the async execution backend (--model=async):
// equivalence with the synchronous schedule at latency 1, golden-seed
// determinism per solver under delays + drops, shard invariance of the
// faulted engine, graceful crash behaviour, and the runner/artifact
// integration (fault axes, paired seeds, async stats columns).
#include "async/async.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <vector>

#include "graph/generators.h"
#include "graph/hamiltonian.h"
#include "runner/aggregator.h"
#include "runner/scenario.h"
#include "runner/trial_runner.h"

namespace dhc::async {
namespace {

using graph::Graph;

struct Solver {
  const char* name;
  kmachine::CongestAlgorithm algo;
};

/// The five registered CONGEST solvers, by their runner names.
std::vector<Solver> solvers() {
  return {{"dra", kmachine::dra_algorithm()},
          {"dhc1", kmachine::dhc1_algorithm()},
          {"dhc2", kmachine::dhc2_algorithm()},
          {"turau", kmachine::turau_algorithm()},
          {"upcast", kmachine::upcast_algorithm()}};
}

Graph test_instance(graph::NodeId n, std::uint64_t seed) {
  support::Rng rng(seed);
  return graph::gnp(n, graph::edge_probability(n, 2.5, 0.5), rng);
}

void expect_outcomes_equal(const AsyncOutcome& a, const AsyncOutcome& b, const char* what) {
  EXPECT_EQ(a.report.success, b.report.success) << what;
  EXPECT_EQ(a.report.rounds, b.report.rounds) << what;
  EXPECT_EQ(a.report.messages, b.report.messages) << what;
  EXPECT_EQ(a.report.delayed_messages, b.report.delayed_messages) << what;
  EXPECT_EQ(a.report.dropped_messages, b.report.dropped_messages) << what;
  EXPECT_EQ(a.report.crash_dropped_messages, b.report.crash_dropped_messages) << what;
  EXPECT_EQ(a.report.crashed_steps, b.report.crashed_steps) << what;
  EXPECT_EQ(a.report.crashed_rejoins, b.report.crashed_rejoins) << what;
  EXPECT_EQ(a.report.retransmits, b.report.retransmits) << what;
  EXPECT_EQ(a.report.dup_suppressed, b.report.dup_suppressed) << what;
  EXPECT_EQ(a.report.acks_sent, b.report.acks_sent) << what;
  EXPECT_EQ(a.report.payload_messages, b.report.payload_messages) << what;
  EXPECT_EQ(a.report.hit_round_limit, b.report.hit_round_limit) << what;
  EXPECT_EQ(a.report.round_limit_live, b.report.round_limit_live) << what;
  EXPECT_EQ(a.result.metrics.bits, b.result.metrics.bits) << what;
  EXPECT_EQ(a.result.metrics.node_messages_sent, b.result.metrics.node_messages_sent) << what;
  EXPECT_EQ(a.result.metrics.node_messages_received, b.result.metrics.node_messages_received)
      << what;
  EXPECT_EQ(a.result.stats, b.result.stats) << what;
  EXPECT_EQ(a.result.failure_reason, b.result.failure_reason) << what;
  EXPECT_EQ(a.result.cycle.neighbors_of, b.result.cycle.neighbors_of) << what;
}

TEST(AsyncBackend, DeriveFaultSeedIsStableAndSalted) {
  EXPECT_EQ(derive_fault_seed(5), derive_fault_seed(5));
  EXPECT_NE(derive_fault_seed(5), 5u);
  EXPECT_NE(derive_fault_seed(5), derive_fault_seed(6));
}

TEST(AsyncBackend, LatencyOneMatchesTheSynchronousRunBitwise) {
  // delay = fixed:1, no drops, no crashes *is* the synchronous schedule; the
  // async machinery must reproduce the plain run exactly, for every solver.
  const Graph g = test_instance(256, 41);
  for (const auto& [name, algo] : solvers()) {
    auto plain = algo(g, /*seed=*/7, nullptr, /*shards=*/0, /*faults=*/nullptr);

    AsyncConfig cfg;
    cfg.delay = congest::DelaySpec::parse("fixed:1");
    const AsyncOutcome faulted = run_async(algo, g, /*seed=*/7, cfg);

    EXPECT_EQ(faulted.report.delayed_messages, 0u) << name;
    EXPECT_EQ(faulted.report.dropped_messages, 0u) << name;
    EXPECT_EQ(faulted.result.success, plain.success) << name;
    EXPECT_EQ(faulted.report.rounds, plain.metrics.rounds) << name;
    EXPECT_EQ(faulted.report.messages, plain.metrics.messages) << name;
    EXPECT_EQ(faulted.result.metrics.bits, plain.metrics.bits) << name;
    EXPECT_EQ(faulted.result.metrics.node_messages_received,
              plain.metrics.node_messages_received)
        << name;
    EXPECT_EQ(faulted.result.stats, plain.stats) << name;
    EXPECT_EQ(faulted.result.cycle.neighbors_of, plain.cycle.neighbors_of) << name;
  }
}

TEST(AsyncBackend, GoldenSeedDeterminismPerSolverUnderDelaysAndDrops) {
  const Graph g = test_instance(192, 23);
  AsyncConfig cfg;
  cfg.delay = congest::DelaySpec::parse("uniform:1:4");
  cfg.drop_prob = 0.01;
  cfg.max_rounds = 200000;
  for (const auto& [name, algo] : solvers()) {
    const AsyncOutcome first = run_async(algo, g, /*seed=*/11, cfg);
    const AsyncOutcome again = run_async(algo, g, /*seed=*/11, cfg);
    expect_outcomes_equal(first, again, name);
    // The run did experience faults (otherwise the test is vacuous).
    EXPECT_GT(first.report.delayed_messages, 0u) << name;
  }
}

TEST(AsyncBackend, ShardCountIsBitwiseNeutralUnderFaults) {
  // Force the sharded engine on even for small rounds, as the CI shard
  // matrix does; the per-message fault decisions are pure hashes, so the
  // serial shard merge must replay the sequential decisions exactly.
  setenv("DHC_SHARD_GRAIN", "1", 1);
  const Graph g = test_instance(160, 57);
  AsyncConfig cfg;
  cfg.delay = congest::DelaySpec::parse("uniform:1:3");
  cfg.drop_prob = 0.02;
  cfg.max_rounds = 200000;
  for (const auto& [name, algo] : std::vector<Solver>{{"dhc2", kmachine::dhc2_algorithm()},
                                                       {"turau", kmachine::turau_algorithm()},
                                                       {"upcast", kmachine::upcast_algorithm()}}) {
    cfg.shards = 1;
    const AsyncOutcome base = run_async(algo, g, /*seed=*/29, cfg);
    for (const std::uint32_t shards : {2u, 4u}) {
      cfg.shards = shards;
      const AsyncOutcome sharded = run_async(algo, g, /*seed=*/29, cfg);
      expect_outcomes_equal(base, sharded,
                            (std::string(name) + " shards=" + std::to_string(shards)).c_str());
    }
  }
  unsetenv("DHC_SHARD_GRAIN");
}

TEST(AsyncBackend, MassCrashFailsGracefullyInsteadOfHanging) {
  // More than half the nodes crash early and never rejoin within any
  // plausible run: the protocol cannot finish, and the backend must turn
  // that into reporting (hit_round_limit or a clean failure), not a hang.
  const Graph g = test_instance(128, 3);
  AsyncConfig cfg;
  cfg.crash = congest::CrashSpec::parse("random:0.6:2:100000000");
  cfg.max_rounds = 2000;
  const AsyncOutcome out = run_async(kmachine::dhc2_algorithm(), g, /*seed=*/5, cfg);
  EXPECT_FALSE(out.report.success);
  EXPECT_GT(out.report.crashed_nodes, 0u);
  EXPECT_TRUE(out.report.hit_round_limit || !out.result.failure_reason.empty());
}

// --- reliable-delivery overlay (reliability=ack) ---------------------------

TEST(AsyncReliable, AckWithNoLossIsBitwiseIdenticalToNone) {
  // The overlay only engages when the plan can actually lose messages, so a
  // lossless ack run must reproduce the none run exactly — for every solver.
  const Graph g = test_instance(128, 17);
  AsyncConfig cfg;
  cfg.delay = congest::DelaySpec::parse("fixed:2");
  cfg.max_rounds = 200000;
  for (const auto& [name, algo] : solvers()) {
    const AsyncOutcome none = run_async(algo, g, /*seed=*/13, cfg);

    AsyncConfig ack_cfg = cfg;
    ack_cfg.reliability = congest::ReliabilitySpec::parse("ack");
    const AsyncOutcome ack = run_async(algo, g, /*seed=*/13, ack_cfg);

    EXPECT_EQ(ack.report.retransmits, 0u) << name;
    EXPECT_EQ(ack.report.acks_sent, 0u) << name;
    EXPECT_EQ(ack.report.dup_suppressed, 0u) << name;
    expect_outcomes_equal(none, ack, name);
  }
}

TEST(AsyncReliable, AckOverlayDeliversWhereNoneStalls) {
  // The drop-stall headline: at a 2% per-message drop rate the bare async
  // model cannot finish (no solver re-sends), while the overlay retransmits
  // its way through and the verified cycle comes out intact.
  const Graph g = test_instance(128, 61);
  AsyncConfig cfg;
  cfg.delay = congest::DelaySpec::parse("fixed:1");
  cfg.drop_prob = 0.02;
  cfg.max_rounds = 200000;
  const auto algo = kmachine::dhc2_algorithm();

  const AsyncOutcome bare = run_async(algo, g, /*seed=*/3, cfg);
  EXPECT_FALSE(bare.report.success);

  cfg.reliability = congest::ReliabilitySpec::parse("ack");
  const AsyncOutcome ack = run_async(algo, g, /*seed=*/3, cfg);
  EXPECT_TRUE(ack.report.success) << ack.result.failure_reason;
  EXPECT_GT(ack.report.retransmits, 0u);
  EXPECT_EQ(ack.report.payload_messages,
            ack.report.messages - ack.report.retransmits - ack.report.acks_sent);

  // Golden-seed determinism over the retransmission paths: same config,
  // same seeds, bitwise-equal outcome.
  const AsyncOutcome again = run_async(algo, g, /*seed=*/3, cfg);
  expect_outcomes_equal(ack, again, "ack rerun");
}

TEST(AsyncReliable, AckShardInvarianceUnderDrops) {
  // The overlay's bookkeeping all runs on the engine's serial paths, so the
  // retransmit/ack schedule must be bitwise shard-invariant like everything
  // else — forced-sharded via DHC_SHARD_GRAIN as in the CI matrix.
  setenv("DHC_SHARD_GRAIN", "1", 1);
  const Graph g = test_instance(128, 61);
  AsyncConfig cfg;
  cfg.delay = congest::DelaySpec::parse("fixed:1");
  cfg.drop_prob = 0.02;
  cfg.max_rounds = 200000;
  cfg.reliability = congest::ReliabilitySpec::parse("ack");
  const auto algo = kmachine::dhc2_algorithm();
  cfg.shards = 1;
  const AsyncOutcome base = run_async(algo, g, /*seed=*/3, cfg);
  EXPECT_GT(base.report.retransmits, 0u);
  for (const std::uint32_t shards : {2u, 4u}) {
    cfg.shards = shards;
    const AsyncOutcome sharded = run_async(algo, g, /*seed=*/3, cfg);
    expect_outcomes_equal(base, sharded,
                          ("ack shards=" + std::to_string(shards)).c_str());
  }
  unsetenv("DHC_SHARD_GRAIN");
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
