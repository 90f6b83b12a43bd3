// Golden-artifact test for the dhc_run pipeline: runs a tiny scenario
// in-process through the exact stages the CLI uses (spec → expand →
// run_trials → aggregate → write_json/write_csv) and pins the artifact
// schema — field names and order, cell count, digest keys — so a schema
// regression fails here in ctest instead of in downstream scripts.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "runner/aggregator.h"
#include "runner/scenario.h"
#include "runner/trial_runner.h"

namespace dhc::runner {
namespace {

/// Every JSON object key in order of appearance: a quoted string directly
/// followed by a colon.  String *values* are followed by ',' or '}', never
/// ':', so the scan cannot mistake them for keys.
std::vector<std::string> json_keys(const std::string& json) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] != '"') continue;
    const auto end = json.find('"', i + 1);
    if (end == std::string::npos) break;
    std::size_t after = end + 1;
    while (after < json.size() && std::isspace(static_cast<unsigned char>(json[after]))) ++after;
    if (after < json.size() && json[after] == ':') {
      keys.push_back(json.substr(i + 1, end - i - 1));
    }
    i = end;
  }
  return keys;
}

struct Artifact {
  Scenario scenario;
  std::vector<ConfigSummary> summaries;
  std::string json;
  std::string csv;
};

Artifact tiny_artifact() {
  // The in-process equivalent of
  //   dhc_run --algos=sequential --sizes=16,24 --deltas=1.0 --cs=8 --seeds=2
  Artifact a;
  a.scenario = scenario_from_spec({{"name", "golden"},
                                   {"algos", "sequential"},
                                   {"sizes", "16,24"},
                                   {"deltas", "1.0"},
                                   {"cs", "8"},
                                   {"seeds", "2"}});
  const auto trials = expand(a.scenario);
  const auto results = run_trials(trials, {.threads = 2});
  a.summaries = aggregate(trials, results);
  std::ostringstream js, cs;
  write_json(js, a.scenario.name, a.summaries);
  a.json = js.str();
  write_csv(cs, a.summaries);
  a.csv = cs.str();
  return a;
}

TEST(Artifact, JsonSchemaIsPinned) {
  const Artifact a = tiny_artifact();
  ASSERT_EQ(a.summaries.size(), 2u);  // 2 sizes × 1 algo × 1 delta × 1 c

  const auto keys = json_keys(a.json);
  ASSERT_GE(keys.size(), 2u);
  EXPECT_EQ(keys[0], "scenario");
  EXPECT_EQ(keys[1], "configs");

  // Per-config schema: the fixed prefix, then one six-key digest per
  // measurement, then the open-ended stats map.
  const std::vector<std::string> config_prefix = {
      "algo",   "model",  "family",    "n",     "delta",     "c",        "merge",
      "machines", "bandwidth", "trials", "successes", "success_rate"};
  const std::vector<std::string> digest_keys = {"count", "mean", "median", "p95", "min", "max"};
  const std::vector<std::string> metrics = {"rounds", "messages", "bits", "memory"};

  std::size_t cursor = 2;
  for (std::size_t cell = 0; cell < a.summaries.size(); ++cell) {
    for (const auto& want : config_prefix) {
      ASSERT_LT(cursor, keys.size()) << "cell " << cell;
      EXPECT_EQ(keys[cursor++], want) << "cell " << cell;
    }
    for (const auto& metric : metrics) {
      ASSERT_LT(cursor, keys.size());
      EXPECT_EQ(keys[cursor++], metric) << "cell " << cell;
      for (const auto& want : digest_keys) {
        ASSERT_LT(cursor, keys.size());
        EXPECT_EQ(keys[cursor++], want) << "cell " << cell << " metric " << metric;
      }
    }
    ASSERT_LT(cursor, keys.size());
    EXPECT_EQ(keys[cursor++], "stats") << "cell " << cell;
    // The stats map is algorithm-specific but always carries the instance
    // facts; skip its keys up to the next cell's "algo".
    std::size_t stats_begin = cursor;
    while (cursor < keys.size() && keys[cursor] != "algo") ++cursor;
    const std::vector<std::string> stat_keys(keys.begin() + stats_begin, keys.begin() + cursor);
    for (const char* fact : {"graph_m", "graph_connected", "mean_degree"}) {
      EXPECT_NE(std::find(stat_keys.begin(), stat_keys.end(), fact), stat_keys.end())
          << "cell " << cell << " missing instance fact " << fact;
    }
  }
  EXPECT_EQ(cursor, keys.size()) << "unexpected trailing keys";
}

TEST(Artifact, JsonCarriesScenarioNameAndCellValues) {
  const Artifact a = tiny_artifact();
  EXPECT_NE(a.json.find("\"scenario\": \"golden\""), std::string::npos);
  EXPECT_NE(a.json.find("\"algo\": \"sequential\""), std::string::npos);
  EXPECT_NE(a.json.find("\"model\": \"congest\""), std::string::npos);
  EXPECT_NE(a.json.find("\"n\": 16"), std::string::npos);
  EXPECT_NE(a.json.find("\"n\": 24"), std::string::npos);
  EXPECT_NE(a.json.find("\"trials\": 2"), std::string::npos);
}

TEST(Artifact, CsvHeaderIsPinned) {
  const Artifact a = tiny_artifact();
  const auto newline = a.csv.find('\n');
  ASSERT_NE(newline, std::string::npos);
  // Fixed columns, then the sorted union of stat-mean keys as `stat_<key>`
  // columns (for the pinned sequential scenario: its three solver counters
  // plus the three instance facts).
  EXPECT_EQ(a.csv.substr(0, newline),
            "algo,model,family,n,delta,c,merge,machines,bandwidth,trials,successes,"
            "success_rate,"
            "rounds_mean,rounds_median,rounds_p95,messages_mean,messages_median,messages_p95,"
            "bits_median,memory_median,"
            "stat_extensions,stat_graph_connected,stat_graph_m,stat_mean_degree,"
            "stat_rotations,stat_steps");
  // One data row per cell after the header; every line is newline-terminated.
  ASSERT_EQ(a.csv.back(), '\n');
  const auto lines = static_cast<std::size_t>(std::count(a.csv.begin(), a.csv.end(), '\n'));
  EXPECT_EQ(lines, 1 + a.summaries.size());
}

// The k-machine execution backend end to end through the runner: a model =
// kmachine scenario over two algorithms runs, aggregates converted rounds,
// and exports the pricing stats (busiest_link_peak above all) in both
// artifacts.
TEST(Artifact, KMachineModelArtifactsCarryPricingStats) {
  Artifact a;
  a.scenario = scenario_from_spec({{"name", "kmachine-golden"},
                                   {"algos", "dhc2,turau"},
                                   {"model", "kmachine"},
                                   {"sizes", "64"},
                                   {"deltas", "0.5"},
                                   {"cs", "4"},
                                   {"machines", "2,4"},
                                   {"bandwidth", "8"},
                                   {"seeds", "2"}});
  const auto trials = expand(a.scenario);
  ASSERT_EQ(trials.size(), 8u);  // 2 algos × 2 machine counts × 2 seeds
  const auto results = run_trials(trials, {.threads = 2});
  a.summaries = aggregate(trials, results);
  std::ostringstream js, cs;
  write_json(js, a.scenario.name, a.summaries);
  a.json = js.str();
  write_csv(cs, a.summaries);
  a.csv = cs.str();

  EXPECT_NE(a.json.find("\"model\": \"kmachine\""), std::string::npos);
  for (const char* stat : {"kmachine_rounds", "congest_rounds", "cross_messages",
                           "local_messages", "busiest_link_peak"}) {
    EXPECT_NE(a.json.find(std::string("\"") + stat + "\": "), std::string::npos) << stat;
    EXPECT_NE(a.csv.find(std::string("stat_") + stat), std::string::npos) << stat;
  }
  for (const auto& s : a.summaries) {
    EXPECT_EQ(s.config.model, ExecutionModel::kKMachine);
    ASSERT_TRUE(s.stat_means.contains("busiest_link_peak"));
    if (s.successes > 0) {
      // Aggregated headline rounds are the *converted* k-machine rounds.
      EXPECT_GT(s.rounds.median, 0.0);
      EXPECT_GT(s.stat_means.at("busiest_link_peak"), 0.0);
    }
  }
}

// The exact per-trial stats key set of each execution path.  Every model
// runs through one runner path, so a column may appear only where its
// attachment is: pricing stats only under kmachine, fault counters only
// under async, and no engine columns at all for the sequential oracles.
TEST(Artifact, TrialStatsKeySetsArePinnedPerModel) {
  using Keys = std::set<std::string>;
  const auto keys_of = [](std::map<std::string, std::string> spec) {
    spec.insert({{"sizes", "64"}, {"cs", "4"}, {"seeds", "1"}});
    const auto trials = expand(scenario_from_spec(spec));
    const TrialResult r = run_trial(trials.at(0));
    EXPECT_TRUE(r.success) << spec.at("algos") << ": " << r.failure_reason;
    Keys keys;
    for (const auto& [key, value] : r.stats) keys.insert(key);
    return keys;
  };
  const auto with = [](Keys base, const Keys& extra) {
    base.insert(extra.begin(), extra.end());
    return base;
  };

  const Keys instance = {"graph_connected", "graph_m", "mean_degree"};
  const Keys dhc2 = with(
      instance,
      {"aborted_partitions", "accounted_rounds", "arena_bytes_peak", "barrier_count",
       "bridges_built", "budget_aborts", "candidates_found", "dra_extensions", "dra_restarts",
       "dra_rotations", "dra_steps", "global_tree_depth", "merge_levels", "node_sent_p50",
       "node_sent_p95", "node_sent_p99", "num_colors", "phase_dra_rounds",
       "phase_global_setup_rounds", "phase_merge_rounds", "phase_partition_setup_rounds",
       "starved_aborts", "tiny_aborts", "verify_messages"});
  const Keys oracle = with(instance, {"extensions", "rotations", "steps"});

  EXPECT_EQ(keys_of({{"algos", "dhc2"}}), dhc2);
  EXPECT_EQ(keys_of({{"algos", "dhc2"}, {"model", "kmachine"}, {"machines", "4"}}),
            with(dhc2, {"busiest_link_peak", "congest_rounds", "cross_messages",
                        "kmachine_rounds", "local_messages"}));
  EXPECT_EQ(keys_of({{"algos", "dhc2"},
                     {"model", "async"},
                     {"delay_dist", "fixed:2"},
                     {"drop_prob", "0.01"},
                     {"reliability", "ack"}}),
            with(dhc2, {"acks_sent", "crash_dropped_messages", "crashed_nodes",
                        "crashed_rejoins", "crashed_steps", "delayed_messages",
                        "dropped_messages", "dup_suppressed", "hit_round_limit",
                        "payload_messages", "retransmits", "round_limit_live"}));
  EXPECT_EQ(keys_of({{"algos", "sequential"}}), oracle);
  EXPECT_EQ(keys_of({{"algos", "cre"}}), with(oracle, {"resamples"}));
}

std::string json_artifact(const std::map<std::string, std::string>& spec) {
  const Scenario s = scenario_from_spec(spec);
  const auto trials = expand(s);
  std::ostringstream js;
  write_json(js, s.name, aggregate(trials, run_trials(trials, {.threads = 2})));
  return js.str();
}

TEST(Artifact, EverySpellingOfAFaultSpecGivesOneArtifact) {
  // Each spec value is stored as its to_string() spelling at load, so two
  // spellings of one config give byte-identical artifacts.
  const std::map<std::string, std::string> base = {
      {"name", "spelling"}, {"algos", "dra"},          {"model", "async"},
      {"sizes", "32"},      {"deltas", "1.0"},         {"seeds", "1"},
      {"drop_prob", "0.05"}, {"reliability", "ack"}};
  struct Spelling {
    const char* key;
    const char* typed;
    const char* canonical;
  };
  for (const Spelling& sp : {Spelling{"delay_dist", "geometric:0.50", "geometric:0.5"},
                             Spelling{"delay_dist", "fixed:02", "fixed:2"},
                             Spelling{"rto", "rto:4", "rto:4:2:16"},
                             Spelling{"rto", "4:2:16", "rto:4:2:16"},
                             Spelling{"crash_schedule", "random:0.10:5:10", "random:0.1:5:10"}}) {
    auto typed = base;
    typed[sp.key] = sp.typed;
    auto canonical = base;
    canonical[sp.key] = sp.canonical;
    const std::string json = json_artifact(canonical);
    EXPECT_EQ(json_artifact(typed), json) << sp.key << "=" << sp.typed;
    EXPECT_NE(json.find(std::string("\"") + sp.canonical + "\""), std::string::npos)
        << sp.canonical;
  }
}

}  // namespace
}  // namespace dhc::runner
