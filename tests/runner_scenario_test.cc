// Unit tests for scenario parsing, validation, and cross-product expansion.
#include "runner/scenario.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

namespace dhc::runner {
namespace {

TEST(ParseAlgorithm, AcceptsAllSpellings) {
  EXPECT_EQ(parse_algorithm("sequential"), Algorithm::kSequential);
  EXPECT_EQ(parse_algorithm("seq"), Algorithm::kSequential);
  EXPECT_EQ(parse_algorithm("dra"), Algorithm::kDra);
  EXPECT_EQ(parse_algorithm("dhc1"), Algorithm::kDhc1);
  EXPECT_EQ(parse_algorithm("dhc2"), Algorithm::kDhc2);
  EXPECT_EQ(parse_algorithm("upcast"), Algorithm::kUpcast);
  EXPECT_EQ(parse_algorithm("collect-all"), Algorithm::kCollectAll);
  EXPECT_EQ(parse_algorithm("turau"), Algorithm::kTurau);
}

TEST(ParseAlgorithm, RoundTripsThroughToString) {
  for (const Algorithm a :
       {Algorithm::kSequential, Algorithm::kDra, Algorithm::kDhc1, Algorithm::kDhc2,
        Algorithm::kUpcast, Algorithm::kCollectAll, Algorithm::kTurau, Algorithm::kCre}) {
    EXPECT_EQ(parse_algorithm(to_string(a)), a);
  }
}

TEST(ParseAlgorithm, RejectsUnknown) {
  EXPECT_THROW(parse_algorithm("dhc3"), std::invalid_argument);
  EXPECT_THROW(parse_algorithm(""), std::invalid_argument);
  // The legacy alias is gone: k-machine pricing is the model axis.
  EXPECT_THROW(parse_algorithm("dhc2-kmachine"), std::invalid_argument);
}

TEST(ParseExecutionModel, RoundTripsAndRejects) {
  for (const ExecutionModel m : {ExecutionModel::kCongest, ExecutionModel::kKMachine}) {
    EXPECT_EQ(parse_execution_model(to_string(m)), m);
  }
  EXPECT_EQ(parse_execution_model("k-machine"), ExecutionModel::kKMachine);
  EXPECT_THROW(parse_execution_model("pram"), std::invalid_argument);
  EXPECT_THROW(parse_execution_model(""), std::invalid_argument);
}

TEST(ParseGraphFamily, RoundTripsAndRejects) {
  for (const GraphFamily f : {GraphFamily::kGnp, GraphFamily::kGnm, GraphFamily::kRegular,
                              GraphFamily::kPowerlaw}) {
    EXPECT_EQ(parse_graph_family(to_string(f)), f);
  }
  EXPECT_THROW(parse_graph_family("smallworld"), std::invalid_argument);
}

TEST(ParseGraphFamily, PowerlawSpellingsAndSpec) {
  EXPECT_EQ(parse_graph_family("powerlaw"), GraphFamily::kPowerlaw);
  EXPECT_EQ(parse_graph_family("power-law"), GraphFamily::kPowerlaw);
  EXPECT_EQ(parse_graph_family("chung-lu"), GraphFamily::kPowerlaw);
  const Scenario s = scenario_from_spec({{"family", "powerlaw"}, {"sizes", "64"}});
  EXPECT_EQ(s.family, GraphFamily::kPowerlaw);
  const auto trials = expand(s);
  ASSERT_FALSE(trials.empty());
  EXPECT_EQ(trials[0].family, GraphFamily::kPowerlaw);
}

TEST(ParseMergeStrategy, RoundTripsAndRejects) {
  EXPECT_EQ(parse_merge_strategy("minforward"), core::MergeStrategy::kMinForward);
  EXPECT_EQ(parse_merge_strategy("fullqueue"), core::MergeStrategy::kFullQueue);
  EXPECT_THROW(parse_merge_strategy("greedy"), std::invalid_argument);
}

TEST(ScenarioValidate, DefaultIsValid) { EXPECT_NO_THROW(Scenario{}.validate()); }

TEST(ScenarioValidate, RejectsOutOfRangeFields) {
  {
    Scenario s;
    s.algos.clear();
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    Scenario s;
    s.sizes = {2};
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    Scenario s;
    s.deltas = {0.0};
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    Scenario s;
    s.deltas = {1.5};
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    Scenario s;
    s.cs = {-1.0};
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    Scenario s;
    s.seeds = 0;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    Scenario s;
    s.machines = {1};
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    // The sequential baseline has no CONGEST execution to price.
    Scenario s;
    s.model = ExecutionModel::kKMachine;
    s.algos = {Algorithm::kSequential};
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
}

TEST(Expand, CrossProductCountsAndOrder) {
  Scenario s;
  s.algos = {Algorithm::kDhc2};
  s.sizes = {64, 128};
  s.deltas = {0.5, 1.0};
  s.cs = {2.0, 3.0};
  s.merges = {core::MergeStrategy::kMinForward, core::MergeStrategy::kFullQueue};
  s.seeds = 3;
  const auto trials = expand(s);
  // 2 sizes × 2 deltas × 2 cs × 2 merges = 16 cells, 3 trials each.
  EXPECT_EQ(trials.size(), 48u);
  EXPECT_EQ(trials.back().config_index, 15u);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].config_index, i / 3);
    EXPECT_EQ(trials[i].trial_index, i % 3);
  }
}

TEST(Expand, MergeStrategiesOnlyMultiplyDhc2Algorithms) {
  Scenario s;
  s.algos = {Algorithm::kDra};
  s.merges = {core::MergeStrategy::kMinForward, core::MergeStrategy::kFullQueue};
  s.seeds = 2;
  // DRA has no merge phase: one cell, not two.
  EXPECT_EQ(expand(s).size(), 2u);
}

TEST(Expand, MachinesOnlyMultiplyKMachineModel) {
  Scenario s;
  s.algos = {Algorithm::kDhc2};
  s.machines = {4, 8, 16};
  s.seeds = 1;
  // congest: 1 cell, no machines.
  const auto plain = expand(s);
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(plain[0].machines, 0u);
  EXPECT_EQ(plain[0].model, ExecutionModel::kCongest);
  // kmachine: one cell per machine count.
  s.model = ExecutionModel::kKMachine;
  const auto priced = expand(s);
  ASSERT_EQ(priced.size(), 3u);
  EXPECT_EQ(priced[0].machines, 4u);
  EXPECT_EQ(priced[0].model, ExecutionModel::kKMachine);
  EXPECT_EQ(priced[2].machines, 16u);
  EXPECT_EQ(priced[2].bandwidth, static_cast<std::uint64_t>(s.bandwidth));
}

TEST(Expand, KMachineModelSweepsMachinesForEveryAlgorithm) {
  Scenario s;
  s.model = ExecutionModel::kKMachine;
  s.algos = {Algorithm::kDra, Algorithm::kTurau};
  s.machines = {4, 8, 16};
  s.seeds = 2;
  const auto trials = expand(s);
  // 2 algorithms × 3 machine counts = 6 cells, 2 trials each.
  EXPECT_EQ(trials.size(), 12u);
  for (const auto& t : trials) {
    EXPECT_EQ(t.model, ExecutionModel::kKMachine);
    EXPECT_GE(t.machines, 4u);
    EXPECT_EQ(t.bandwidth, static_cast<std::uint64_t>(s.bandwidth));
  }
  EXPECT_EQ(trials[0].algo, Algorithm::kDra);
  EXPECT_EQ(trials.back().algo, Algorithm::kTurau);
  EXPECT_EQ(trials.back().machines, 16u);
  // Cells differing only in the machine count share graph *and* algorithm
  // seeds: they price the same underlying execution at different k.
  for (const auto& a : trials) {
    for (const auto& b : trials) {
      if (a.algo == b.algo && a.trial_index == b.trial_index) {
        EXPECT_EQ(a.algo_seed, b.algo_seed);
        EXPECT_EQ(a.graph_seed, b.graph_seed);
      } else if (a.algo != b.algo && a.trial_index == b.trial_index) {
        EXPECT_NE(a.algo_seed, b.algo_seed);
      }
    }
  }
}

TEST(Expand, GraphSeedsPairTrialsAcrossAlgorithmsAndMerges) {
  Scenario s;
  s.algos = {Algorithm::kDhc1, Algorithm::kDhc2, Algorithm::kUpcast};
  s.merges = {core::MergeStrategy::kMinForward, core::MergeStrategy::kFullQueue};
  s.seeds = 2;
  const auto trials = expand(s);
  // Same (family, n, delta, c, trial) → same instance, regardless of
  // algorithm or merge strategy; solver randomness stays per-cell.
  for (const auto& a : trials) {
    for (const auto& b : trials) {
      if (a.trial_index == b.trial_index) {
        EXPECT_EQ(a.graph_seed, b.graph_seed);
      } else {
        EXPECT_NE(a.graph_seed, b.graph_seed);
      }
      if (a.config_index != b.config_index || a.trial_index != b.trial_index) {
        EXPECT_NE(a.algo_seed, b.algo_seed);
      }
    }
  }
  // Different instance parameters break the pairing.
  Scenario other = s;
  other.cs = {9.0};
  EXPECT_NE(expand(other)[0].graph_seed, trials[0].graph_seed);
}

TEST(Expand, SeedsAreDeterministicAndDistinct) {
  Scenario s;
  s.seeds = 4;
  const auto a = expand(s);
  const auto b = expand(s);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].graph_seed, b[i].graph_seed);
    EXPECT_EQ(a[i].algo_seed, b[i].algo_seed);
    EXPECT_NE(a[i].graph_seed, a[i].algo_seed);
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      EXPECT_NE(a[i].graph_seed, a[j].graph_seed);
    }
  }
  Scenario other = s;
  other.base_seed = s.base_seed + 1;
  EXPECT_NE(expand(other)[0].graph_seed, a[0].graph_seed);
}

TEST(ScenarioFromSpec, ParsesEveryKey) {
  const auto s = scenario_from_spec({{"name", "sweep"},
                                     {"algos", "dra,dhc2"},
                                     {"model", "kmachine"},
                                     {"family", "gnm"},
                                     {"sizes", "128,256"},
                                     {"deltas", "0.5,0.75"},
                                     {"cs", "2.5"},
                                     {"merges", "fullqueue"},
                                     {"machines", "4,8"},
                                     {"bandwidth", "16"},
                                     {"seeds", "7"},
                                     {"seed", "42"}});
  EXPECT_EQ(s.name, "sweep");
  ASSERT_EQ(s.algos.size(), 2u);
  EXPECT_EQ(s.algos[1], Algorithm::kDhc2);
  EXPECT_EQ(s.model, ExecutionModel::kKMachine);
  EXPECT_EQ(s.family, GraphFamily::kGnm);
  EXPECT_EQ(s.sizes, (std::vector<std::int64_t>{128, 256}));
  EXPECT_EQ(s.deltas, (std::vector<double>{0.5, 0.75}));
  EXPECT_EQ(s.merges, (std::vector<core::MergeStrategy>{core::MergeStrategy::kFullQueue}));
  EXPECT_EQ(s.machines, (std::vector<std::int64_t>{4, 8}));
  EXPECT_EQ(s.bandwidth, 16);
  EXPECT_EQ(s.seeds, 7u);
  EXPECT_EQ(s.base_seed, 42u);
}

TEST(ScenarioFromSpec, KListIsAnAliasForMachines) {
  const auto s = scenario_from_spec({{"model", "kmachine"}, {"k_list", "2,4,8"}});
  EXPECT_EQ(s.machines, (std::vector<std::int64_t>{2, 4, 8}));
  // Both aliases at once is ambiguous, in files and on the CLI alike.
  EXPECT_THROW(scenario_from_spec({{"machines", "8"}, {"k_list", "2,4"}}),
               std::invalid_argument);
}

TEST(ScenarioFromSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(scenario_from_spec({{"bogus_key", "1"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"sizes", "128,abc"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"deltas", "0.5,,1.0"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"algos", "dhc9"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"seeds", "0"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"cs", ""}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"sizes", "12x"}}), std::invalid_argument);
}

class ScenarioFileTest : public ::testing::Test {
 protected:
  std::string write_file(const std::string& contents) {
    const std::string path = ::testing::TempDir() + "dhc_scenario_test.scn";
    std::ofstream out(path);
    out << contents;
    return path;
  }
};

TEST_F(ScenarioFileTest, ParsesKeyValueLinesWithCommentsAndBlanks) {
  const auto path = write_file(
      "# threshold sweep\n"
      "name = threshold\n"
      "\n"
      "algos = dra\n"
      "sizes = 64,128   # two sizes\n"
      "deltas = 1.0\n"
      "seeds = 9\n");
  const auto s = scenario_from_file(path);
  EXPECT_EQ(s.name, "threshold");
  EXPECT_EQ(s.algos, (std::vector<Algorithm>{Algorithm::kDra}));
  EXPECT_EQ(s.sizes, (std::vector<std::int64_t>{64, 128}));
  EXPECT_EQ(s.seeds, 9u);
}

TEST_F(ScenarioFileTest, RejectsMalformedFiles) {
  EXPECT_THROW(scenario_from_file("/nonexistent/path.scn"), std::invalid_argument);
  EXPECT_THROW(scenario_from_file(write_file("just some words\n")), std::invalid_argument);
  EXPECT_THROW(scenario_from_file(write_file("= 3\n")), std::invalid_argument);
  EXPECT_THROW(scenario_from_file(write_file("seeds = 3\nseeds = 4\n")), std::invalid_argument);
  EXPECT_THROW(scenario_from_file(write_file("frobnicate = yes\n")), std::invalid_argument);
}

TEST(ScenarioFromCli, FlagsOverrideDefaults) {
  const char* argv[] = {"prog", "--algos=dra,upcast", "--sizes=96", "--deltas=0.75",
                        "--seeds=11", "--seed=5"};
  const support::Cli cli(6, argv);
  const auto s = scenario_from_cli(cli);
  EXPECT_EQ(s.algos, (std::vector<Algorithm>{Algorithm::kDra, Algorithm::kUpcast}));
  EXPECT_EQ(s.sizes, (std::vector<std::int64_t>{96}));
  EXPECT_EQ(s.deltas, (std::vector<double>{0.75}));
  EXPECT_EQ(s.seeds, 11u);
  EXPECT_EQ(s.base_seed, 5u);
}

TEST(ScenarioFromCli, ModelAndKFlagsSelectTheKMachineBackend) {
  const char* argv[] = {"prog", "--model=kmachine", "--algos=turau", "--k=4,8",
                        "--bandwidth=64"};
  const support::Cli cli(5, argv);
  const auto s = scenario_from_cli(cli);
  EXPECT_EQ(s.model, ExecutionModel::kKMachine);
  EXPECT_EQ(s.machines, (std::vector<std::int64_t>{4, 8}));
  EXPECT_EQ(s.bandwidth, 64);
  const auto trials = expand(s);
  ASSERT_FALSE(trials.empty());
  EXPECT_EQ(trials[0].model, ExecutionModel::kKMachine);
  EXPECT_EQ(trials[0].algo, Algorithm::kTurau);
  EXPECT_EQ(trials[0].machines, 4u);
}

TEST(ScenarioFromCli, RejectsMalformedFlags) {
  const char* argv[] = {"prog", "--algos=warp"};
  const support::Cli cli(2, argv);
  EXPECT_THROW(scenario_from_cli(cli), std::invalid_argument);
}

TEST(ScenarioFromCli, ScenarioFlagsAcceptAliasesAndRejectTypos) {
  const char* argv[] = {"prog", "--scenario=f.scn", "--algo=dra", "--k=4", "--seeds=2"};
  EXPECT_NO_THROW(support::Cli(5, argv).reject_unknown(scenario_flags()));
  const char* typo[] = {"prog", "--sizez=64"};
  EXPECT_THROW(support::Cli(2, typo).reject_unknown(scenario_flags()), std::invalid_argument);
}

// The workload scenarios under bench/scenarios/ (DHC_BENCH_DIR is the bench/
// directory): a malformed file fails here, not only in the workload check.
std::set<std::string> bench_scenario_names() {
  std::set<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::filesystem::path(DHC_BENCH_DIR) / "scenarios")) {
    if (entry.path().extension() == ".scn") names.insert(entry.path().stem().string());
  }
  return names;
}

TEST(BenchScenarios, EveryFileParsesValidatesAndExpands) {
  const auto names = bench_scenario_names();
  ASSERT_FALSE(names.empty());
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    const Scenario s =
        scenario_from_file(std::string(DHC_BENCH_DIR) + "/scenarios/" + name + ".scn");
    EXPECT_NO_THROW(s.validate());
    EXPECT_GE(expand(s).size(), 1u);
  }
}

TEST(BenchScenarios, EveryGoldenHasAScenarioAndEveryFormerPresetExists) {
  const auto names = bench_scenario_names();
  for (const auto& entry :
       std::filesystem::directory_iterator(std::filesystem::path(DHC_BENCH_DIR) / "golden")) {
    EXPECT_TRUE(names.contains(entry.path().stem().string())) << entry.path();
  }
  for (const char* preset : {"comparison", "comparison-1k", "dhc2-grid", "kmachine-sweep",
                             "mem-probe-full", "mem-probe-streaming", "fault-sweep",
                             "mem-flatten", "perf-smoke"}) {
    EXPECT_TRUE(names.contains(preset)) << preset;
  }
}

}  // namespace
}  // namespace dhc::runner
