// Unit tests for scenario parsing, validation, and cross-product expansion.
#include "runner/scenario.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dhc::runner {
namespace {

TEST(ParseAlgorithm, AcceptsAllSpellings) {
  EXPECT_EQ(parse_algorithm("sequential"), Algorithm::kSequential);
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
  for (const ExecutionModel m :
       {ExecutionModel::kCongest, ExecutionModel::kKMachine, ExecutionModel::kAsync}) {
    EXPECT_EQ(parse_execution_model(to_string(m)), m);
  }
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

TEST(ParseGraphFamily, PowerlawSpec) {
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

// Each value has one spelling, the one to_string prints; the retired
// aliases are errors, not synonyms.
TEST(ParseEnums, RetiredSpellingsThrow) {
  for (const char* alias : {"seq", "rotation", "collectall"}) {
    EXPECT_THROW(parse_algorithm(alias), std::invalid_argument) << alias;
  }
  EXPECT_THROW(parse_execution_model("k-machine"), std::invalid_argument);
  for (const char* alias : {"power-law", "chung-lu"}) {
    EXPECT_THROW(parse_graph_family(alias), std::invalid_argument) << alias;
  }
  for (const char* alias : {"min-forward", "full-queue"}) {
    EXPECT_THROW(parse_merge_strategy(alias), std::invalid_argument) << alias;
  }
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
  EXPECT_EQ(s.sizes, (std::vector<graph::NodeId>{128, 256}));
  EXPECT_EQ(s.deltas, (std::vector<double>{0.5, 0.75}));
  EXPECT_EQ(s.merges, (std::vector<core::MergeStrategy>{core::MergeStrategy::kFullQueue}));
  EXPECT_EQ(s.machines, (std::vector<std::uint32_t>{4, 8}));
  EXPECT_EQ(s.bandwidth, 16u);
  EXPECT_EQ(s.seeds, 7u);
  EXPECT_EQ(s.base_seed, 42u);
}

TEST(ScenarioFromSpec, RetiredKeysThrow) {
  EXPECT_THROW(scenario_from_spec({{"algo", "dhc2"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"model", "kmachine"}, {"k_list", "2,4,8"}}),
               std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"model", "kmachine"}, {"k", "4"}}), std::invalid_argument);
}

TEST(ScenarioFromSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(scenario_from_spec({{"bogus_key", "1"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"sizes", "128,abc"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"deltas", "0.5,,1.0"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"algos", "dhc9"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"seeds", "0"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"cs", ""}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"sizes", "12x"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"sizes", "64,"}}), std::invalid_argument);
  // Range-checked into the field's type before any cast: a negative count
  // never wraps to 2^64 - 1 trials, and n never wraps modulo 2^32.
  EXPECT_THROW(scenario_from_spec({{"seeds", "-1"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"seed", "-1"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"model", "async"}, {"max_rounds", "-1"}}),
               std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"sizes", "4294967312"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_spec({{"model", "kmachine"}, {"machines", "4294967298"}}),
               std::invalid_argument);
  // Fault and rto specs take the same strict numbers: no sign, no space.
  for (const char* delay : {"fixed: 2", "fixed:+2", "geometric: 0.5"}) {
    EXPECT_THROW(scenario_from_spec({{"model", "async"}, {"delay_dist", delay}}),
                 std::invalid_argument)
        << delay;
  }
  EXPECT_THROW(scenario_from_spec({{"model", "async"}, {"crash_schedule", "random:0.1:+5:10"}}),
               std::invalid_argument);
  for (const char* rto : {"rto: 4", "rto:+4:2:16"}) {
    EXPECT_THROW(scenario_from_spec({{"model", "async"}, {"rto", rto}}), std::invalid_argument)
        << rto;
  }
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
  EXPECT_EQ(s.sizes, (std::vector<graph::NodeId>{64, 128}));
  EXPECT_EQ(s.seeds, 9u);
}

TEST_F(ScenarioFileTest, RejectsMalformedFiles) {
  EXPECT_THROW(scenario_from_file("/nonexistent/path.scn"), std::invalid_argument);
  EXPECT_THROW(scenario_from_file(write_file("just some words\n")), std::invalid_argument);
  EXPECT_THROW(scenario_from_file(write_file("= 3\n")), std::invalid_argument);
  EXPECT_THROW(scenario_from_file(write_file("seeds = 3\nseeds = 4\n")), std::invalid_argument);
  EXPECT_THROW(scenario_from_file(write_file("frobnicate = yes\n")), std::invalid_argument);
  EXPECT_THROW(scenario_from_file(write_file("node_stats = full\n")), std::invalid_argument);
  EXPECT_THROW(scenario_from_file(write_file("seeds = -1\n")), std::invalid_argument);
  EXPECT_THROW(scenario_from_file(write_file("seed = -1\n")), std::invalid_argument);
  EXPECT_THROW(scenario_from_file(write_file("model = async\nmax_rounds = -1\n")),
               std::invalid_argument);
  EXPECT_THROW(scenario_from_file(write_file("sizes = 4294967312\n")), std::invalid_argument);
  EXPECT_THROW(scenario_from_file(write_file("model = kmachine\nmachines = 4294967298\n")),
               std::invalid_argument);
}

// One grammar: the same key=value pairs given to scenario_from_spec, written
// to a scenario file, or passed as flags give the same Scenario — or a throw
// from all three.
TEST_F(ScenarioFileTest, SameInputSameAnswerThroughSpecFileAndFlags) {
  using Pairs = std::vector<std::pair<std::string, std::string>>;
  const std::vector<std::pair<Pairs, bool>> rows = {
      // Malformed, out of range, or a retired spelling: every route throws.
      {{{"sizes", "300x"}}, false},
      {{{"seeds", "2.9"}}, false},
      {{{"model", "async"}, {"drop_prob", "0.01zz"}}, false},
      {{{"seeds", "-1"}}, false},
      {{{"model", "async"}, {"max_rounds", "-1"}}, false},
      {{{"sizes", "4294967312"}}, false},
      {{{"model", "kmachine"}, {"machines", "4294967298"}}, false},
      {{{"sizes", "64,"}}, false},
      {{{"deltas", "0.5,,1"}}, false},
      {{{"algo", "dhc2"}}, false},
      {{{"model", "kmachine"}, {"k_list", "4"}}, false},
      {{{"algos", "seq"}}, false},
      {{{"algos", "rotation"}}, false},
      {{{"algos", "collectall"}}, false},
      {{{"model", "k-machine"}}, false},
      {{{"family", "power-law"}}, false},
      {{{"family", "chung-lu"}}, false},
      {{{"merges", "min-forward"}}, false},
      {{{"merges", "full-queue"}}, false},
      // One valid row per spec key.
      {{{"name", "grammar"}}, true},
      {{{"algos", "dra,turau"}}, true},
      {{{"model", "async"}}, true},
      {{{"family", "powerlaw"}}, true},
      {{{"sizes", "64,4294967295"}}, true},
      {{{"deltas", "0.5,1"}}, true},
      {{{"cs", "2.5,1e1"}}, true},
      {{{"merges", "minforward,fullqueue"}}, true},
      {{{"model", "kmachine"}, {"machines", "2,16"}}, true},
      {{{"model", "kmachine"}, {"bandwidth", "16"}}, true},
      {{{"seeds", "7"}}, true},
      {{{"seed", "18446744073709551615"}}, true},
      {{{"model", "async"}, {"delay_dist", "fixed:2,uniform:1:3"}}, true},
      {{{"model", "async"}, {"drop_prob", "0,0.05"}}, true},
      {{{"model", "async"}, {"crash_schedule", "none,random:0.1:5:10"}}, true},
      {{{"model", "async"}, {"reliability", "none,ack"}}, true},
      {{{"model", "async"}, {"rto", "rto:8"}}, true},
      {{{"model", "async"}, {"max_rounds", "200000"}}, true},
  };
  const auto outcome = [](const std::function<Scenario()>& parse) -> std::optional<Scenario> {
    try {
      return parse();
    } catch (const std::invalid_argument&) {
      return std::nullopt;
    }
  };
  std::set<std::string> keys_with_a_valid_row;
  for (const auto& [pairs, valid] : rows) {
    std::map<std::string, std::string> spec;
    std::string file;
    std::vector<std::string> flags = {"prog"};
    for (const auto& [key, value] : pairs) {
      spec[key] = value;
      file += key + " = " + value + "\n";
      flags.push_back("--" + key + "=" + value);
    }
    SCOPED_TRACE(file);
    std::vector<const char*> argv;
    for (const auto& f : flags) argv.push_back(f.c_str());
    const auto from_spec = outcome([&] { return scenario_from_spec(spec); });
    const auto from_file = outcome([&] { return scenario_from_file(write_file(file)); });
    const auto from_cli = outcome([&] {
      // As dhc_run does: unknown flags first, then the scenario.
      const support::Cli cli(static_cast<int>(argv.size()), argv.data());
      cli.reject_unknown(scenario_flags());
      return scenario_from_cli(cli);
    });
    EXPECT_EQ(from_spec.has_value(), valid);
    EXPECT_EQ(from_file, from_spec);
    EXPECT_EQ(from_cli, from_spec);
    if (valid && from_spec) {
      EXPECT_NE(*from_spec, Scenario{});
      keys_with_a_valid_row.insert(pairs.back().first);
    }
  }
  std::set<std::string> spec_keys = scenario_flags();
  spec_keys.erase("scenario");
  EXPECT_EQ(keys_with_a_valid_row, spec_keys);
}

TEST_F(ScenarioFileTest, FlagsOverlayTheScenarioFile) {
  const std::string path = write_file("sizes = 64\nseeds = 3\n");
  const std::string scenario = "--scenario=" + path;
  const char* argv[] = {"prog", scenario.c_str(), "--sizes=128"};
  const auto s = scenario_from_cli(support::Cli(3, argv));
  EXPECT_EQ(s.sizes, (std::vector<graph::NodeId>{128}));
  EXPECT_EQ(s.seeds, 3u);
  // A flag is parsed like the file key it replaces.
  const char* bad[] = {"prog", scenario.c_str(), "--sizes=128x"};
  EXPECT_THROW(scenario_from_cli(support::Cli(3, bad)), std::invalid_argument);
}

TEST(ScenarioFromCli, FlagsOverrideDefaults) {
  const char* argv[] = {"prog", "--algos=dra,upcast", "--sizes=96", "--deltas=0.75",
                        "--seeds=11", "--seed=5"};
  const support::Cli cli(6, argv);
  const auto s = scenario_from_cli(cli);
  EXPECT_EQ(s.algos, (std::vector<Algorithm>{Algorithm::kDra, Algorithm::kUpcast}));
  EXPECT_EQ(s.sizes, (std::vector<graph::NodeId>{96}));
  EXPECT_EQ(s.deltas, (std::vector<double>{0.75}));
  EXPECT_EQ(s.seeds, 11u);
  EXPECT_EQ(s.base_seed, 5u);
}

TEST(ScenarioFromCli, ModelAndMachinesFlagsSelectTheKMachineBackend) {
  const char* argv[] = {"prog", "--model=kmachine", "--algos=turau", "--machines=4,8",
                        "--bandwidth=64"};
  const support::Cli cli(5, argv);
  const auto s = scenario_from_cli(cli);
  EXPECT_EQ(s.model, ExecutionModel::kKMachine);
  EXPECT_EQ(s.machines, (std::vector<std::uint32_t>{4, 8}));
  EXPECT_EQ(s.bandwidth, 64u);
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

TEST(ScenarioFromCli, ScenarioFlagsAreTheSpecKeysAndRejectTyposAndAliases) {
  EXPECT_EQ(scenario_flags().size(), 19u);  // 18 spec keys + --scenario
  const char* argv[] = {"prog", "--scenario=f.scn", "--algos=dra", "--machines=4", "--seeds=2"};
  EXPECT_NO_THROW(support::Cli(5, argv).reject_unknown(scenario_flags()));
  for (const char* flag : {"--sizez=64", "--node_stats=full", "--algo=dra", "--k=4",
                           "--k_list=4"}) {
    const char* bad[] = {"prog", flag};
    EXPECT_THROW(support::Cli(2, bad).reject_unknown(scenario_flags()), std::invalid_argument)
        << flag;
  }
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
                             "mem-probe", "fault-sweep",
                             "mem-flatten", "perf-smoke"}) {
    EXPECT_TRUE(names.contains(preset)) << preset;
  }
}

}  // namespace
}  // namespace dhc::runner
