#include "runner/scenario.h"

#include <bit>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>

#include "congest/fault_plan.h"
#include "support/require.h"
#include "support/rng.h"

namespace dhc::runner {

std::string to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kSequential: return "sequential";
    case Algorithm::kDra: return "dra";
    case Algorithm::kDhc1: return "dhc1";
    case Algorithm::kDhc2: return "dhc2";
    case Algorithm::kUpcast: return "upcast";
    case Algorithm::kCollectAll: return "collect-all";
    case Algorithm::kTurau: return "turau";
    case Algorithm::kCre: return "cre";
  }
  return "?";
}

std::string to_string(ExecutionModel m) {
  switch (m) {
    case ExecutionModel::kCongest: return "congest";
    case ExecutionModel::kKMachine: return "kmachine";
    case ExecutionModel::kAsync: return "async";
  }
  return "?";
}

std::string to_string(GraphFamily f) {
  switch (f) {
    case GraphFamily::kGnp: return "gnp";
    case GraphFamily::kGnm: return "gnm";
    case GraphFamily::kRegular: return "regular";
    case GraphFamily::kPowerlaw: return "powerlaw";
  }
  return "?";
}

std::string to_string(core::MergeStrategy s) {
  return s == core::MergeStrategy::kMinForward ? "minforward" : "fullqueue";
}

Algorithm parse_algorithm(const std::string& s) {
  if (s == "sequential" || s == "seq" || s == "rotation") return Algorithm::kSequential;
  if (s == "dra") return Algorithm::kDra;
  if (s == "dhc1") return Algorithm::kDhc1;
  if (s == "dhc2") return Algorithm::kDhc2;
  if (s == "upcast") return Algorithm::kUpcast;
  if (s == "collect-all" || s == "collectall") return Algorithm::kCollectAll;
  if (s == "turau") return Algorithm::kTurau;
  if (s == "cre") return Algorithm::kCre;
  throw std::invalid_argument("unknown algorithm '" + s +
                              "' (expected sequential|dra|dhc1|dhc2|upcast|collect-all|"
                              "turau|cre)");
}

ExecutionModel parse_execution_model(const std::string& s) {
  if (s == "congest") return ExecutionModel::kCongest;
  if (s == "kmachine" || s == "k-machine") return ExecutionModel::kKMachine;
  if (s == "async") return ExecutionModel::kAsync;
  throw std::invalid_argument("unknown execution model '" + s +
                              "' (expected congest|kmachine|async)");
}

GraphFamily parse_graph_family(const std::string& s) {
  if (s == "gnp") return GraphFamily::kGnp;
  if (s == "gnm") return GraphFamily::kGnm;
  if (s == "regular") return GraphFamily::kRegular;
  if (s == "powerlaw" || s == "power-law" || s == "chung-lu") return GraphFamily::kPowerlaw;
  throw std::invalid_argument("unknown graph family '" + s +
                              "' (expected gnp|gnm|regular|powerlaw)");
}

core::MergeStrategy parse_merge_strategy(const std::string& s) {
  if (s == "minforward" || s == "min-forward") return core::MergeStrategy::kMinForward;
  if (s == "fullqueue" || s == "full-queue") return core::MergeStrategy::kFullQueue;
  throw std::invalid_argument("unknown merge strategy '" + s +
                              "' (expected minforward|fullqueue)");
}

void Scenario::validate() const {
  DHC_REQUIRE(!name.empty(), "scenario name must not be empty");
  DHC_REQUIRE(!algos.empty(), "scenario needs at least one algorithm");
  DHC_REQUIRE(!sizes.empty(), "scenario needs at least one graph size");
  DHC_REQUIRE(!deltas.empty(), "scenario needs at least one delta");
  DHC_REQUIRE(!cs.empty(), "scenario needs at least one density constant c");
  DHC_REQUIRE(!merges.empty(), "scenario needs at least one merge strategy");
  DHC_REQUIRE(!machines.empty(), "scenario needs at least one machine count");
  DHC_REQUIRE(seeds >= 1, "seeds must be >= 1");
  DHC_REQUIRE(bandwidth >= 1, "k-machine bandwidth must be >= 1");
  for (const auto n : sizes) {
    DHC_REQUIRE(n >= 4, "graph size must be >= 4, got " << n);
  }
  for (const double d : deltas) {
    DHC_REQUIRE(d > 0.0 && d <= 1.0, "delta must lie in (0, 1], got " << d);
  }
  for (const double c : cs) {
    DHC_REQUIRE(c > 0.0, "density constant c must be positive, got " << c);
  }
  for (const auto k : machines) {
    DHC_REQUIRE(k >= 2, "machine count must be >= 2, got " << k);
  }
  if (model == ExecutionModel::kKMachine) {
    for (const Algorithm a : algos) {
      DHC_REQUIRE(a != Algorithm::kSequential && a != Algorithm::kCre,
                  "the sequential baselines have no CONGEST execution to price "
                  "in the k-machine model");
    }
  }
  DHC_REQUIRE(!delay_dists.empty(), "scenario needs at least one delay distribution");
  DHC_REQUIRE(!drop_probs.empty(), "scenario needs at least one drop probability");
  DHC_REQUIRE(!crash_schedules.empty(), "scenario needs at least one crash schedule");
  DHC_REQUIRE(!reliabilities.empty(), "scenario needs at least one reliability mode");
  for (const auto& spec : delay_dists) congest::DelaySpec::parse(spec);  // throws if malformed
  for (const auto& spec : crash_schedules) congest::CrashSpec::parse(spec);
  for (const auto& spec : reliabilities) congest::ReliabilitySpec::parse(spec);
  congest::RtoSpec::parse(rto);
  for (const double p : drop_probs) {
    DHC_REQUIRE(p >= 0.0 && p < 1.0, "drop_prob must lie in [0, 1), got " << p);
  }
  if (model == ExecutionModel::kAsync) {
    for (const Algorithm a : algos) {
      DHC_REQUIRE(a != Algorithm::kSequential && a != Algorithm::kCre,
                  "the sequential baselines have no CONGEST execution to run asynchronously");
    }
  } else {
    const bool faults_requested = delay_dists != std::vector<std::string>{"none"} ||
                                  drop_probs != std::vector<double>{0.0} ||
                                  crash_schedules != std::vector<std::string>{"none"};
    DHC_REQUIRE(!faults_requested,
                "delay_dist / drop_prob / crash_schedule need model = async");
    const bool reliability_requested =
        reliabilities != std::vector<std::string>{"none"} || rto != Scenario{}.rto;
    DHC_REQUIRE(!reliability_requested, "reliability / rto need model = async");
    DHC_REQUIRE(max_rounds == 0, "max_rounds needs model = async");
  }
}

namespace {

/// Derives a nonzero per-trial seed by folding words into a splitmix64
/// chain — stable across platforms and independent of execution order.
std::uint64_t derive_seed(std::uint64_t base, std::initializer_list<std::uint64_t> words,
                          std::uint64_t salt) {
  std::uint64_t state = base;
  std::uint64_t h = support::splitmix64(state);
  for (const std::uint64_t w : words) {
    state ^= w;
    h ^= support::splitmix64(state);
  }
  state ^= salt;
  h ^= support::splitmix64(state);
  return h | 1;
}

}  // namespace

std::vector<TrialConfig> expand(const Scenario& s) {
  s.validate();
  std::vector<TrialConfig> trials;
  std::size_t cell = 0;
  // Seed identity of a cell *excluding* the machine-count axis: k-machine
  // cells that differ only in k draw the same algo_seed, so they run — and
  // price — the *same* underlying CONGEST execution (the partition seed is
  // the algo_seed too).  In scenarios without a multi-k axis the machines
  // loop has one iteration everywhere and seed_group advances in lockstep
  // with cell, so their seeds are unchanged; a multi-k sweep necessarily
  // renumbers the seeds of any algorithms listed after it.
  std::size_t seed_group = 0;
  static const std::vector<std::int64_t> kNoMachines = {0};
  static const std::vector<core::MergeStrategy> kDefaultMerge = {
      core::MergeStrategy::kMinForward};
  static const std::vector<std::string> kNoFaultSpec = {"none"};
  static const std::vector<double> kNoDrop = {0.0};
  for (const Algorithm algo : s.algos) {
    const bool kmachine = s.model == ExecutionModel::kKMachine;
    const bool async = s.model == ExecutionModel::kAsync;
    const auto& merges = algo == Algorithm::kDhc2 ? s.merges : kDefaultMerge;
    const auto& machines = kmachine ? s.machines : kNoMachines;
    // The fault axes iterate only under model = async (validate() already
    // rejects non-default axes elsewhere), so non-async scenarios keep the
    // exact loop structure — and therefore the exact cell numbering and
    // seeds — they always had.
    const auto& delay_axis = async ? s.delay_dists : kNoFaultSpec;
    const auto& drop_axis = async ? s.drop_probs : kNoDrop;
    const auto& crash_axis = async ? s.crash_schedules : kNoFaultSpec;
    const auto& reliability_axis = async ? s.reliabilities : kNoFaultSpec;
    for (const auto size : s.sizes) {
      for (const double delta : s.deltas) {
        for (const double c : s.cs) {
          for (const core::MergeStrategy merge : merges) {
            for (const auto k : machines) {
              for (const auto& delay_dist : delay_axis) {
                for (const double drop_prob : drop_axis) {
                  for (const auto& crash_schedule : crash_axis) {
                    for (const auto& reliability : reliability_axis) {
                      for (std::uint64_t t = 0; t < s.seeds; ++t) {
                        TrialConfig tc;
                        tc.config_index = cell;
                        tc.trial_index = t;
                        tc.algo = algo;
                        tc.model = kmachine ? ExecutionModel::kKMachine
                                            : (async ? ExecutionModel::kAsync
                                                     : ExecutionModel::kCongest);
                        tc.family = s.family;
                        tc.n = static_cast<graph::NodeId>(size);
                        tc.delta = delta;
                        tc.c = c;
                        tc.merge = merge;
                        tc.machines = static_cast<std::uint32_t>(k);
                        tc.bandwidth = kmachine ? static_cast<std::uint64_t>(s.bandwidth) : 0;
                        tc.delay_dist = delay_dist;
                        tc.drop_prob = drop_prob;
                        tc.crash_schedule = crash_schedule;
                        tc.reliability = reliability;
                        tc.rto = async ? s.rto : "";
                        tc.max_rounds = async ? s.max_rounds : 0;
                        // The graph seed depends only on the instance
                        // parameters, so trials that differ in algorithm /
                        // merge strategy / machine count / fault intensity
                        // but share (family, n, delta, c, trial) run on the
                        // *same* graph — head-to-head comparisons are paired
                        // by construction.  The algorithm seed is per
                        // seed_group: per-cell except that the machine-count,
                        // fault, and reliability axes are excluded, so cells
                        // differing only in k, fault intensity, or transport
                        // reliability run the same underlying execution
                        // (faults perturb it from identical initial
                        // randomness).
                        tc.graph_seed = derive_seed(
                            s.base_seed,
                            {static_cast<std::uint64_t>(s.family),
                             static_cast<std::uint64_t>(tc.n),
                             std::bit_cast<std::uint64_t>(delta),
                             std::bit_cast<std::uint64_t>(c), t},
                            0x67);
                        tc.algo_seed = derive_seed(s.base_seed, {seed_group, t}, 0xa1);
                        trials.push_back(tc);
                      }
                      ++cell;
                    }
                  }
                }
              }
            }
            ++seed_group;
          }
        }
      }
    }
  }
  return trials;
}

namespace {

std::vector<std::string> split_commas(const std::string& key, const std::string& value) {
  if (value.empty()) throw std::invalid_argument("scenario key '" + key + "' has an empty value");
  std::vector<std::string> parts;
  std::istringstream is(value);
  std::string part;
  while (std::getline(is, part, ',')) {
    if (part.empty()) {
      throw std::invalid_argument("scenario key '" + key + "' has an empty list element in '" +
                                  value + "'");
    }
    parts.push_back(part);
  }
  return parts;
}

std::int64_t parse_int(const std::string& key, const std::string& value) {
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(value, &pos);
    if (pos != value.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("scenario key '" + key + "' expects an integer, got '" + value +
                                "'");
  }
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("scenario key '" + key + "' expects a number, got '" + value +
                                "'");
  }
}

std::vector<std::int64_t> parse_int_list(const std::string& key, const std::string& value) {
  std::vector<std::int64_t> out;
  for (const auto& part : split_commas(key, value)) out.push_back(parse_int(key, part));
  return out;
}

std::vector<double> parse_double_list(const std::string& key, const std::string& value) {
  std::vector<double> out;
  for (const auto& part : split_commas(key, value)) out.push_back(parse_double(key, part));
  return out;
}

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

}  // namespace

Scenario scenario_from_spec(const std::map<std::string, std::string>& spec) {
  if (spec.contains("machines") && spec.contains("k_list")) {
    throw std::invalid_argument("scenario keys 'machines' and 'k_list' are aliases; "
                                "use only one");
  }
  Scenario s;
  for (const auto& [key, value] : spec) {
    if (key == "name") {
      s.name = value;
    } else if (key == "algo" || key == "algos") {
      s.algos.clear();
      for (const auto& part : split_commas(key, value)) s.algos.push_back(parse_algorithm(part));
    } else if (key == "model") {
      s.model = parse_execution_model(value);
    } else if (key == "family") {
      s.family = parse_graph_family(value);
    } else if (key == "sizes") {
      s.sizes = parse_int_list(key, value);
    } else if (key == "deltas") {
      s.deltas = parse_double_list(key, value);
    } else if (key == "cs") {
      s.cs = parse_double_list(key, value);
    } else if (key == "merges") {
      s.merges.clear();
      for (const auto& part : split_commas(key, value)) {
        s.merges.push_back(parse_merge_strategy(part));
      }
    } else if (key == "machines" || key == "k_list") {
      s.machines = parse_int_list(key, value);
    } else if (key == "bandwidth") {
      s.bandwidth = parse_int(key, value);
    } else if (key == "seeds") {
      s.seeds = static_cast<std::uint64_t>(parse_int(key, value));
    } else if (key == "seed") {
      s.base_seed = static_cast<std::uint64_t>(parse_int(key, value));
    } else if (key == "delay_dist") {
      s.delay_dists = split_commas(key, value);
    } else if (key == "drop_prob") {
      s.drop_probs = parse_double_list(key, value);
    } else if (key == "crash_schedule") {
      s.crash_schedules = split_commas(key, value);
    } else if (key == "reliability") {
      s.reliabilities = split_commas(key, value);
    } else if (key == "rto") {
      s.rto = value;
    } else if (key == "max_rounds") {
      s.max_rounds = static_cast<std::uint64_t>(parse_int(key, value));
    } else {
      throw std::invalid_argument("unknown scenario key '" + key + "'");
    }
  }
  s.validate();
  return s;
}

Scenario scenario_from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open scenario file '" + path + "'");
  std::map<std::string, std::string> spec;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument(path + ":" + std::to_string(lineno) +
                                  ": expected key = value, got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw std::invalid_argument(path + ":" + std::to_string(lineno) + ": empty key");
    }
    if (spec.contains(key)) {
      throw std::invalid_argument(path + ":" + std::to_string(lineno) + ": duplicate key '" +
                                  key + "'");
    }
    spec[key] = value;
  }
  return scenario_from_spec(spec);
}

Scenario scenario_from_cli(const support::Cli& cli) {
  Scenario s;
  if (cli.has("scenario")) s = scenario_from_file(cli.get_string("scenario", ""));
  s.name = cli.get_string("name", s.name);
  for (const char* key : {"algo", "algos"}) {
    if (!cli.has(key)) continue;
    s.algos.clear();
    for (const auto& part : split_commas(key, cli.get_string(key, ""))) {
      s.algos.push_back(parse_algorithm(part));
    }
  }
  if (cli.has("model")) s.model = parse_execution_model(cli.get_string("model", ""));
  if (cli.has("family")) s.family = parse_graph_family(cli.get_string("family", ""));
  if (cli.has("sizes")) s.sizes = cli.get_int_list("sizes", {});
  if (cli.has("deltas")) s.deltas = cli.get_double_list("deltas", {});
  if (cli.has("cs")) s.cs = cli.get_double_list("cs", {});
  if (cli.has("merges")) {
    s.merges.clear();
    for (const auto& part : split_commas("merges", cli.get_string("merges", ""))) {
      s.merges.push_back(parse_merge_strategy(part));
    }
  }
  {
    // --machines / --k / --k_list are aliases; more than one is ambiguous.
    const char* seen = nullptr;
    for (const char* key : {"machines", "k", "k_list"}) {
      if (!cli.has(key)) continue;
      if (seen != nullptr) {
        throw std::invalid_argument(std::string("flags --") + seen + " and --" + key +
                                    " are aliases; pass only one");
      }
      seen = key;
      s.machines = cli.get_int_list(key, {});
    }
  }
  if (cli.has("bandwidth")) s.bandwidth = cli.get_int("bandwidth", s.bandwidth);
  if (cli.has("seeds")) s.seeds = static_cast<std::uint64_t>(cli.get_int("seeds", 0));
  if (cli.has("seed")) s.base_seed = static_cast<std::uint64_t>(cli.get_int("seed", 0));
  if (cli.has("delay_dist")) {
    s.delay_dists = split_commas("delay_dist", cli.get_string("delay_dist", ""));
  }
  if (cli.has("drop_prob")) s.drop_probs = cli.get_double_list("drop_prob", {});
  if (cli.has("max_rounds")) {
    s.max_rounds = static_cast<std::uint64_t>(cli.get_int("max_rounds", 0));
  }
  if (cli.has("crash_schedule")) {
    s.crash_schedules = split_commas("crash_schedule", cli.get_string("crash_schedule", ""));
  }
  if (cli.has("reliability")) {
    s.reliabilities = split_commas("reliability", cli.get_string("reliability", ""));
  }
  if (cli.has("rto")) s.rto = cli.get_string("rto", s.rto);
  s.validate();
  return s;
}

std::set<std::string> scenario_flags() {
  return {"scenario", "name", "algo", "algos", "model", "family", "sizes", "deltas",
          "cs", "merges", "machines", "k", "k_list", "bandwidth", "seeds", "seed",
          "delay_dist", "drop_prob", "crash_schedule", "reliability", "rto",
          "max_rounds"};
}

}  // namespace dhc::runner
