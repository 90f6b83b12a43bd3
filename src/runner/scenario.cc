#include "runner/scenario.h"

#include <array>
#include <bit>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <type_traits>

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

namespace {

/// The value whose to_string is `s`, out of `all`; the one spelling.
template <class E, std::size_t N>
E parse_enum(const char* what, const std::string& s, const std::array<E, N>& all) {
  std::string expected;
  for (const E e : all) {
    if (to_string(e) == s) return e;
    if (!expected.empty()) expected += '|';
    expected += to_string(e);
  }
  throw std::invalid_argument(std::string("unknown ") + what + " '" + s + "' (expected " +
                              expected + ")");
}

}  // namespace

Algorithm parse_algorithm(const std::string& s) {
  return parse_enum("algorithm", s,
                    std::array{Algorithm::kSequential, Algorithm::kDra, Algorithm::kDhc1,
                               Algorithm::kDhc2, Algorithm::kUpcast, Algorithm::kCollectAll,
                               Algorithm::kTurau, Algorithm::kCre});
}

ExecutionModel parse_execution_model(const std::string& s) {
  return parse_enum("execution model", s,
                    std::array{ExecutionModel::kCongest, ExecutionModel::kKMachine,
                               ExecutionModel::kAsync});
}

GraphFamily parse_graph_family(const std::string& s) {
  return parse_enum("graph family", s,
                    std::array{GraphFamily::kGnp, GraphFamily::kGnm, GraphFamily::kRegular,
                               GraphFamily::kPowerlaw});
}

core::MergeStrategy parse_merge_strategy(const std::string& s) {
  return parse_enum("merge strategy", s,
                    std::array{core::MergeStrategy::kMinForward, core::MergeStrategy::kFullQueue});
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
  static const std::vector<std::uint32_t> kNoMachines = {0};
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
                        tc.n = size;
                        tc.delta = delta;
                        tc.c = c;
                        tc.merge = merge;
                        tc.machines = k;
                        tc.bandwidth = kmachine ? s.bandwidth : 0;
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

/// One value, parsed strictly into the type of the field it lands in.
template <class T>
T parse_value(const std::string& what, const std::string& text) {
  if constexpr (std::is_same_v<T, std::string>) {
    return text;
  } else if constexpr (std::is_same_v<T, double>) {
    return support::parse_number(what, text);
  } else if constexpr (std::is_same_v<T, Algorithm>) {
    return parse_algorithm(text);
  } else if constexpr (std::is_same_v<T, ExecutionModel>) {
    return parse_execution_model(text);
  } else if constexpr (std::is_same_v<T, GraphFamily>) {
    return parse_graph_family(text);
  } else if constexpr (std::is_same_v<T, core::MergeStrategy>) {
    return parse_merge_strategy(text);
  } else {
    return support::parse_integer<T>(what, text);
  }
}

template <class T>
void assign(T& field, const std::string& what, const std::string& text) {
  field = parse_value<T>(what, text);
}

/// A list field takes a comma-separated value.
template <class T>
void assign(std::vector<T>& field, const std::string& what, const std::string& text) {
  field.clear();
  for (const auto& part : support::split_list(what, text)) {
    field.push_back(parse_value<T>(what, part));
  }
}

using Setter = void (*)(Scenario&, const std::string& what, const std::string& text);

template <auto Field>
void set(Scenario& s, const std::string& what, const std::string& text) {
  assign(s.*Field, what, text);
}

/// Every spec key and the field it sets: the whole scenario grammar.
const std::map<std::string, Setter>& spec_keys() {
  static const std::map<std::string, Setter> keys = {
      {"name", &set<&Scenario::name>},
      {"algos", &set<&Scenario::algos>},
      {"model", &set<&Scenario::model>},
      {"family", &set<&Scenario::family>},
      {"sizes", &set<&Scenario::sizes>},
      {"deltas", &set<&Scenario::deltas>},
      {"cs", &set<&Scenario::cs>},
      {"merges", &set<&Scenario::merges>},
      {"machines", &set<&Scenario::machines>},
      {"bandwidth", &set<&Scenario::bandwidth>},
      {"seeds", &set<&Scenario::seeds>},
      {"seed", &set<&Scenario::base_seed>},
      {"delay_dist", &set<&Scenario::delay_dists>},
      {"drop_prob", &set<&Scenario::drop_probs>},
      {"crash_schedule", &set<&Scenario::crash_schedules>},
      {"reliability", &set<&Scenario::reliabilities>},
      {"rto", &set<&Scenario::rto>},
      {"max_rounds", &set<&Scenario::max_rounds>},
  };
  return keys;
}

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

/// The key/value map of a scenario file, duplicate keys rejected.
std::map<std::string, std::string> read_spec_file(const std::string& path) {
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
    if (!spec.emplace(key, value).second) {
      throw std::invalid_argument(path + ":" + std::to_string(lineno) + ": duplicate key '" +
                                  key + "'");
    }
  }
  return spec;
}

}  // namespace

Scenario scenario_from_spec(const std::map<std::string, std::string>& spec) {
  Scenario s;
  for (const auto& [key, value] : spec) {
    const auto it = spec_keys().find(key);
    if (it == spec_keys().end()) throw std::invalid_argument("unknown scenario key '" + key + "'");
    it->second(s, "scenario key '" + key + "'", value);
  }
  s.validate();
  for (auto& text : s.delay_dists) text = congest::DelaySpec::parse(text).to_string();
  for (auto& text : s.crash_schedules) text = congest::CrashSpec::parse(text).to_string();
  s.rto = congest::RtoSpec::parse(s.rto).to_string();
  return s;
}

Scenario scenario_from_file(const std::string& path) {
  return scenario_from_spec(read_spec_file(path));
}

Scenario scenario_from_cli(const support::Cli& cli) {
  std::map<std::string, std::string> spec;
  if (cli.has("scenario")) spec = read_spec_file(cli.get_string("scenario", ""));
  for (const auto& [key, setter] : spec_keys()) {
    if (cli.has(key)) spec[key] = cli.get_string(key, "");
  }
  return scenario_from_spec(spec);
}

std::set<std::string> scenario_flags() {
  std::set<std::string> flags = {"scenario"};
  for (const auto& [key, setter] : spec_keys()) flags.insert(key);
  return flags;
}

}  // namespace dhc::runner
