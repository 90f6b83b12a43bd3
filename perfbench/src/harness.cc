#include "harness.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "async/async.h"
#include "congest/fault_plan.h"
#include "core/dhc2.h"
#include "core/dra.h"
#include "core/sequential_linear.h"
#include "graph/hamiltonian.h"
#include "kmachine/kmachine.h"
#include "stats.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dhc::runner::Algorithm;
using dhc::runner::ExecutionModel;
using dhc::runner::TrialConfig;
using dhc::runner::TrialResult;

double seconds_between(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

std::uint64_t stat_u64(const TrialResult& r, const std::string& key) {
  const auto it = r.stats.find(key);
  return it == r.stats.end() ? 0 : static_cast<std::uint64_t>(it->second);
}

struct CounterField {
  const char* name;
  std::uint64_t TrialCounters::*field;
};

constexpr CounterField kCounterFields[] = {
    {"success", &TrialCounters::success},
    {"rounds", &TrialCounters::rounds},
    {"messages", &TrialCounters::messages},
    {"bits", &TrialCounters::bits},
    {"barriers", &TrialCounters::barriers},
    {"arena_bytes_peak", &TrialCounters::arena_bytes_peak},
    {"steps", &TrialCounters::steps},
    {"extensions", &TrialCounters::extensions},
    {"rotations", &TrialCounters::rotations},
    {"resamples", &TrialCounters::resamples},
    {"payload_messages", &TrialCounters::payload_messages},
    {"acks_sent", &TrialCounters::acks_sent},
    {"retransmits", &TrialCounters::retransmits},
    {"dup_suppressed", &TrialCounters::dup_suppressed},
    {"dropped_messages", &TrialCounters::dropped_messages},
    {"delayed_messages", &TrialCounters::delayed_messages},
    {"hit_round_limit", &TrialCounters::hit_round_limit},
};

void verify_into(TracedTrial& out, const dhc::graph::VerifyResult& v) {
  if (!v.ok()) {
    out.counters.success = 0;
    out.failure_reason = "verifier: " + *v.failure;
  }
}

// The solver's own report: everything except the counts the sink saw.
void take_metrics(TracedTrial& out, const dhc::core::Result& r) {
  out.counters.success = r.success ? 1 : 0;
  out.failure_reason = r.failure_reason;
  out.counters.rounds = r.metrics.rounds;
  out.counters.arena_bytes_peak = r.metrics.arena_bytes_peak;
  // Solver counters run_trial passes through from Result::stats (DRA's walk).
  out.counters.steps = static_cast<std::uint64_t>(r.stat("steps"));
  out.counters.extensions = static_cast<std::uint64_t>(r.stat("extensions"));
  out.counters.rotations = static_cast<std::uint64_t>(r.stat("rotations"));
  out.counters.resamples = static_cast<std::uint64_t>(r.stat("resamples"));
}

// Times `solve` and then, if the solver claims success, `verify` (which
// returns a VerifyResult).  Returns the solve's end time.
template <typename Solve, typename Verify>
std::uint64_t timed_solve(TracedTrial& out, Solve&& solve, Verify&& verify) {
  const std::uint64_t t0 = now_ns();
  auto result = solve();
  const std::uint64_t t1 = now_ns();
  out.solve_s = seconds_between(t0, t1);
  if (out.counters.success != 0) {
    const std::uint64_t v0 = now_ns();
    const auto v = verify(result);
    out.verify_s = seconds_between(v0, now_ns());
    verify_into(out, v);
  }
  return t1;
}

void take_tally(TracedTrial& out, const LayerSink& sink, std::uint64_t end_ns) {
  out.tally = sink.tally();
  out.counters.messages = out.tally.messages;
  out.counters.bits = out.tally.bits;
  out.counters.barriers = out.tally.barriers;
  out.counters.acks_sent = out.tally.acks_sent;
  out.counters.retransmits = out.tally.retransmits;
  out.counters.dup_suppressed = out.tally.dup_suppressed;
  out.counters.dropped_messages = out.tally.dropped;
  out.counters.delayed_messages = out.tally.delayed;
  out.phases = sink.phases().totals(out.counters.rounds, end_ns);
}

}  // namespace

TrialCounters counters_of(const TrialResult& r) {
  TrialCounters c;
  c.success = r.success ? 1 : 0;
  c.rounds = static_cast<std::uint64_t>(r.rounds);
  c.messages = static_cast<std::uint64_t>(r.messages);
  c.bits = static_cast<std::uint64_t>(r.bits);
  c.barriers = static_cast<std::uint64_t>(r.barriers);
  c.arena_bytes_peak = stat_u64(r, "arena_bytes_peak");
  c.steps = stat_u64(r, "steps");
  c.extensions = stat_u64(r, "extensions");
  c.rotations = stat_u64(r, "rotations");
  c.resamples = stat_u64(r, "resamples");
  c.payload_messages = stat_u64(r, "payload_messages");
  c.acks_sent = stat_u64(r, "acks_sent");
  c.retransmits = stat_u64(r, "retransmits");
  c.dup_suppressed = stat_u64(r, "dup_suppressed");
  c.dropped_messages = stat_u64(r, "dropped_messages");
  c.delayed_messages = stat_u64(r, "delayed_messages");
  c.hit_round_limit = stat_u64(r, "hit_round_limit");
  return c;
}

std::vector<std::string> counter_diff(const TrialCounters& untraced, const TrialCounters& traced) {
  std::vector<std::string> out;
  for (const CounterField& f : kCounterFields) {
    if (untraced.*f.field != traced.*f.field) {
      out.push_back(std::string(f.name) + ": " + std::to_string(untraced.*f.field) +
                    " != " + std::to_string(traced.*f.field));
    }
  }
  return out;
}

TracedTrial run_traced_trial(const TrialConfig& t, std::uint32_t shards, bool attach_sink) {
  TracedTrial out;
  const std::uint64_t g0 = now_ns();
  const dhc::graph::Graph g = dhc::runner::make_trial_instance(t);
  out.gen_s = seconds_between(g0, now_ns());
  out.edges = g.m();

  if (t.algo == Algorithm::kCre) {
    timed_solve(
        out,
        [&] {
          dhc::support::Rng rng(t.algo_seed);
          auto r = dhc::core::cre_hamiltonian_cycle(g, rng);
          out.counters.success = r.success ? 1 : 0;
          out.failure_reason = r.failure_reason;
          out.counters.rounds = r.stats.steps;
          out.counters.steps = r.stats.steps;
          out.counters.extensions = r.stats.extensions;
          out.counters.rotations = r.stats.rotations;
          out.counters.resamples = r.stats.resamples;
          return r;
        },
        [&](const auto& r) { return dhc::graph::verify_cycle_order(g, r.cycle); });
    return out;
  }

  const std::uint64_t s0 = now_ns();
  LayerSink sink(s0);
  const auto verify = [&](const auto& r) {
    return dhc::graph::verify_cycle_incidence(g, r.cycle);
  };
  const auto solve_reported = [&](auto&& solve) {
    return timed_solve(
        out,
        [&] {
          auto r = solve();
          take_metrics(out, r);
          return r;
        },
        verify);
  };
  dhc::core::Dhc2Config dhc2;
  dhc2.delta = t.delta;
  dhc2.merge_strategy = t.merge;
  dhc2.shards = shards;
  dhc2.trace = attach_sink ? &sink : nullptr;

  std::uint64_t end = 0;
  if (t.model == ExecutionModel::kAsync && t.algo == Algorithm::kDhc2) {
    dhc::async::AsyncConfig acfg;
    acfg.delay = dhc::congest::DelaySpec::parse(t.delay_dist);
    acfg.drop_prob = t.drop_prob;
    acfg.crash = dhc::congest::CrashSpec::parse(t.crash_schedule);
    acfg.max_rounds = t.max_rounds;
    acfg.shards = shards;
    acfg.reliability = dhc::congest::ReliabilitySpec::parse(t.reliability);
    acfg.rto = t.rto.empty() ? dhc::congest::RtoSpec{} : dhc::congest::RtoSpec::parse(t.rto);
    end = solve_reported([&] {
      auto o = dhc::async::run_async(dhc::kmachine::dhc2_algorithm(dhc2), g, t.algo_seed, acfg);
      out.counters.payload_messages = o.report.payload_messages;
      out.counters.hit_round_limit = o.report.hit_round_limit ? 1 : 0;
      if (o.report.hit_round_limit) {
        o.result.failure_reason += o.report.round_limit_live ? " (live)" : " (stalled)";
      }
      return std::move(o.result);
    });
  } else if (t.model == ExecutionModel::kCongest && t.algo == Algorithm::kDhc2) {
    end = solve_reported([&] { return dhc::core::run_dhc2(g, t.algo_seed, dhc2); });
  } else if (t.model == ExecutionModel::kCongest && t.algo == Algorithm::kDra) {
    dhc::core::DraConfig cfg;
    cfg.shards = shards;
    cfg.trace = attach_sink ? &sink : nullptr;
    end = solve_reported([&] { return dhc::core::run_dra(g, t.algo_seed, cfg); });
  } else {
    throw std::invalid_argument("perfbench: no traced path for " + dhc::runner::to_string(t.algo) +
                                " under model " + dhc::runner::to_string(t.model));
  }
  take_tally(out, sink, end);
  return out;
}

std::string failure_class(const std::string& reason) {
  std::string out;
  bool in_digits = false;
  for (const char ch : reason) {
    const bool digit = std::isdigit(static_cast<unsigned char>(ch)) != 0;
    if (digit && !in_digits) out += '#';
    if (!digit) out += ch;
    in_digits = digit;
  }
  return out.empty() ? "(no reason)" : out;
}

bool is_incorrect(const std::string& reason) {
  return reason.starts_with("verifier:") || reason.starts_with("exception:");
}

// ---------------------------------------------------------------------------
// The command

namespace {

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool inject_mismatch = false;
};

// Set-up timing takes this share of the time spent in trials (and at least
// kSetupMinInstances instances): about 3 s in a 25 s run, so its median
// rests on dozens to thousands of samples.
constexpr double kSetupShare = 0.12;
constexpr std::size_t kSetupMinInstances = 5;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

std::uint64_t parse_u64(const std::string& key, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size() || v.front() == '-') {
    throw std::invalid_argument("--" + key + " expects a non-negative integer, got '" + v + "'");
  }
  return x;
}

Options parse_options(const std::vector<std::string>& args) {
  Options o;
  std::optional<std::uint64_t> seed;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string key = args[i];
    if (!key.starts_with("--")) throw std::invalid_argument("unexpected argument '" + key + "'");
    key = key.substr(2);
    if (key == "inject-mismatch") {
      o.inject_mismatch = true;
      continue;
    }
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else {
      if (i + 1 >= args.size()) throw std::invalid_argument("--" + key + " needs a value");
      value = args[++i];
    }
    if (key == "workload") {
      o.workload = find_workload(value);
      if (o.workload == nullptr) throw std::invalid_argument("unknown workload '" + value + "'");
    } else if (key == "seed") {
      seed = parse_u64(key, value);
    } else if (key == "seconds") {
      std::size_t used = 0;
      o.seconds = std::stod(value, &used);
      if (used != value.size() || !(o.seconds >= 0.0) || o.seconds > 3600.0) {
        throw std::invalid_argument("--seconds expects a duration in [0, 3600]");
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace expects 0 or 1");
      o.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown option --" + key);
    }
  }
  if (o.workload == nullptr) throw std::invalid_argument("--workload is required");
  o.seed = seed.value_or(o.workload->default_seed);
  return o;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::map<std::string, std::size_t> failures;  // by failure_class
  std::vector<double> walls;                    // untraced run_trial walls, in order
  std::vector<Metric> report_only;              // printed, but not in the result JSON

  void add(bool success, const std::string& reason) {
    ++attempted;
    if (success) return;
    ++failed;
    ++failures[failure_class(reason)];
    if (is_incorrect(reason)) correct = false;
  }
};

void print_metric(std::ostream& out, const Metric& m, const char* suffix) {
  out << "metric " << m.name << " = " << json_number(m.value) << " " << m.unit
      << " (n=" << m.samples << ")" << suffix << "\n";
}

void print_report(std::ostream& out, const Tally& tally, const std::vector<Metric>& metrics) {
  const double failed_frac =
      tally.attempted == 0 ? 0.0 : static_cast<double>(tally.failed) / tally.attempted;
  print_metric(out, {"failed_frac", failed_frac, "fraction", tally.attempted}, " [report only]");
  for (const auto& [reason, count] : tally.failures) {
    out << "failure " << count << "x: " << reason << "\n";
  }
  for (const Metric& m : tally.report_only) print_metric(out, m, " [report only]");
  out << "trial_walls_s =";
  for (const double w : tally.walls) out << " " << json_number(w);
  out << "\n";
  for (const Metric& m : metrics) print_metric(out, m, "");
  out << "{\"correct\": " << (tally.correct ? "true" : "false")
      << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}\n";
}

// End-to-end run, tracing off: a closed loop of run_trial calls for
// `seconds` of trial time.  Instance generation is timed in slices between
// the trials rather than in one pass before them, because the host's speed
// drifts over seconds and the set-up samples must see the same drift as the
// trials.  The first slice also warms the allocator.
std::vector<Metric> run_end_to_end(const Options& o, const Workload& w, std::uint32_t shards,
                                   Tally& tally) {
  std::vector<double> setup, walls;
  double setup_s = 0.0, trials_s = 0.0;
  const double budget_s = o.seconds;
  for (std::uint64_t i = 0; walls.empty() || trials_s < budget_s; ++i) {
    while (setup.size() < kSetupMinInstances || setup_s < kSetupShare * trials_s) {
      const TrialConfig t = trial_config(w, o.seed, setup.size());
      const std::uint64_t t0 = now_ns();
      const dhc::graph::Graph g = dhc::runner::make_trial_instance(t);
      setup.push_back(seconds_between(t0, now_ns()));
      setup_s += setup.back();
      if (g.n() != t.n) throw std::logic_error("instance has the wrong node count");
    }
    const std::uint64_t t0 = now_ns();
    const TrialResult r = dhc::runner::run_trial(trial_config(w, o.seed, i), true, shards);
    walls.push_back(seconds_between(t0, now_ns()));
    trials_s += walls.back();
    tally.add(r.success, r.failure_reason);
  }
  tally.walls = walls;
  if (const auto p = eligible_tail_percentile(walls.size())) {
    std::ostringstream name;
    name << "trial_s_p" << *p;
    tally.report_only.push_back({name.str(), percentile(walls, *p), "s", walls.size()});
  }

  const double rss_mb = static_cast<double>(read_vmhwm_kb().value_or(0)) / 1024.0;
  return {
      {"trials_per_s", static_cast<double>(walls.size()) / trials_s, "1/s", walls.size()},
      {"trial_s_p50", median(walls), "s", walls.size()},
      {"setup_s", median(setup), "s", setup.size()},
      {"rss_peak_mb", rss_mb, "MB", 1},
  };
}

const char* const kPhaseLabels[] = {PhaseLog::kUnmarked, "global_setup", "partition_setup", "dra",
                                    "merge"};

// Traced run: every trial runs untraced through run_trial, then layer by
// layer both with the sink attached and without it (in alternating order).
// run_trial and the traced pass must agree on every work counter; the
// per-trial solve difference of the last two prices the sink alone.
std::vector<Metric> run_traced(const Options& o, const Workload& w, std::uint32_t shards,
                               Tally& tally, std::ostream& err) {
  std::vector<double> gen_s, verify_s, solve_s, overhead_s, round_s, shard_s, between_s;
  std::map<std::string, std::vector<double>> phase_s;
  // Sums over every traced trial (for the ratios) and over the counter window.
  EngineTally all;
  std::uint64_t all_steps = 0, all_payload = 0;
  TrialCounters win;
  EngineTally win_tally;
  std::uint64_t win_edges = 0;
  std::map<std::string, std::uint64_t> win_phase_rounds;

  const std::uint64_t start = now_ns();
  const double budget_ns = o.seconds * 1e9;
  for (std::uint64_t i = 0;
       i < w.counter_window || static_cast<double>(now_ns() - start) < budget_ns; ++i) {
    const TrialConfig t = trial_config(w, o.seed, i);
    const std::uint64_t t0 = now_ns();
    const TrialResult r = dhc::runner::run_trial(t, true, shards);
    tally.add(r.success, r.failure_reason);
    tally.walls.push_back(seconds_between(t0, now_ns()));

    const bool bare_first = i % 2 == 1;
    const double bare_before = bare_first ? run_traced_trial(t, shards, false).solve_s : 0.0;
    TracedTrial tr = run_traced_trial(t, shards, true);
    const double bare = bare_first ? bare_before : run_traced_trial(t, shards, false).solve_s;
    overhead_s.push_back(tr.solve_s - bare);
    if (o.inject_mismatch) tr.counters.messages += 1;
    const auto diff = counter_diff(counters_of(r), tr.counters);
    if (!diff.empty()) {
      tally.correct = false;
      for (const std::string& d : diff) {
        err << "perfbench: trial " << i << " traced/untraced counter mismatch: " << d << "\n";
      }
    }

    gen_s.push_back(tr.gen_s);
    verify_s.push_back(tr.verify_s);
    solve_s.push_back(tr.solve_s);
    round_s.push_back(static_cast<double>(tr.tally.round_wall_ns) * 1e-9);
    shard_s.push_back(static_cast<double>(tr.tally.shard_max_ns) * 1e-9);
    between_s.push_back(std::max(0.0, tr.solve_s - round_s.back()));
    for (const char* label : kPhaseLabels) {
      const auto it = tr.phases.find(label);
      phase_s[label].push_back(it == tr.phases.end() ? 0.0 : it->second.wall_ns * 1e-9);
    }

    all.messages += tr.tally.messages;
    all.round_wall_ns += tr.tally.round_wall_ns;
    all.rounds_stepped += tr.tally.rounds_stepped;
    all.shard_max_ns += tr.tally.shard_max_ns;
    all.shard_mean_ns += tr.tally.shard_mean_ns;
    all_steps += tr.counters.steps;
    all_payload += tr.counters.payload_messages;

    if (i < w.counter_window) {
      const std::uint64_t arena_peak = std::max(win.arena_bytes_peak, tr.counters.arena_bytes_peak);
      for (const CounterField& f : kCounterFields) win.*f.field += tr.counters.*f.field;
      win.arena_bytes_peak = arena_peak;  // a high-water mark: max, not sum
      win_tally.rounds_stepped += tr.tally.rounds_stepped;
      win_tally.rounds_sharded += tr.tally.rounds_sharded;
      win_tally.node_steps += tr.tally.node_steps;
      win_edges += tr.edges;
      for (const auto& [label, total] : tr.phases) win_phase_rounds[label] += total.rounds;
    }
  }

  const bool engine = w.base.algo != Algorithm::kCre;
  const bool async_model = w.base.model == ExecutionModel::kAsync;
  const auto ratio = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
  const double solve_ns_all = [&] {
    double s = 0.0;
    for (const double x : solve_s) s += x;
    return s * 1e9;
  }();
  const std::size_t n = solve_s.size();
  const std::size_t nw = std::min<std::size_t>(w.counter_window, n);
  const auto count = [&](std::string name, std::uint64_t v) {
    return Metric{std::move(name), static_cast<double>(v), "count", nw};
  };
  const auto only = [](bool applies, double v) { return applies ? v : 0.0; };

  std::vector<Metric> m = {
      {"graph.gen_s", median(gen_s), "s", n},
      {"graph.verify_s", median(verify_s), "s", n},
      count("graph.edges", win_edges),
      {"congest.round_s", median(round_s), "s", n},
      {"congest.ns_per_message", ratio(all.round_wall_ns, all.messages), "ns", n},
      {"congest.shard_step_s", median(shard_s), "s", n},
      {"congest.shard_imbalance", ratio(all.shard_max_ns, all.shard_mean_ns), "ratio", n},
      {"congest.between_rounds_s", only(engine, median(between_s)), "s", n},
      {"congest.us_per_stepped_round", ratio(solve_ns_all * 1e-3, all.rounds_stepped), "us", n},
      count("congest.messages", win.messages),
      Metric{"congest.bits", static_cast<double>(win.bits), "bit", nw},
      count("congest.rounds", engine ? win.rounds : 0),
      count("congest.rounds_stepped", win_tally.rounds_stepped),
      count("congest.rounds_sharded", win_tally.rounds_sharded),
      count("congest.node_steps", win_tally.node_steps),
      count("congest.barriers", win.barriers),
      Metric{"congest.arena_bytes_peak", static_cast<double>(win.arena_bytes_peak), "B", nw},
      {"core.solve_s", median(solve_s), "s", n},
  };
  for (const char* label : kPhaseLabels) {
    m.push_back({std::string("core.phase.") + label + "_s", median(phase_s[label]), "s", n});
    m.push_back(count(std::string("core.phase.") + label + "_rounds", win_phase_rounds[label]));
  }
  const bool cre = w.base.algo == Algorithm::kCre;
  m.push_back({"cre.ns_per_step", only(cre, ratio(solve_ns_all, all_steps)), "ns", n});
  m.push_back(count("cre.steps", cre ? win.steps : 0));
  m.push_back(count("cre.rotations", cre ? win.rotations : 0));
  m.push_back(count("cre.extensions", cre ? win.extensions : 0));
  m.push_back(count("cre.resamples", cre ? win.resamples : 0));
  m.push_back({"async.goodput_frac", only(async_model, ratio(all_payload, all.messages)), "frac",
               n});
  m.push_back({"async.ns_per_message", only(async_model, ratio(solve_ns_all, all.messages)), "ns",
               n});
  m.push_back(count("async.payload_messages", win.payload_messages));
  m.push_back(count("async.acks_sent", win.acks_sent));
  m.push_back(count("async.retransmits", win.retransmits));
  m.push_back(count("async.dup_suppressed", win.dup_suppressed));
  m.push_back(count("async.dropped_messages", win.dropped_messages));
  m.push_back(count("async.delayed_messages", win.delayed_messages));
  m.push_back(count("async.hit_round_limit", win.hit_round_limit));
  m.push_back({"trace.overhead_s", median(overhead_s), "s", n});
  return m;
}

}  // namespace

int run_main(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  Options o;
  try {
    o = parse_options(args);
  } catch (const std::exception& e) {
    err << "perfbench: " << e.what() << "\n"
        << "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
        << "                 [--inject-mismatch]\n"
        << "workloads:";
    for (const Workload& w : workloads()) err << " " << w.name;
    err << "\n";
    return 2;
  }

  const Workload& w = *o.workload;
  const std::uint32_t shards = w.shards;
  out << "perfbench workload=" << w.name << " seed=" << o.seed << " (default "
      << w.default_seed << ", hold-out " << w.holdout_seed << ") seconds=" << o.seconds
      << " trace=" << (o.trace ? 1 : 0) << " n=" << w.base.n << " shards=" << shards << "\n";

  Tally tally;
  std::vector<Metric> metrics;
  try {
    metrics = o.trace ? run_traced(o, w, shards, tally, err) : run_end_to_end(o, w, shards, tally);
  } catch (const std::exception& e) {
    err << "perfbench: " << e.what() << "\n";
    return 1;
  }
  print_report(out, tally, metrics);
  return tally.correct ? 0 : 1;
}

}  // namespace perfbench
