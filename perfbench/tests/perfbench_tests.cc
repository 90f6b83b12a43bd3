// The benchmark's own tests, at tiny n so they run in seconds:
//   ./perfbench_tests      (exit 0 when every check passes)
// Checks stay active in every build type (no assert).
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                           \
  do {                                                                        \
    if (!(cond)) {                                                            \
      ++g_failures;                                                           \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK failed: " #cond "\n"; \
    }                                                                         \
  } while (0)

using namespace perfbench;

// A workload shrunk to test size.
dhc::runner::TrialConfig tiny(const char* name, std::uint32_t n, std::uint64_t index) {
  const Workload* w = find_workload(name);
  CHECK(w != nullptr);
  dhc::runner::TrialConfig t = trial_config(*w, 7, index);
  t.n = n;
  return t;
}

void test_median() {
  CHECK(median({3.0}) == 3.0);
  CHECK(median({5.0, 1.0, 3.0}) == 3.0);
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK(median({2.0, 2.0, 9.0, 1.0, 2.0, 100.0}) == 2.0);
  bool threw = false;
  try {
    median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_tail_percentile_eligibility() {
  // At least ten samples must lie beyond the reported percentile.
  CHECK(!eligible_tail_percentile(0).has_value());
  CHECK(!eligible_tail_percentile(99).has_value());
  CHECK(eligible_tail_percentile(100) == 90.0);
  CHECK(eligible_tail_percentile(999) == 90.0);
  CHECK(eligible_tail_percentile(1000) == 99.0);
  CHECK(eligible_tail_percentile(9999) == 99.0);
  CHECK(eligible_tail_percentile(10000) == 99.9);

  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  CHECK(percentile(xs, 90.0) == 90.0);
  CHECK(percentile(xs, 99.0) == 99.0);
  CHECK(percentile(xs, 100.0) == 100.0);
  CHECK(percentile({7.0}, 90.0) == 7.0);
}

void test_phase_attribution() {
  PhaseLog log;
  log.begin(100);
  log.mark("global_setup", 1, 150);
  log.mark("dra", 10, 400);
  log.mark("merge", 20, 500);
  log.mark("merge", 30, 700);
  const auto t = log.totals(/*total_rounds=*/40, /*end_ns=*/1000);
  CHECK(t.at(PhaseLog::kUnmarked).rounds == 0);
  CHECK(t.at(PhaseLog::kUnmarked).wall_ns == 50);
  CHECK(t.at("global_setup").rounds == 9);
  CHECK(t.at("global_setup").wall_ns == 250);
  CHECK(t.at("dra").rounds == 10);
  CHECK(t.at("dra").wall_ns == 100);
  // Repeated labels sum; the last span runs to total_rounds + 1 and end_ns.
  CHECK(t.at("merge").rounds == 10 + 11);
  CHECK(t.at("merge").wall_ns == 200 + 300);

  // Rounds before the first mark stay unmarked (DRA's BFS set-up).
  PhaseLog dra;
  dra.begin(0);
  dra.mark("dra", 12, 40);
  const auto d = dra.totals(30, 90);
  CHECK(d.at(PhaseLog::kUnmarked).rounds == 11);
  CHECK(d.at("dra").rounds == 19);
  CHECK(d.at("dra").wall_ns == 50);
}

void test_vmhwm_parsing() {
  const std::string status =
      "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
  CHECK(parse_vmhwm_kb(status) == 20480L);
  CHECK(!parse_vmhwm_kb("Name:\tx\nVmRSS:\t 1 kB\n").has_value());
  CHECK(!parse_vmhwm_kb("VmHWM:\t abc kB\n").has_value());
  CHECK(!parse_vmhwm_kb("VmHWM:\t 12 MB\n").has_value());
  CHECK(parse_vmhwm_kb("VmHWM: 7 kB").value_or(-1) == 7);
  const auto self = read_vmhwm_kb();
  CHECK(self.has_value() && *self > 0);
}

void test_failure_classes() {
  CHECK(failure_class("partition 12 failed at round 7") == "partition # failed at round #");
  CHECK(failure_class("") == "(no reason)");
  CHECK(is_incorrect("verifier: node 3 names a non-edge"));
  CHECK(is_incorrect("exception: boom"));
  CHECK(!is_incorrect("hit round limit (stalled)"));
}

// Traced and untraced runs agree on every work counter, for every workload.
void test_traced_matches_untraced() {
  const std::pair<const char*, std::uint32_t> cases[] = {
      {"dense-dhc2", 512}, {"sparse-dra", 128}, {"cre-oracle", 2048}, {"async-ack", 256}};
  for (const auto& [name, n] : cases) {
    for (std::uint64_t i = 0; i < 2; ++i) {
      const auto t = tiny(name, n, i);
      const std::uint32_t shards = find_workload(name)->shards;
      const auto untraced = counters_of(dhc::runner::run_trial(t, true, shards));
      const auto traced = run_traced_trial(t, shards, true);
      const auto diff = counter_diff(untraced, traced.counters);
      for (const auto& d : diff) std::cerr << name << " trial " << i << ": " << d << "\n";
      CHECK(diff.empty());
      CHECK(untraced.success == 1);
      if (std::string(name) != "cre-oracle") {
        CHECK(traced.tally.rounds_stepped > 0);
        CHECK(traced.tally.messages == untraced.messages);
      }
    }
  }
}

// The exact counters repeat bitwise across runs and across shard counts.
void test_counters_repeat_across_runs_and_shards() {
  for (const char* name : {"dense-dhc2", "async-ack"}) {
    const auto t = tiny(name, 256, 0);
    const auto a = run_traced_trial(t, 1, true);
    const auto b = run_traced_trial(t, 1, true);
    const auto c = run_traced_trial(t, 2, true);
    CHECK(a.counters == b.counters);
    CHECK(a.counters == c.counters);
    CHECK(a.tally.node_steps == c.tally.node_steps);
    CHECK(a.tally.rounds_stepped == c.tally.rounds_stepped);
    CHECK(a.edges == c.edges);
    for (const auto& [label, total] : a.phases) {
      CHECK(c.phases.contains(label) && c.phases.at(label).rounds == total.rounds);
    }
  }
}

// Inputs are a pure function of (workload, seed, index); pool workloads
// draw every trial from their screened pool, and the hold-out seed from a
// disjoint one.
void test_trial_inputs() {
  const Workload& dense = *find_workload("dense-dhc2");
  CHECK(trial_config(dense, 5, 3).graph_seed == trial_config(dense, 5, 3).graph_seed);
  CHECK(trial_config(dense, 5, 3).graph_seed != trial_config(dense, 6, 3).graph_seed);
  CHECK(trial_config(dense, 5, 3).graph_seed != trial_config(dense, 5, 4).graph_seed);
  CHECK(trial_config(dense, 5, 3).graph_seed != trial_config(dense, 5, 3).algo_seed);

  const Workload& w = *find_workload("async-ack");
  CHECK(!w.pool.empty() && !w.holdout_pool.empty());
  for (const std::uint16_t j : w.holdout_pool) {
    for (const std::uint16_t k : w.pool) CHECK(j != k);
  }
  Workload raw = w;
  raw.pool.clear();
  const auto drawn_from = [&](const dhc::runner::TrialConfig& t,
                              const std::vector<std::uint16_t>& pool) {
    for (const std::uint16_t j : pool) {
      const auto p = trial_config(raw, w.pool_seed, j);
      if (p.graph_seed == t.graph_seed && p.algo_seed == t.algo_seed) return true;
    }
    return false;
  };
  for (const std::uint64_t seed : {w.default_seed, std::uint64_t{2}, w.holdout_seed}) {
    const auto& pool = seed == w.holdout_seed ? w.holdout_pool : w.pool;
    for (std::uint64_t i = 0; i < 2 * pool.size(); ++i) {
      CHECK(drawn_from(trial_config(w, seed, i), pool));
    }
  }
  // The pools are still valid for this library: their first entries succeed
  // at full size (about a second each).
  for (const auto* pool : {&w.pool, &w.holdout_pool}) {
    CHECK(dhc::runner::run_trial(trial_config(raw, w.pool_seed, pool->front()), true, 1).success);
  }
}

int run(std::vector<std::string> args, std::string* last_line = nullptr) {
  std::ostringstream out, err;
  const int code = run_main(args, out, err);
  if (last_line != nullptr) {
    std::istringstream lines(out.str());
    for (std::string l; std::getline(lines, l);) *last_line = l;
  }
  return code;
}

// The command on real workloads at --seconds 0: one timed trial (after the
// few-second set-up pass), or just the traced counter window.
void test_command() {
  std::string last;
  CHECK(run({"--workload", "dense-dhc2", "--seconds", "0", "--seed", "3"}, &last) == 0);
  CHECK(last.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
  CHECK(last.find("\"setup_s\": {\"value\": ") != std::string::npos);

  CHECK(run({"--workload=sparse-dra", "--seconds=0", "--trace=1"}, &last) == 0);
  CHECK(last.find("\"congest.messages\"") != std::string::npos);
  CHECK(last.find("\"core.phase.dra_rounds\"") != std::string::npos);
  CHECK(last.find("\"trace.overhead_s\"") != std::string::npos);

  // A deliberate traced/untraced mismatch fails the command.
  CHECK(run({"--workload", "sparse-dra", "--seconds", "0", "--trace", "1", "--inject-mismatch"},
            &last) == 1);
  CHECK(last.starts_with("{\"correct\": false"));

  CHECK(run({}) == 2);
  CHECK(run({"--workload", "nope"}) == 2);
  CHECK(run({"--workload", "dense-dhc2", "--trace", "2"}) == 2);
  CHECK(run({"--workload", "dense-dhc2", "--seed", "-1"}) == 2);
}

}  // namespace

int main() {
  test_median();
  test_tail_percentile_eligibility();
  test_phase_attribution();
  test_vmhwm_parsing();
  test_failure_classes();
  test_traced_matches_untraced();
  test_counters_repeat_across_runs_and_shards();
  test_trial_inputs();
  test_command();
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_tests: all checks passed\n";
  return 0;
}
