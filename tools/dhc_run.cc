// dhc_run — the unified experiment driver for libdhc.
//
// Declares a scenario (from flags, a scenario file, or both), expands it to
// the cross-product of seeded trials, executes them on a worker pool, and
// prints per-configuration aggregates plus JSON/CSV artifacts.  Aggregates
// are bitwise independent of --threads; only wall-clock changes.
//
//   ./dhc_run --algos=dhc2 --sizes=256,512 --deltas=0.5 --seeds=20 --threads=8
//   ./dhc_run --scenario=sweep.scn --threads=0        # 0 = all hardware threads
//
// Flags (all optional).  Every flag from --name to --seed is a scenario key:
// it overrides the same key of the --scenario file and is parsed exactly as
// that key is in a file (runner::scenario_from_spec).  Values must parse
// whole, and a repeated flag is an error.
//   --scenario=FILE   key = value scenario file; other flags override it
//   --name=STR        scenario name recorded in the artifacts
//   --algos=LIST      sequential|dra|dhc1|dhc2|upcast|collect-all|turau|cre
//                     (cre = the linear-space sequential oracle)
//   --model=STR       congest (default) | kmachine | async — kmachine runs
//                     every selected algorithm through the k-machine
//                     execution backend (paper §IV) and sweeps --machines;
//                     async runs them under seed-deterministic delivery
//                     delays, drops, and node crashes and sweeps the fault
//                     axes
//   --family=STR      gnp|gnm|regular|powerlaw
//   --sizes=LIST      graph sizes n
//   --deltas=LIST     density exponents, p = c·ln n / n^delta
//   --cs=LIST         density constants
//   --merges=LIST     minforward|fullqueue (DHC2-based algorithms)
//   --machines=LIST   machine counts for --model=kmachine
//   --bandwidth=N     per-link messages/round for the k-machine pricing
//   --delay_dist=LIST per-edge latency specs for --model=async, each
//                     none | fixed:K | uniform:A:B | geometric:P
//   --drop_prob=LIST  per-message loss probabilities in [0, 1) (async)
//   --crash_schedule=LIST  node crash windows for --model=async, each
//                     none | random:FRAC:START:DURATION
//   --reliability=LIST  async transport reliability, each none | ack — ack
//                     adds the per-link seq/ack + retransmit overlay
//                     (congest/reliable.h) so solvers survive drops/crashes
//   --rto=SPEC        retransmit timeout for --reliability=ack:
//                     rto:K[:MULT[:MAX]] (default rto:4:2:16)
//   --max_rounds=N    per-trial round budget for --model=async (0 = engine
//                     default; faulted runs that stall fail fast with
//                     hit_round_limit instead of crawling to the ceiling)
//   --seeds=N         trials per configuration cell
//   --seed=N          root seed
//   --threads=N       worker-thread budget shared by trial- and
//                     shard-parallelism (0 = hardware concurrency; default 1;
//                     always clamped to the hardware)
//   --shards=N        simulator shards per trial (0 = auto: many small trials
//                     run trial-parallel, few huge trials get the leftover
//                     budget as shards; results are identical either way)
//   --json=PATH       JSON artifact path ("" disables; default dhc_run.json)
//   --csv=PATH        CSV artifact path (default: none)
//   --verify=BOOL     check returned cycles against the graph (default true)
//   --trace=DIR       write one flight-recorder NDJSON trace per CONGEST
//                     trial into DIR (created if missing); paths land in the
//                     JSON artifact as "trace_files".  Inspect with dhc_trace.
//   --track_rss=BOOL  record stats["rss_peak_kb"] (process peak RSS at each
//                     trial's end) on every result (default false — the value
//                     is machine-dependent, so artifacts that must be
//                     bitwise-comparable across thread counts leave it off)
//
// Unknown flags are rejected (exit 2), so a typo never runs the defaults.
// The workload pins are scenario files: bench/scenarios/*.scn, checked
// against bench/golden/ by bench/check_workloads.py.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <stdexcept>

#include "runner/aggregator.h"
#include "runner/scenario.h"
#include "runner/trial_runner.h"
#include "support/cli.h"

namespace {

// Shared flag validation: negative or absurd values are rejected with exit
// code 2 (the env path, congest::default_shards(), applies the same bounds).
unsigned checked_unsigned(const dhc::support::Cli& cli, const char* flag, long max_value) {
  const long raw = cli.get_int(flag, 0);
  if (raw < 0 || raw > max_value) {
    throw std::invalid_argument(std::string("flag --") + flag + " must be in [0, " +
                                std::to_string(max_value) + "], got " + std::to_string(raw));
  }
  return static_cast<unsigned>(raw);
}

void write_artifact(const std::string& path, const std::string& what,
                    const std::function<void(std::ostream&)>& emit) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + what + " artifact '" + path + "'");
  emit(out);
  std::cout << what << " artifact: " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dhc;
  try {
    const support::Cli cli(argc, argv);
    std::set<std::string> known = runner::scenario_flags();
    known.insert({"help", "threads", "shards", "verify", "track_rss", "trace", "json", "csv"});
    cli.reject_unknown(known);
    if (cli.has("help")) {
      std::cout << "usage: dhc_run [--scenario=FILE] [--algos=...] "
                   "[--model=congest|kmachine|async] "
                   "[--sizes=...] [--deltas=...] [--cs=...] [--machines=...] [--bandwidth=N] "
                   "[--delay_dist=...] [--drop_prob=...] [--crash_schedule=...] "
                   "[--reliability=none|ack] [--rto=SPEC] [--max_rounds=N] "
                   "[--seeds=N] [--threads=N] [--json=PATH] [--csv=PATH]\n"
                   "Unknown, repeated or malformed flags are an error (exit 2).\n"
                   "algorithms: sequential|dra|dhc1|dhc2|upcast|collect-all|turau|cre\n"
                   "--model=kmachine prices any algorithm in the k-machine model "
                   "(sweeps --machines counts).\n"
                   "--model=async injects seed-deterministic delivery delays "
                   "(--delay_dist), drops (--drop_prob), and crashes "
                   "(--crash_schedule); --reliability=ack adds the "
                   "retransmit overlay (tune with --rto).\n"
                   "See the header of tools/dhc_run.cc for the full flag list.\n";
      return EXIT_SUCCESS;
    }
    const runner::Scenario scenario = runner::scenario_from_cli(cli);
    runner::RunnerOptions opt;
    opt.threads = cli.has("threads") ? checked_unsigned(cli, "threads", 1 << 20) : 1;
    opt.verify = cli.get_bool("verify", true);
    opt.shards = checked_unsigned(cli, "shards", 1 << 20);
    opt.track_rss = cli.get_bool("track_rss", false);
    if (cli.has("trace")) {
      opt.trace_dir = cli.get_string("trace", "");
      if (opt.trace_dir.empty() || opt.trace_dir == "true") {
        throw std::invalid_argument("--trace needs a directory: --trace=DIR");
      }
      std::filesystem::create_directories(opt.trace_dir);
    }

    const auto trials = runner::expand(scenario);
    const auto par = runner::resolve_parallelism(trials.size(), opt);
    std::cout << "scenario '" << scenario.name << "': " << trials.size() << " trials over "
              << (trials.empty() ? 0 : trials.back().config_index + 1) << " configurations, "
              << par.threads << " thread(s) x " << par.shards << " shard(s)\n\n";

    const auto start = std::chrono::steady_clock::now();
    const auto results = runner::run_trials(trials, opt);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    const auto summaries = runner::aggregate(trials, results);
    runner::summary_table(summaries).print(std::cout);

    std::uint64_t failures = 0;
    double trial_seconds = 0.0;
    for (const auto& r : results) {
      if (!r.success) ++failures;
      trial_seconds += r.wall_seconds;
    }
    std::cout << "\n" << trials.size() << " trials, " << failures << " failed; wall "
              << wall << " s (" << trial_seconds << " s of trial work)\n";

    const std::string json_path = cli.get_string("json", "dhc_run.json");
    if (!json_path.empty()) {
      write_artifact(json_path, "JSON", [&](std::ostream& os) {
        runner::write_json(os, scenario.name, summaries);
      });
    }
    const std::string csv_path = cli.get_string("csv", "");
    if (!csv_path.empty()) {
      write_artifact(csv_path, "CSV",
                     [&](std::ostream& os) { runner::write_csv(os, summaries); });
    }
    return EXIT_SUCCESS;
  } catch (const std::invalid_argument& e) {
    std::cerr << "dhc_run: " << e.what() << "\n(run with --help for usage)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "dhc_run: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
