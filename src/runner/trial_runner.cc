#include "runner/trial_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>
#include <stdexcept>

#include <sys/resource.h>

#include "async/async.h"
#include "congest/fault_plan.h"
#include "core/dhc1.h"
#include "core/dhc2.h"
#include "core/dra.h"
#include "core/sequential.h"
#include "core/sequential_linear.h"
#include "core/turau.h"
#include "core/upcast.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/hamiltonian.h"
#include "kmachine/kmachine.h"
#include "support/rng.h"
#include "support/worker_pool.h"
#include "trace/recorder.h"

namespace dhc::runner {

graph::Graph make_trial_instance(const TrialConfig& t) {
  support::Rng rng(t.graph_seed);
  const double p = graph::edge_probability(t.n, t.c, t.delta);  // clamped to 1 by the callee
  switch (t.family) {
    case GraphFamily::kGnp:
      return graph::gnp(t.n, p, rng);
    case GraphFamily::kGnm: {
      const double pairs = static_cast<double>(t.n) * (t.n - 1) / 2.0;
      const auto m = static_cast<std::uint64_t>(std::llround(p * pairs));
      return graph::gnm(t.n, std::min<std::uint64_t>(m, static_cast<std::uint64_t>(pairs)), rng);
    }
    case GraphFamily::kRegular: {
      // Match the G(n, p) expected degree, adjusted to a feasible even-sum
      // degree sequence (configuration model needs n·d even and d < n).
      auto d = static_cast<std::uint32_t>(std::llround(p * (t.n - 1)));
      d = std::max<std::uint32_t>(d, 3);
      d = std::min<std::uint32_t>(d, t.n - 1);
      if ((static_cast<std::uint64_t>(t.n) * d) % 2 != 0) {
        d = d + 1 < t.n ? d + 1 : d - 1;
      }
      return graph::random_regular(t.n, d, rng);
    }
    case GraphFamily::kPowerlaw: {
      // Chung–Lu with the paper-standard power-law exponent β = 2.5, scaled
      // to the G(n, p) expected average degree so (c, δ) sweeps stay
      // density-comparable across families.
      const double average_degree = std::max(p * (t.n - 1), 1.0);
      const auto weights = graph::power_law_weights(t.n, /*beta=*/2.5, average_degree);
      return graph::chung_lu(weights, rng);
    }
  }
  throw std::logic_error("unreachable graph family");
}

namespace {

// Moves the per-algorithm stats map (heap-allocated string keys, one map
// per trial) and failure string into the TrialResult instead of copying
// them; everything else on `r` — in particular `r.cycle`, which callers
// verify afterwards — is left untouched.
void fill_from_result(TrialResult& out, core::Result& r) {
  out.success = r.success;
  out.failure_reason = std::move(r.failure_reason);
  out.rounds = static_cast<double>(r.metrics.rounds);
  out.messages = static_cast<double>(r.metrics.messages);
  out.bits = static_cast<double>(r.metrics.bits);
  out.peak_memory = static_cast<double>(r.metrics.max_node_peak_memory());
  out.barriers = static_cast<double>(r.metrics.barrier_count);
  out.accounted_rounds = static_cast<double>(r.metrics.accounted_rounds());
  out.stats = std::move(r.stats);

  // Observability passthrough: the barrier/phase accounting and the per-node
  // sent-distribution digest become stat_ columns in every artifact.
  out.stats["barrier_count"] = static_cast<double>(r.metrics.barrier_count);
  out.stats["accounted_rounds"] = static_cast<double>(r.metrics.accounted_rounds());
  for (const auto& [label, from_round] : r.metrics.phase_marks) {
    const std::string key = "phase_" + label + "_rounds";
    if (out.stats.contains(key)) continue;  // repeated labels: one summed entry
    out.stats[key] = static_cast<double>(r.metrics.phase_rounds(label));
  }
  if (r.metrics.sent_summary.count > 0) {
    out.stats["node_sent_p50"] = r.metrics.sent_summary.p50;
    out.stats["node_sent_p95"] = r.metrics.sent_summary.p95;
    out.stats["node_sent_p99"] = r.metrics.sent_summary.p99;
  }
  // Logical in-flight message high-water mark (congest/metrics.h): a count of
  // messages × sizeof(Message), never allocator capacity, so it is bitwise
  // identical across thread counts, shard counts, and arena budgets.
  out.stats["arena_bytes_peak"] = static_cast<double>(r.metrics.arena_bytes_peak);
}

// Instance facts recorded for every trial, whatever the model or solver;
// must run *after* fill_from_result (which replaces the stats map).
void add_instance_stats(TrialResult& out, const graph::Graph& g, const TrialConfig& t) {
  out.stats["graph_m"] = static_cast<double>(g.m());
  out.stats["graph_connected"] = graph::is_connected(g) ? 1.0 : 0.0;
  out.stats["mean_degree"] = t.n > 0 ? 2.0 * static_cast<double>(g.m()) / t.n : 0.0;
}

// A failed verification overrides a solver's claimed success.
void apply_verdict(TrialResult& out, const graph::VerifyResult& v) {
  if (v.ok()) return;
  out.success = false;
  out.failure_reason = "verifier: " + *v.failure;
}

// The sequential oracles (sequential rotation, cre) have no network: their
// `rounds` are solver steps.  They share the CONGEST solvers' seed
// discipline, so an oracle cell pairs with any CONGEST cell that shares
// (family, n, delta, c, t).
void run_oracle(TrialResult& out, const graph::Graph& g, const TrialConfig& t, bool verify) {
  support::Rng rng(t.algo_seed);
  const auto fill = [&](const auto& r) {
    out.success = r.success;
    out.failure_reason = r.failure_reason;
    out.rounds = static_cast<double>(r.stats.steps);
    out.stats["steps"] = static_cast<double>(r.stats.steps);
    out.stats["extensions"] = static_cast<double>(r.stats.extensions);
    out.stats["rotations"] = static_cast<double>(r.stats.rotations);
    if constexpr (requires { r.stats.resamples; }) {
      out.stats["resamples"] = static_cast<double>(r.stats.resamples);
    }
    if (out.success && verify) apply_verdict(out, graph::verify_cycle_order(g, r.cycle));
  };
  if (t.algo == Algorithm::kCre) {
    fill(core::cre_hamiltonian_cycle(g, rng));
  } else {
    fill(core::rotation_hamiltonian_cycle(g, rng));
  }
}

// Maps a TrialConfig to the adapter that runs its CONGEST solver — the
// single place scenario parameters are forwarded into solver configs, so
// the same cell under different execution models can never drift apart.
// The adapter overwrites only (observer, shards, faults) per call, so the
// trace sink and node-stats mode ride in the base config's engine options.
kmachine::CongestAlgorithm congest_algorithm_for(const TrialConfig& t,
                                                 const congest::EngineOptions& engine) {
  const auto with_engine = [&](auto cfg) {
    static_cast<congest::EngineOptions&>(cfg) = engine;
    return cfg;
  };
  switch (t.algo) {
    case Algorithm::kDra:
      return kmachine::dra_algorithm(with_engine(core::DraConfig{}));
    case Algorithm::kDhc1:
      return kmachine::dhc1_algorithm(with_engine(core::Dhc1Config{}));
    case Algorithm::kDhc2: {
      core::Dhc2Config cfg = with_engine(core::Dhc2Config{});
      cfg.delta = t.delta;
      cfg.merge_strategy = t.merge;
      return kmachine::dhc2_algorithm(cfg);
    }
    case Algorithm::kTurau:
      return kmachine::turau_algorithm(with_engine(core::TurauConfig{}));
    case Algorithm::kUpcast:
    case Algorithm::kCollectAll: {
      core::UpcastConfig cfg = with_engine(core::UpcastConfig{});
      cfg.collect_all = t.algo == Algorithm::kCollectAll;
      return kmachine::upcast_algorithm(cfg);
    }
    case Algorithm::kSequential:
    case Algorithm::kCre:
      break;
  }
  throw std::invalid_argument(to_string(t.algo) + " has no CONGEST execution to run under model " +
                              to_string(t.model));
}

// Runs one CONGEST trial.  The execution model is an attachment on the one
// solver call, never a separate path: model = kmachine attaches a
// KMachineCost observer (src/kmachine: a random vertex partition over
// t.machines machines seeded from algo_seed, per-link bandwidth
// t.bandwidth), model = async passes a FaultPlan (src/async: seed-
// deterministic delays, drops, crash windows, optional ack overlay), and
// model = congest attaches neither.  Each attachment adds its own stats
// columns, read from the solver's Metrics and the attachment itself.
void run_congest(TrialResult& out, const graph::Graph& g, const TrialConfig& t,
                 const TrialOptions& opt, trace::TraceRecorder* rec) {
  std::optional<kmachine::KMachineCost> cost;
  if (t.model == ExecutionModel::kKMachine) {
    cost.emplace(g.n(), t.machines, t.bandwidth, /*partition seed=*/t.algo_seed);
    cost->set_trace(rec);
  }
  std::optional<congest::FaultPlan> plan;
  if (t.model == ExecutionModel::kAsync) {
    plan.emplace(congest::DelaySpec::parse(t.delay_dist), t.drop_prob,
                 congest::CrashSpec::parse(t.crash_schedule),
                 async::derive_fault_seed(t.algo_seed), t.max_rounds);
    plan->set_reliability(congest::ReliabilitySpec::parse(t.reliability),
                          t.rto.empty() ? congest::RtoSpec{} : congest::RtoSpec::parse(t.rto));
  }

  congest::EngineOptions engine;
  engine.observer = cost ? &*cost : nullptr;
  engine.shards = opt.shards;
  engine.faults = plan ? &*plan : nullptr;
  engine.trace = rec;
  engine.node_stats = opt.node_stats;
  core::Result r = congest_algorithm_for(t, engine)(g, t.algo_seed, engine.observer,
                                                    engine.shards, engine.faults);
  if (cost) cost->finish();
  if (rec != nullptr) rec->finalize(r.metrics);
  fill_from_result(out, r);

  const congest::Metrics& m = r.metrics;
  if (cost) {
    // The headline rounds are the converted k-machine rounds.
    out.rounds = static_cast<double>(cost->kmachine_rounds());
    out.stats["congest_rounds"] = static_cast<double>(m.rounds);
    out.stats["kmachine_rounds"] = static_cast<double>(cost->kmachine_rounds());
    out.stats["cross_messages"] = static_cast<double>(cost->cross_messages());
    out.stats["local_messages"] = static_cast<double>(cost->local_messages());
    out.stats["busiest_link_peak"] = static_cast<double>(cost->busiest_link_peak());
  }
  if (plan) {
    // A round-limit failure is ambiguous on its own: a quiescent network
    // means the protocol *stalled* (e.g. a lost message nobody re-sends),
    // while pending traffic means it was still *live* (delay-induced
    // livelock).  Suffix the reason so sweeps can tell them apart without
    // reading traces.
    if (m.hit_round_limit) out.failure_reason += m.round_limit_live ? " (live)" : " (stalled)";
    out.stats["delayed_messages"] = static_cast<double>(m.delayed_messages);
    out.stats["dropped_messages"] = static_cast<double>(m.dropped_messages);
    out.stats["crash_dropped_messages"] = static_cast<double>(m.crash_dropped_messages);
    out.stats["crashed_steps"] = static_cast<double>(m.crashed_steps);
    out.stats["crashed_nodes"] = static_cast<double>(plan->crashed_node_count(g.n()));
    out.stats["crashed_rejoins"] = static_cast<double>(m.crashed_rejoins);
    out.stats["retransmits"] = static_cast<double>(m.retransmits);
    out.stats["dup_suppressed"] = static_cast<double>(m.dup_suppressed);
    out.stats["acks_sent"] = static_cast<double>(m.acks_sent);
    out.stats["payload_messages"] = static_cast<double>(m.payload_messages());
    out.stats["hit_round_limit"] = m.hit_round_limit ? 1.0 : 0.0;
    out.stats["round_limit_live"] = m.round_limit_live ? 1.0 : 0.0;
  }
  if (out.success && opt.verify) apply_verdict(out, graph::verify_cycle_incidence(g, r.cycle));
}

TrialResult run_trial_unchecked(const TrialConfig& t, const TrialOptions& opt) {
  TrialResult out;
  const graph::Graph g = make_trial_instance(t);

  const bool oracle = t.algo == Algorithm::kSequential || t.algo == Algorithm::kCre;
  if (oracle && t.model == ExecutionModel::kCongest) {
    run_oracle(out, g, t, opt.verify);
    add_instance_stats(out, g, t);
    return out;
  }

  // Oracles have no network to tap; every CONGEST trial records when a trace
  // directory is set.
  trace::TraceRecorder recorder;
  trace::TraceRecorder* rec = opt.trace_dir.empty() ? nullptr : &recorder;
  if (rec != nullptr) {
    trace::TraceMeta meta;
    meta.algo = to_string(t.algo);
    meta.model = to_string(t.model);
    meta.family = to_string(t.family);
    meta.merge = to_string(t.merge);
    meta.n = t.n;
    meta.m = g.m();
    meta.delta = t.delta;
    meta.c = t.c;
    meta.graph_seed = t.graph_seed;
    meta.algo_seed = t.algo_seed;
    meta.machines = t.machines;
    meta.bandwidth = t.bandwidth;
    meta.shards = opt.shards != 0 ? opt.shards : congest::default_shards();
    meta.node_stats = congest::to_string(opt.node_stats);
    meta.config_index = t.config_index;
    meta.trial_index = t.trial_index;
    recorder.set_meta(std::move(meta));
  }

  run_congest(out, g, t, opt, rec);
  add_instance_stats(out, g, t);

  if (rec != nullptr) {
    rec->set_outcome(out.success, out.failure_reason);
    const std::string path = opt.trace_dir + "/trace_c" + std::to_string(t.config_index) +
                             "_t" + std::to_string(t.trial_index) + ".ndjson";
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    rec->write_ndjson(os);
    os.flush();
    if (!os) throw std::runtime_error("cannot write trace file '" + path + "'");
    out.trace_file = path;
  }
  return out;
}

/// Process peak RSS in kilobytes (getrusage), 0 if unavailable.
long current_peak_rss_kb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss;  // kilobytes on Linux
}

}  // namespace

TrialResult run_trial(const TrialConfig& t, bool verify, std::uint32_t shards) {
  TrialOptions opt;
  opt.verify = verify;
  opt.shards = shards;
  return run_trial(t, opt);
}

TrialResult run_trial(const TrialConfig& t, const TrialOptions& opt) {
  const auto start = std::chrono::steady_clock::now();
  TrialResult out;
  try {
    out = run_trial_unchecked(t, opt);
  } catch (const std::exception& e) {
    out = TrialResult{};
    out.success = false;
    out.failure_reason = std::string("exception: ") + e.what();
  }
  if (opt.track_rss) {
    // Process-wide peak at trial end: monotone, so under trial-parallelism
    // the last trial's value is the run's peak.  Opt-in because it is not
    // deterministic (see RunnerOptions::track_rss).
    out.stats["rss_peak_kb"] = static_cast<double>(current_peak_rss_kb());
  }
  out.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

ResolvedParallelism resolve_parallelism(std::size_t trial_count, const RunnerOptions& opt) {
  const unsigned hw = support::WorkerPool::hardware_lanes();
  // Clamp the requested budget against the hardware *before* the
  // trial-count min: asking for 64 threads on an 8-way box runs 8 of them,
  // and the artifacts record the 8 that actually ran.
  const unsigned budget = opt.threads == 0 ? hw : std::max(1u, std::min(opt.threads, hw));

  ResolvedParallelism r;
  if (trial_count == 0) {
    // Nothing to run: report the neutral 1×1 split instead of falling into
    // the few-huge-trials branch, which would hand the whole budget to the
    // shard axis of trials that don't exist.
    return r;
  }
  if (opt.shards != 0) {
    // Explicit shard count: honored verbatim — the shard *partition* is a
    // determinism knob, not a thread count; the in-trial pool caps its own
    // workers at the hardware.
    r.shards = opt.shards;
  } else if (congest::default_shards() != 1) {
    // A DHC_SHARDS environment default is as explicit as a flag (it is how
    // the CI shard matrix drives everything sharded).
    r.shards = congest::default_shards();
  } else if (trial_count >= budget) {
    // Many small trials: trial-parallelism uses the whole budget.
    r.shards = 1;
  } else {
    // Few huge trials: split the budget, leftover lanes become shards.
    r.shards = budget / static_cast<unsigned>(std::max<std::size_t>(trial_count, 1));
  }
  r.shards = std::max<std::uint32_t>(r.shards, 1);

  // Oversubscription clamp: concurrent trials shrink so that
  // trials × min(shards, budget) never exceeds the budget.
  const unsigned lanes_per_trial = std::min<unsigned>(r.shards, budget);
  r.threads = std::max(1u, budget / lanes_per_trial);
  if (trial_count > 0) {
    r.threads = std::min<unsigned>(r.threads, static_cast<unsigned>(trial_count));
  }
  return r;
}

std::vector<TrialResult> run_trials(const std::vector<TrialConfig>& trials,
                                    const RunnerOptions& opt) {
  std::vector<TrialResult> results(trials.size());
  if (trials.empty()) return results;
  const ResolvedParallelism par = resolve_parallelism(trials.size(), opt);

  // Workers claim trial indices from the pool's shared cursor and write into
  // their own slot; result content depends only on (TrialConfig, verify) —
  // the shard count is behavior-neutral by construction — so neither the
  // claim order nor the thread/shard split can affect aggregates.
  TrialOptions topt;
  topt.verify = opt.verify;
  topt.shards = par.shards;
  topt.trace_dir = opt.trace_dir;
  topt.node_stats = opt.node_stats;
  topt.track_rss = opt.track_rss;
  support::WorkerPool pool(par.threads);
  pool.run(trials.size(), [&](std::size_t i) {
    results[i] = run_trial(trials[i], topt);
  });
  return results;
}

}  // namespace dhc::runner
