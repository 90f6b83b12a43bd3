// Flight-recorder tests: NDJSON schema golden, shard invariance of every
// counter, phase-span accounting, the k-machine kround stream, the reader
// round trip, and the run_trial trace-file integration.
//
// The golden file pins the byte-exact schema-v4 output (wall fields zeroed,
// shard-profile fields omitted — the deterministic projection).  Regenerate
// after a reviewed schema change with:
//
//   DHC_UPDATE_GOLDEN=1 ./trace_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/fault_plan.h"
#include "core/dhc1.h"
#include "core/dhc2.h"
#include "core/dra.h"
#include "core/turau.h"
#include "core/upcast.h"
#include "graph/generators.h"
#include "kmachine/kmachine.h"
#include "runner/trial_runner.h"
#include "support/json.h"
#include "trace/chrome.h"
#include "trace/reader.h"
#include "trace/recorder.h"
#include "trace/summary.h"

#ifndef DHC_TRACE_GOLDEN_FILE
#define DHC_TRACE_GOLDEN_FILE "tests/golden/trace_golden.ndjson"
#endif

namespace dhc::trace {
namespace {

graph::Graph instance(graph::NodeId n, double c, double delta, std::uint64_t seed) {
  support::Rng rng(seed);
  return graph::gnp(n, graph::edge_probability(n, c, delta), rng);
}

TraceMeta meta_for(const char* algo, graph::NodeId n, std::uint64_t m, std::uint64_t seed) {
  TraceMeta meta;
  meta.algo = algo;
  meta.family = "gnp";
  meta.n = n;
  meta.m = m;
  meta.delta = 1.0;
  meta.c = 3.0;
  meta.graph_seed = 42;
  meta.algo_seed = seed;
  return meta;
}

/// Runs DHC2 on the pinned golden instance with a recorder attached and
/// returns the deterministic projection (walls zeroed, shard fields off).
std::string golden_projection(std::uint32_t shards) {
  const graph::Graph g = instance(96, 3.0, 1.0, 42);
  TraceRecorder rec;
  rec.set_meta(meta_for("dhc2", 96, g.m(), 7));
  core::Dhc2Config cfg;
  cfg.trace = &rec;
  cfg.shards = shards;
  const auto r = core::run_dhc2(g, 7, cfg);
  rec.finalize(r.metrics);
  rec.set_outcome(r.success, r.failure_reason);
  std::ostringstream os;
  rec.write_ndjson(os, {.walls = false, .shard_profile = false});
  return os.str();
}

TEST(TraceGolden, SchemaV4IsPinned) {
  const std::string got = golden_projection(/*shards=*/1);
  const std::string path = DHC_TRACE_GOLDEN_FILE;

  if (std::getenv("DHC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write golden file " << path;
    out << got;
    GTEST_SKIP() << "golden trace updated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run DHC_UPDATE_GOLDEN=1 ./trace_test once";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str()) << "trace schema or counters changed — review, then regenerate "
                                "with DHC_UPDATE_GOLDEN=1 ./trace_test";
}

TEST(TraceDeterminism, RepeatedRunsAreByteIdentical) {
  EXPECT_EQ(golden_projection(1), golden_projection(1));
}

TEST(TraceDeterminism, CountersAreShardInvariant) {
  // Every non-wall, non-shard-profile byte must be independent of the shard
  // count (the ISSUE acceptance criterion, at the network level).
  const std::string one = golden_projection(1);
  EXPECT_EQ(one, golden_projection(2));
  EXPECT_EQ(one, golden_projection(4));
}

TEST(TraceSpans, SumToMetricsRoundsForEverySolver) {
  const graph::Graph g = instance(96, 4.0, 0.75, 9);
  struct Case {
    const char* name;
    std::function<core::Result(congest::TraceSink*)> run;
  };
  const std::vector<Case> cases = {
      {"dra",
       [&](congest::TraceSink* t) {
         core::DraConfig c;
         c.trace = t;
         return core::run_dra(g, 3, c);
       }},
      {"dhc1",
       [&](congest::TraceSink* t) {
         core::Dhc1Config c;
         c.trace = t;
         return core::run_dhc1(g, 3, c);
       }},
      {"dhc2",
       [&](congest::TraceSink* t) {
         core::Dhc2Config c;
         c.trace = t;
         return core::run_dhc2(g, 3, c);
       }},
      {"turau",
       [&](congest::TraceSink* t) {
         core::TurauConfig c;
         c.trace = t;
         return core::run_turau(g, 3, c);
       }},
      {"upcast",
       [&](congest::TraceSink* t) {
         core::UpcastConfig c;
         c.trace = t;
         return core::run_upcast(g, 3, c);
       }},
  };
  for (const Case& c : cases) {
    TraceRecorder rec;
    const auto r = c.run(&rec);
    rec.finalize(r.metrics);
    std::uint64_t span_rounds = 0, span_sent = 0, span_bits = 0, span_barriers = 0;
    for (const PhaseSpan& s : rec.spans()) {
      span_rounds += s.rounds;
      span_sent += s.sent;
      span_bits += s.bits;
      span_barriers += s.barriers;
    }
    // Spans partition [1, rounds+1); messages/bits/barriers attach to the
    // span containing their round, so the totals must match exactly.
    EXPECT_EQ(span_rounds, r.metrics.rounds) << c.name;
    EXPECT_EQ(span_sent, r.metrics.messages) << c.name;
    EXPECT_EQ(span_bits, r.metrics.bits) << c.name;
    EXPECT_EQ(span_barriers, r.metrics.barrier_count) << c.name;
    EXPECT_EQ(rec.phases().size(), r.metrics.phase_marks.size()) << c.name;
  }
}

TEST(TraceKMachine, KRoundChargesSumToReportRounds) {
  const graph::Graph g = instance(64, 4.0, 0.5, 21);
  TraceRecorder rec;
  kmachine::KMachineCost cost(g.n(), /*k=*/4, /*bandwidth=*/16, /*partition seed=*/5);
  cost.set_trace(&rec);
  core::Dhc2Config cfg;
  cfg.trace = &rec;
  cfg.observer = &cost;
  const auto r = core::run_dhc2(g, 5, cfg);
  cost.finish();
  rec.finalize(r.metrics);

  ASSERT_FALSE(rec.krounds().empty());
  std::uint64_t charge_sum = 0;
  for (const KRoundRecord& k : rec.krounds()) {
    EXPECT_GT(k.busiest, 0u);
    EXPECT_GE(k.charge, 1u);
    charge_sum += k.charge;
  }
  EXPECT_EQ(charge_sum, cost.kmachine_rounds());
  EXPECT_EQ(rec.kmachine_rounds_total(), cost.kmachine_rounds());
  // Network rounds recorded alongside the pricing stream.
  EXPECT_EQ(rec.metrics().rounds, r.metrics.rounds);
}

TEST(TraceReader, RoundTripPreservesEveryRecord) {
  const graph::Graph g = instance(80, 3.0, 1.0, 33);
  TraceRecorder rec;
  rec.set_meta(meta_for("turau", 80, g.m(), 13));
  core::TurauConfig cfg;
  cfg.trace = &rec;
  const auto r = core::run_turau(g, 13, cfg);
  rec.finalize(r.metrics);
  rec.set_outcome(r.success, r.failure_reason);

  std::stringstream ss;
  rec.write_ndjson(ss);  // full output: walls + shard profile on
  const TraceData data = read_trace(ss);

  EXPECT_EQ(data.schema, 4u);
  EXPECT_EQ(data.meta_str("algo"), "turau");
  EXPECT_EQ(data.meta_u64("n"), 80u);
  EXPECT_EQ(data.meta_u64("m"), g.m());
  EXPECT_EQ(data.meta_u64("algo_seed"), 13u);
  EXPECT_EQ(data.phases.size(), rec.phases().size());
  EXPECT_EQ(data.rounds.size(), rec.rounds().size());
  EXPECT_EQ(data.barriers.size(), rec.barriers().size());
  EXPECT_EQ(data.spans.size(), rec.spans().size());
  EXPECT_EQ(data.summary_u64("rounds"), r.metrics.rounds);
  EXPECT_EQ(data.summary_u64("messages"), r.metrics.messages);
  EXPECT_EQ(data.summary_u64("bits"), r.metrics.bits);
  EXPECT_EQ(data.summary_u64("barriers"), r.metrics.barrier_count);
  ASSERT_TRUE(data.has_outcome);
  EXPECT_EQ(data.success, r.success);

  for (std::size_t i = 0; i < data.rounds.size(); ++i) {
    EXPECT_EQ(data.rounds[i].round, rec.rounds()[i].round);
    EXPECT_EQ(data.rounds[i].active, rec.rounds()[i].active);
    EXPECT_EQ(data.rounds[i].sent, rec.rounds()[i].sent);
    EXPECT_EQ(data.rounds[i].bits, rec.rounds()[i].bits);
  }
  for (std::size_t i = 0; i < data.spans.size(); ++i) {
    EXPECT_EQ(data.spans[i].label, rec.spans()[i].label);
    EXPECT_EQ(data.spans[i].rounds, rec.spans()[i].rounds);
  }
}

TEST(TraceReader, FaultRecordsRoundTripFromAnAsyncRun) {
  // Schema v2: async runs interleave "fault" lines with the round stream and
  // append the fault totals to the summary; both must survive the reader.
  const graph::Graph g = instance(96, 3.0, 0.75, 18);
  TraceRecorder rec;
  rec.set_meta(meta_for("dhc2", 96, g.m(), 3));
  const congest::FaultPlan plan(congest::DelaySpec::parse("fixed:2"), /*drop_prob=*/0.05,
                                congest::CrashSpec{}, /*fault_seed=*/91);
  core::Dhc2Config cfg;
  cfg.trace = &rec;
  cfg.faults = &plan;
  const auto r = core::run_dhc2(g, 3, cfg);
  rec.finalize(r.metrics);
  rec.set_outcome(r.success, r.failure_reason);

  ASSERT_FALSE(rec.faults().empty());
  std::stringstream ss;
  rec.write_ndjson(ss);
  const TraceData data = read_trace(ss);

  EXPECT_EQ(data.schema, 4u);
  ASSERT_EQ(data.faults.size(), rec.faults().size());
  std::uint64_t delayed = 0, dropped = 0;
  for (std::size_t i = 0; i < data.faults.size(); ++i) {
    EXPECT_EQ(data.faults[i].round, rec.faults()[i].round);
    EXPECT_EQ(data.faults[i].delayed, rec.faults()[i].delayed);
    EXPECT_EQ(data.faults[i].dropped, rec.faults()[i].dropped);
    EXPECT_EQ(data.faults[i].crash_dropped, rec.faults()[i].crash_dropped);
    EXPECT_EQ(data.faults[i].crashed_steps, rec.faults()[i].crashed_steps);
    delayed += data.faults[i].delayed;
    dropped += data.faults[i].dropped;
  }
  // Per-round fault deltas sum to the run totals, which the summary carries.
  EXPECT_EQ(delayed, r.metrics.delayed_messages);
  EXPECT_EQ(dropped, r.metrics.dropped_messages);
  EXPECT_EQ(data.summary_u64("delayed_messages"), r.metrics.delayed_messages);
  EXPECT_EQ(data.summary_u64("dropped_messages"), r.metrics.dropped_messages);
}

TEST(TraceReader, RetransAndRejoinRecordsRoundTripFromAReliableRun) {
  // Schema v3: reliability=ack runs interleave "retrans" lines with the
  // round stream (and crash-window runs a "rejoin" line); the per-round
  // deltas must survive the reader and sum to the summary totals.
  const graph::Graph g = instance(96, 3.0, 0.75, 18);
  TraceRecorder rec;
  rec.set_meta(meta_for("dhc2", 96, g.m(), 3));
  congest::FaultPlan plan(congest::DelaySpec::parse("fixed:1"), /*drop_prob=*/0.05,
                          congest::CrashSpec::parse("random:0.2:40:30"), /*fault_seed=*/91,
                          /*max_rounds=*/200000);
  plan.set_reliability(congest::ReliabilitySpec::parse("ack"), congest::RtoSpec{});
  core::Dhc2Config cfg;
  cfg.trace = &rec;
  cfg.faults = &plan;
  const auto r = core::run_dhc2(g, 3, cfg);
  rec.finalize(r.metrics);
  rec.set_outcome(r.success, r.failure_reason);

  ASSERT_FALSE(rec.retrans().empty());
  std::stringstream ss;
  rec.write_ndjson(ss);
  const TraceData data = read_trace(ss);

  EXPECT_EQ(data.schema, 4u);
  ASSERT_EQ(data.retrans.size(), rec.retrans().size());
  std::uint64_t retransmits = 0, dups = 0, acks = 0;
  for (std::size_t i = 0; i < data.retrans.size(); ++i) {
    EXPECT_EQ(data.retrans[i].round, rec.retrans()[i].round);
    EXPECT_EQ(data.retrans[i].retransmits, rec.retrans()[i].retransmits);
    EXPECT_EQ(data.retrans[i].dup_suppressed, rec.retrans()[i].dup_suppressed);
    EXPECT_EQ(data.retrans[i].acks_sent, rec.retrans()[i].acks_sent);
    retransmits += data.retrans[i].retransmits;
    dups += data.retrans[i].dup_suppressed;
    acks += data.retrans[i].acks_sent;
  }
  EXPECT_EQ(retransmits, r.metrics.retransmits);
  EXPECT_EQ(dups, r.metrics.dup_suppressed);
  EXPECT_EQ(acks, r.metrics.acks_sent);
  EXPECT_EQ(data.summary_u64("retransmits"), r.metrics.retransmits);
  EXPECT_EQ(data.summary_u64("payload_messages"), r.metrics.payload_messages());

  // The crash window closed mid-run, so the rejoin mark must round-trip too.
  ASSERT_EQ(data.rejoins.size(), rec.rejoins().size());
  ASSERT_EQ(data.rejoins.size(), 1u);
  EXPECT_EQ(data.rejoins[0].round, rec.rejoins()[0].round);
  EXPECT_EQ(data.rejoins[0].nodes, rec.rejoins()[0].nodes);
  EXPECT_EQ(data.rejoins[0].nodes, r.metrics.crashed_rejoins);
  EXPECT_GT(data.rejoins[0].nodes, 0u);
  EXPECT_GE(data.rejoins[0].round, 70u);  // window [40, 70) closes at 70
  EXPECT_EQ(data.summary_u64("crashed_rejoins"), r.metrics.crashed_rejoins);
}

TEST(TraceReader, SeedsSurviveExactly) {
  // 64-bit seeds do not fit a double; the reader must keep them integral.
  TraceRecorder rec;
  TraceMeta meta = meta_for("dhc2", 8, 28, 1);
  meta.graph_seed = 2443007606088161615ull;
  meta.algo_seed = 18446744073709551557ull;  // largest prime below 2^64
  rec.set_meta(meta);
  congest::Metrics m;
  rec.finalize(m);
  std::stringstream ss;
  rec.write_ndjson(ss);
  const TraceData data = read_trace(ss);
  EXPECT_EQ(data.meta_u64("graph_seed"), 2443007606088161615ull);
  EXPECT_EQ(data.meta_u64("algo_seed"), 18446744073709551557ull);
}

TEST(TraceReader, RejectsEveryOtherSchema) {
  // Traces are regenerated, not archived: the reader takes only the schema
  // the recorder writes.
  TraceRecorder rec;
  rec.set_meta(meta_for("dhc2", 8, 28, 1));
  rec.finalize(congest::Metrics{});
  std::ostringstream os;
  rec.write_ndjson(os);
  const std::string v4 = os.str();
  const std::string key = "\"schema\":4";
  ASSERT_NE(v4.find(key), std::string::npos);
  for (const char* other : {"\"schema\":3", "\"schema\":5"}) {
    std::string text = v4;
    text.replace(text.find(key), key.size(), other);
    std::istringstream in(text);
    EXPECT_THROW(read_trace(in), std::invalid_argument) << other;
  }
}

TEST(TraceSummary, PhaseRoundsSumToMetricsRounds) {
  // dhc_trace --summarize invariant: the per-phase table's TOTAL rounds row
  // equals the summary "rounds" counter.
  const graph::Graph g = instance(96, 3.0, 1.0, 42);
  TraceRecorder rec;
  rec.set_meta(meta_for("dhc2", 96, g.m(), 7));
  core::Dhc2Config cfg;
  cfg.trace = &rec;
  const auto r = core::run_dhc2(g, 7, cfg);
  rec.finalize(r.metrics);
  rec.set_outcome(r.success, r.failure_reason);
  std::stringstream ss;
  rec.write_ndjson(ss);
  const TraceData data = read_trace(ss);

  std::uint64_t table_rounds = 0;
  for (const PhaseSpan& s : data.spans) table_rounds += s.rounds;
  EXPECT_EQ(table_rounds, data.summary_u64("rounds"));

  std::ostringstream report;
  print_summary(data, report);
  EXPECT_NE(report.str().find("TOTAL"), std::string::npos);
  EXPECT_NE(report.str().find("algo=dhc2"), std::string::npos);
}

TEST(TraceIntegration, RunTrialWritesReadableTraceFile) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dhc_trace_test_out").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  runner::TrialConfig t;
  t.algo = runner::Algorithm::kDhc2;
  t.n = 64;
  t.delta = 1.0;
  t.c = 3.0;
  t.graph_seed = 101;
  t.algo_seed = 202;
  t.config_index = 3;
  t.trial_index = 1;
  runner::RunnerOptions opt;
  opt.trace_dir = dir;
  const auto r = runner::run_trial(t, opt);

  EXPECT_EQ(r.trace_file, dir + "/trace_c3_t1.ndjson");
  const TraceData data = read_trace_file(r.trace_file);
  EXPECT_EQ(data.meta_str("algo"), "dhc2");
  EXPECT_EQ(data.meta_u64("n"), 64u);
  EXPECT_EQ(data.meta_u64("graph_seed"), t.graph_seed);
  EXPECT_EQ(data.meta_u64("config_index"), 3u);
  EXPECT_EQ(data.meta_u64("trial_index"), 1u);
  EXPECT_EQ(data.summary_u64("rounds"), static_cast<std::uint64_t>(r.rounds));
  ASSERT_TRUE(data.has_outcome);
  EXPECT_EQ(data.success, r.success);

  // The runner's phase stats and the trace agree (the synthetic "(untagged)"
  // span has no Metrics mark and therefore no runner stat).
  for (const PhaseSpan& s : data.spans) {
    if (s.label == "(untagged)") continue;
    const auto it = r.stats.find("phase_" + s.label + "_rounds");
    ASSERT_NE(it, r.stats.end()) << s.label;
  }
  std::filesystem::remove_all(dir);
}

TEST(TraceIntegration, SequentialTrialsDoNotTrace) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dhc_trace_test_seq").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  runner::TrialConfig t;
  t.algo = runner::Algorithm::kSequential;
  t.n = 32;
  t.delta = 1.0;
  t.c = 4.0;
  t.graph_seed = 7;
  t.algo_seed = 8;
  runner::RunnerOptions opt;
  opt.trace_dir = dir;
  const auto r = runner::run_trial(t, opt);
  EXPECT_TRUE(r.trace_file.empty());
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

// Every JSON writer escapes through support::json_escape, so a control
// character in a label comes out as \u00XX, never as a raw byte that a
// strict JSON reader (python3 -m json.tool, chrome://tracing) rejects.
TEST(TraceChrome, ControlCharactersInLabelsAreEscaped) {
  TraceData data;
  data.meta_strings["algo"] = "dhc2";
  PhaseSpan span;
  span.label = "global\x01setup";
  span.to_round = 2;
  span.rounds = 2;
  data.spans.push_back(span);
  std::ostringstream os;
  write_chrome_trace(data, os);
  const std::string out = os.str();
  EXPECT_EQ(out.find('\x01'), std::string::npos);
  EXPECT_NE(out.find("global\\u0001setup"), std::string::npos);
  const support::JsonValue doc = support::parse_json(out);
  EXPECT_EQ(doc.get("traceEvents").as_array().at(1).str("name"), "global\x01setup");
}

TEST(Json, EscapeRoundTripsAndRawControlCharactersAreRejected) {
  const std::string nasty = "q\"b\\t\tn\nc\x01\x1f utf8 \xc3\xa9";
  EXPECT_EQ(support::json_escape(nasty),
            "q\\\"b\\\\t\\u0009n\\u000ac\\u0001\\u001f utf8 \xc3\xa9");
  EXPECT_EQ(support::parse_json("\"" + support::json_escape(nasty) + "\"").as_string(), nasty);
  EXPECT_THROW(support::parse_json("\"a\x01z\""), std::invalid_argument);
}

}  // namespace
}  // namespace dhc::trace
