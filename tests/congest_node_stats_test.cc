// --node_stats mode equivalence: full and streaming must agree on every
// headline counter (rounds, messages, bits, barriers, phase marks) and the
// streaming summaries must match the full-mode exact digests within the
// sketch's published error bound.
#include <gtest/gtest.h>

#include <cmath>

#include "congest/metrics.h"
#include "core/turau.h"
#include "graph/generators.h"
#include "support/quantile_sketch.h"

namespace dhc::congest {
namespace {

graph::Graph instance(graph::NodeId n, std::uint64_t seed) {
  // Dense enough (delta = 0.5) that Turau solves every pinned seed.
  support::Rng rng(seed);
  return graph::gnp(n, graph::edge_probability(n, 3.0, 0.5), rng);
}

core::Result run_with_mode(const graph::Graph& g, NodeStatsMode mode) {
  core::TurauConfig cfg;
  cfg.node_stats = mode;
  return core::run_turau(g, /*seed=*/11, cfg);
}

TEST(NodeStats, HeadlineCountersIdenticalAcrossModes) {
  const graph::Graph g = instance(192, 501);
  const auto full = run_with_mode(g, NodeStatsMode::kFull);
  const auto streaming = run_with_mode(g, NodeStatsMode::kStreaming);
  ASSERT_TRUE(full.success) << full.failure_reason;

  EXPECT_EQ(streaming.success, full.success);
  EXPECT_EQ(streaming.metrics.rounds, full.metrics.rounds);
  EXPECT_EQ(streaming.metrics.messages, full.metrics.messages);
  EXPECT_EQ(streaming.metrics.bits, full.metrics.bits);
  EXPECT_EQ(streaming.metrics.barrier_count, full.metrics.barrier_count);
  EXPECT_EQ(streaming.metrics.phase_marks, full.metrics.phase_marks);
}

TEST(NodeStats, StreamingSummariesMatchFullWithinSketchBound) {
  const graph::Graph g = instance(192, 502);
  const auto full = run_with_mode(g, NodeStatsMode::kFull);
  const auto streaming = run_with_mode(g, NodeStatsMode::kStreaming);
  ASSERT_TRUE(full.success) << full.failure_reason;

  const auto check = [](const NodeStatSummary& exact, const NodeStatSummary& sketch) {
    // count/sum/max are tracked exactly on the side in streaming mode.
    EXPECT_EQ(sketch.count, exact.count);
    EXPECT_DOUBLE_EQ(sketch.sum, exact.sum);
    EXPECT_DOUBLE_EQ(sketch.max, exact.max);
    const double tol = support::QuantileSketch::relative_error();
    // Quantiles: exact below the linear cutoff, within relative_error above.
    for (const auto& [e, s] : {std::pair{exact.p50, sketch.p50},
                              std::pair{exact.p95, sketch.p95},
                              std::pair{exact.p99, sketch.p99}}) {
      if (e < static_cast<double>(support::QuantileSketch::kLinearCutoff)) {
        EXPECT_DOUBLE_EQ(s, e);
      } else {
        EXPECT_NEAR(s, e, e * tol);
      }
    }
  };
  check(full.metrics.sent_summary, streaming.metrics.sent_summary);
  check(full.metrics.peak_memory_summary, streaming.metrics.peak_memory_summary);
  check(full.metrics.compute_summary, streaming.metrics.compute_summary);

  // Streaming intentionally drops the receiver-side distribution.
  EXPECT_EQ(streaming.metrics.received_summary.count, 0u);
  EXPECT_TRUE(streaming.metrics.node_messages_sent.empty());
  EXPECT_TRUE(streaming.metrics.node_messages_received.empty());
}

TEST(NodeStats, StreamingMaxMatchesFullMax) {
  const graph::Graph g = instance(128, 503);
  const auto full = run_with_mode(g, NodeStatsMode::kFull);
  const auto streaming = run_with_mode(g, NodeStatsMode::kStreaming);
  EXPECT_EQ(streaming.metrics.max_node_messages_sent(), full.metrics.max_node_messages_sent());
  EXPECT_EQ(streaming.metrics.max_node_peak_memory(), full.metrics.max_node_peak_memory());
  EXPECT_EQ(streaming.metrics.max_node_compute(), full.metrics.max_node_compute());
}

TEST(NodeStats, StreamingIsShardInvariant) {
  // The compact accumulators are indexed by node id, so shard count must not
  // change a single per-node total.
  const graph::Graph g = instance(160, 505);
  core::TurauConfig cfg;
  cfg.node_stats = NodeStatsMode::kStreaming;
  cfg.shards = 1;
  const auto one = core::run_turau(g, 13, cfg);
  cfg.shards = 4;
  const auto four = core::run_turau(g, 13, cfg);
  EXPECT_EQ(one.metrics.node_sent32, four.metrics.node_sent32);
  EXPECT_EQ(one.metrics.node_mem_peak32, four.metrics.node_mem_peak32);
  EXPECT_EQ(one.metrics.node_compute32, four.metrics.node_compute32);
  EXPECT_EQ(one.metrics.rounds, four.metrics.rounds);
  EXPECT_EQ(one.metrics.messages, four.metrics.messages);
}

}  // namespace
}  // namespace dhc::congest
