// Unit tests for Metrics accounting helpers — most importantly the
// phase_rounds() repeated-label semantics (DHC2 marks "merge" once per
// level, so a label's total must sum over every span carrying it).
#include "congest/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dhc::congest {
namespace {

TEST(Metrics, PhaseRoundsSumsRepeatedLabels) {
  Metrics m;
  m.rounds = 12;
  m.phase_marks = {{"a", 1}, {"b", 5}, {"a", 9}};
  // Spans: a = [1,5) + [9,13) = 4 + 4, b = [5,9) = 4 (last span ends at
  // rounds + 1).
  EXPECT_EQ(m.phase_rounds("a"), 8u);
  EXPECT_EQ(m.phase_rounds("b"), 4u);
  EXPECT_EQ(m.phase_rounds("missing"), 0u);
}

TEST(Metrics, PhaseRoundsSingleMarkCoversWholeRun) {
  Metrics m;
  m.rounds = 100;
  m.phase_marks = {{"all", 1}};
  EXPECT_EQ(m.phase_rounds("all"), 100u);
}

TEST(Metrics, PhaseRoundsNoMarks) {
  Metrics m;
  m.rounds = 7;
  EXPECT_EQ(m.phase_rounds("anything"), 0u);
}

TEST(Metrics, PhaseSpansPartitionTheRun) {
  // Whatever the labels, the per-label totals must partition [1, rounds+1):
  // sum over distinct labels == rounds.
  Metrics m;
  m.rounds = 445;
  m.phase_marks = {{"global_setup", 1}, {"partition_setup", 11}, {"dra", 23}, {"merge", 398}};
  EXPECT_EQ(m.phase_rounds("global_setup") + m.phase_rounds("partition_setup") +
                m.phase_rounds("dra") + m.phase_rounds("merge"),
            m.rounds);
}

TEST(Metrics, AccountedRoundsChargesBarriers) {
  Metrics m;
  m.rounds = 100;
  m.barrier_count = 18;
  m.barrier_cost_rounds = 4;
  EXPECT_EQ(m.accounted_rounds(), 172u);
}

TEST(NodeStatsMode, ToStringParseRoundTrip) {
  for (const NodeStatsMode mode : {NodeStatsMode::kFull, NodeStatsMode::kStreaming}) {
    EXPECT_EQ(parse_node_stats_mode(to_string(mode)), mode);
  }
  EXPECT_THROW(parse_node_stats_mode("verbose"), std::invalid_argument);
}

TEST(Metrics, FinalizeNodeStatsFullIsExact) {
  Metrics m;
  m.node_stats_mode = NodeStatsMode::kFull;
  m.node_messages_sent = {1, 2, 3, 4, 100};
  m.node_messages_received = {5, 5, 5, 5, 5};
  m.node_peak_memory_words = {10, 20, 30, 40, 50};
  m.node_compute_ops = {0, 0, 0, 0, 7};
  m.finalize_node_stats();
  EXPECT_EQ(m.sent_summary.count, 5u);
  EXPECT_DOUBLE_EQ(m.sent_summary.sum, 110.0);
  EXPECT_DOUBLE_EQ(m.sent_summary.max, 100.0);
  EXPECT_DOUBLE_EQ(m.sent_summary.p50, 3.0);
  EXPECT_EQ(m.received_summary.count, 5u);
  EXPECT_DOUBLE_EQ(m.received_summary.p99, 5.0);
  EXPECT_DOUBLE_EQ(m.peak_memory_summary.max, 50.0);
  EXPECT_DOUBLE_EQ(m.compute_summary.sum, 7.0);
}

}  // namespace
}  // namespace dhc::congest
