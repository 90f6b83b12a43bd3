// Unit tests for Metrics accounting helpers — most importantly the
// phase_rounds() repeated-label semantics (DHC2 marks "merge" once per
// level, so a label's total must sum over every span carrying it).
#include "congest/metrics.h"

#include <gtest/gtest.h>

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

TEST(Metrics, MaxNodeHelpersAreZeroOnEmptyVectors) {
  // Oracle trials never run the engine, so their vectors stay empty.
  Metrics m;
  EXPECT_EQ(m.max_node_messages_sent(), 0u);
  EXPECT_EQ(m.max_node_peak_memory(), 0);
  EXPECT_EQ(m.max_node_compute(), 0u);
  m.node_messages_sent = {1, 2, 3, 4, 100};
  m.node_peak_memory_words = {10, 50, 30, 40, 20};
  m.node_compute_ops = {0, 7, 0, 0, 0};
  EXPECT_EQ(m.max_node_messages_sent(), 100u);
  EXPECT_EQ(m.max_node_peak_memory(), 50);
  EXPECT_EQ(m.max_node_compute(), 7u);
}

}  // namespace
}  // namespace dhc::congest
