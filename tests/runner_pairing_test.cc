// Paired-graph regression test: the DESIGN.md §3 guarantee that trials
// differing only in Algorithm (or merge strategy / machine count) receive
// bitwise-identical generated graphs for the same base seed — what makes
// every head-to-head sweep a paired comparison.  Pinned against the actual
// generated instances, not just the derived seeds.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "runner/scenario.h"
#include "runner/trial_runner.h"

namespace dhc::runner {
namespace {

Scenario three_way() {
  Scenario s;
  s.algos = {Algorithm::kDhc1, Algorithm::kDhc2, Algorithm::kTurau};
  s.sizes = {32, 48};
  // δ = 1 keeps p = c·ln n / n well below 1 at these sizes; δ = 0.5 would
  // clamp p to 1 and make every instance the (seed-independent) clique.
  s.deltas = {1.0};
  s.cs = {2.5};
  s.seeds = 3;
  s.base_seed = 7;
  return s;
}

TEST(Pairing, AlgorithmsShareIdenticalInstances) {
  const auto trials = expand(three_way());
  // Group by instance parameters; every group must span all three
  // algorithms and agree on the generated graph edge-for-edge.
  std::map<std::tuple<graph::NodeId, std::uint64_t>, std::vector<const TrialConfig*>> groups;
  for (const auto& t : trials) groups[{t.n, t.trial_index}].push_back(&t);
  ASSERT_EQ(groups.size(), 2u * 3u);  // 2 sizes × 3 trial indices
  for (const auto& [key, members] : groups) {
    ASSERT_EQ(members.size(), 3u) << "n=" << std::get<0>(key);
    const auto reference = make_trial_instance(*members[0]).edges();
    for (const auto* t : members) {
      EXPECT_EQ(t->graph_seed, members[0]->graph_seed);
      // Solver randomness stays per-cell even though the instance is shared.
      if (t != members[0]) {
        EXPECT_NE(t->algo_seed, members[0]->algo_seed);
      }
      const auto edges = make_trial_instance(*t).edges();
      EXPECT_EQ(edges, reference)
          << to_string(t->algo) << " got a different instance than "
          << to_string(members[0]->algo) << " at n=" << t->n << " trial " << t->trial_index;
    }
  }
}

TEST(Pairing, MergeStrategyAndMachineCountDoNotPerturbInstances) {
  Scenario s;
  s.algos = {Algorithm::kDhc2};
  s.merges = {core::MergeStrategy::kMinForward, core::MergeStrategy::kFullQueue};
  s.machines = {4, 8};
  s.sizes = {32};
  s.deltas = {1.0};
  s.cs = {2.5};
  s.seeds = 2;
  // The same cells under the congest model and priced on 4 and 8 machines.
  auto trials = expand(s);
  s.model = ExecutionModel::kKMachine;
  const auto priced = expand(s);
  trials.insert(trials.end(), priced.begin(), priced.end());
  std::map<std::uint64_t, std::vector<const TrialConfig*>> by_trial;
  for (const auto& t : trials) by_trial[t.trial_index].push_back(&t);
  for (const auto& [index, members] : by_trial) {
    const auto reference = make_trial_instance(*members[0]).edges();
    for (const auto* t : members) {
      EXPECT_EQ(make_trial_instance(*t).edges(), reference)
          << "trial " << index << " cell " << t->config_index;
    }
  }
}

TEST(Pairing, PowerlawFamilyPairsInstancesToo) {
  Scenario s = three_way();
  s.family = GraphFamily::kPowerlaw;
  const auto trials = expand(s);
  std::map<std::tuple<graph::NodeId, std::uint64_t>, std::vector<const TrialConfig*>> groups;
  for (const auto& t : trials) groups[{t.n, t.trial_index}].push_back(&t);
  ASSERT_EQ(groups.size(), 2u * 3u);
  for (const auto& [key, members] : groups) {
    ASSERT_EQ(members.size(), 3u);
    const auto reference = make_trial_instance(*members[0]);
    EXPECT_GT(reference.m(), 0u) << "powerlaw instance came out empty at n=" << std::get<0>(key);
    const auto reference_edges = reference.edges();
    for (const auto* t : members) {
      EXPECT_EQ(make_trial_instance(*t).edges(), reference_edges)
          << to_string(t->algo) << " got a different powerlaw instance at n=" << t->n
          << " trial " << t->trial_index;
    }
  }
  // Different family, same everything else → different instances (the family
  // is folded into the graph seed, so cross-family sweeps are not aliased).
  const auto gnp_trials = expand(three_way());
  EXPECT_NE(trials[0].graph_seed, gnp_trials[0].graph_seed);
}

TEST(Pairing, DifferentBaseSeedsBreakThePairingOnPurpose) {
  Scenario a = three_way();
  Scenario b = three_way();
  b.base_seed = a.base_seed + 1;
  const auto ta = expand(a);
  const auto tb = expand(b);
  ASSERT_EQ(ta.size(), tb.size());
  EXPECT_NE(make_trial_instance(ta[0]).edges(), make_trial_instance(tb[0]).edges());
}

}  // namespace
}  // namespace dhc::runner
