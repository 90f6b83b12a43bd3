// Tests for the k-machine model backend (paper §IV): the pricing observer,
// its mid-run idempotency, and whole solver runs priced through it.
#include "kmachine/kmachine.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <vector>

#include "graph/generators.h"
#include "graph/hamiltonian.h"
#include "solver_table.h"

namespace dhc::kmachine {
namespace {

// Feeds one send to `cost` as a one-event batch.
void send(KMachineCost& cost, NodeId from, NodeId to, std::uint64_t round) {
  const congest::SendEvent event{from, to, round};
  cost.on_events({&event, 1});
}

TEST(KMachineCost, PartitionCoversAllMachinesAndIsDeterministic) {
  KMachineCost a(1000, 8, 4, 42);
  KMachineCost b(1000, 8, 4, 42);
  std::vector<int> seen(8, 0);
  for (NodeId v = 0; v < 1000; ++v) {
    EXPECT_EQ(a.machine_of(v), b.machine_of(v));
    EXPECT_LT(a.machine_of(v), 8u);
    seen[a.machine_of(v)] += 1;
  }
  for (const int count : seen) EXPECT_GT(count, 0);
}

TEST(KMachineCost, LocalMessagesAreFree) {
  KMachineCost cost(10, 2, 1, 1);
  // Find two co-located nodes and two separated nodes.
  NodeId same_a = 0, same_b = 0, cross_a = 0, cross_b = 0;
  for (NodeId u = 0; u < 10; ++u) {
    for (NodeId v = 0; v < 10; ++v) {
      if (u == v) continue;
      if (cost.machine_of(u) == cost.machine_of(v)) {
        same_a = u;
        same_b = v;
      } else {
        cross_a = u;
        cross_b = v;
      }
    }
  }
  send(cost, same_a, same_b, 1);
  EXPECT_EQ(cost.kmachine_rounds(), 0u);
  EXPECT_EQ(cost.local_messages(), 1u);
  send(cost, cross_a, cross_b, 2);
  EXPECT_EQ(cost.kmachine_rounds(), 1u);
  EXPECT_EQ(cost.cross_messages(), 1u);
}

TEST(KMachineCost, BandwidthDividesLinkLoad) {
  // 6 messages over one link in one round: bandwidth 1 -> 6 rounds,
  // bandwidth 4 -> 2 rounds.
  for (const auto& [bw, expect] : {std::pair<std::uint64_t, std::uint64_t>{1, 6}, {4, 2}}) {
    KMachineCost cost(4, 2, bw, 3);
    NodeId u = 0, v = 0;
    for (NodeId x = 1; x < 4; ++x) {
      if (cost.machine_of(x) != cost.machine_of(0)) v = x;
    }
    ASSERT_NE(v, 0u);
    for (int i = 0; i < 6; ++i) send(cost, u, v, 1);
    EXPECT_EQ(cost.kmachine_rounds(), expect) << "bw=" << bw;
  }
}

TEST(KMachineCost, RoundsAccumulateAcrossCongestRounds) {
  KMachineCost cost(4, 2, 1, 3);
  NodeId u = 0, v = 0;
  for (NodeId x = 1; x < 4; ++x) {
    if (cost.machine_of(x) != cost.machine_of(0)) v = x;
  }
  send(cost, u, v, 1);
  send(cost, u, v, 2);
  send(cost, u, v, 5);
  EXPECT_EQ(cost.kmachine_rounds(), 3u);
}

// Regression for the mid-run pricing bug: kmachine_rounds() used to
// flush_round() — zeroing round_load_/touched_links_ for a round still
// receiving sends — so a mid-round read split that round's link load L into
// fragments a + b priced ⌈a/bw⌉ + ⌈b/bw⌉ instead of ⌈L/bw⌉.  With bw = 4
// and a 2+2 split the pre-fix total is 2, the correct total 1; this test
// fails against the old flushing implementation.
TEST(KMachineCost, MidRoundReadDoesNotSplitTheRoundCharge) {
  KMachineCost probed(4, 2, /*bandwidth=*/4, 3);
  KMachineCost clean(4, 2, /*bandwidth=*/4, 3);
  NodeId u = 0, v = 0;
  for (NodeId x = 1; x < 4; ++x) {
    if (probed.machine_of(x) != probed.machine_of(0)) v = x;
  }
  ASSERT_NE(v, 0u);

  for (int i = 0; i < 2; ++i) send(probed, u, v, 1);
  EXPECT_EQ(probed.kmachine_rounds(), 1u);  // mid-round read: ceil(2/4)
  for (int i = 0; i < 2; ++i) send(probed, u, v, 1);

  for (int i = 0; i < 4; ++i) send(clean, u, v, 1);

  // 4 messages on one link in one round at bandwidth 4: exactly 1 round,
  // regardless of the mid-round read.
  EXPECT_EQ(clean.kmachine_rounds(), 1u);
  EXPECT_EQ(probed.kmachine_rounds(), clean.kmachine_rounds());
}

TEST(KMachineCost, RepeatedReadsAreIdempotent) {
  KMachineCost cost(4, 2, 2, 3);
  NodeId u = 0, v = 0;
  for (NodeId x = 1; x < 4; ++x) {
    if (cost.machine_of(x) != cost.machine_of(0)) v = x;
  }
  for (int i = 0; i < 5; ++i) send(cost, u, v, 1);
  const auto first = cost.kmachine_rounds();
  EXPECT_EQ(cost.kmachine_rounds(), first);
  EXPECT_EQ(cost.kmachine_rounds(), first);
  send(cost, u, v, 2);
  EXPECT_EQ(cost.kmachine_rounds(), first + 1);
}

/// Forwards every send to the wrapped cost as its own one-event batch and
/// reads the price after each — the hostile consumer the pre-fix
/// flush-on-read implementation corrupted.
class ProbingTap : public congest::MessageObserver {
 public:
  explicit ProbingTap(KMachineCost& inner) : inner_(inner) {}
  void on_events(std::span<const congest::SendEvent> events) override {
    for (const congest::SendEvent& e : events) {
      inner_.on_events({&e, 1});
      last_probe_ = inner_.kmachine_rounds();
    }
  }
  std::uint64_t last_probe() const { return last_probe_; }

 private:
  KMachineCost& inner_;
  std::uint64_t last_probe_ = 0;
};

// End-to-end regression (the satellite's acceptance shape): attach one
// pricing observer that is read after *every* message of a real DHC2 run
// and one that is read only at the end — the final counts must match.
TEST(KMachineCost, MidRunReadsMatchEndOfRunRead) {
  support::Rng rng(11);
  const auto g = graph::gnp(128, graph::edge_probability(128, 2.5, 0.5), rng);

  KMachineCost probed_cost(g.n(), /*k=*/8, /*bandwidth=*/4, /*seed=*/23);
  ProbingTap tap(probed_cost);
  core::Dhc2Config cfg;
  cfg.delta = 0.5;
  cfg.observer = &tap;
  const auto r_probed = core::run_dhc2(g, /*seed=*/23, cfg);

  KMachineCost clean_cost(g.n(), /*k=*/8, /*bandwidth=*/4, /*seed=*/23);
  core::Dhc2Config clean_cfg;
  clean_cfg.delta = 0.5;
  clean_cfg.observer = &clean_cost;
  const auto r_clean = core::run_dhc2(g, /*seed=*/23, clean_cfg);

  ASSERT_EQ(r_probed.success, r_clean.success);
  EXPECT_EQ(probed_cost.kmachine_rounds(), clean_cost.kmachine_rounds());
  EXPECT_EQ(probed_cost.cross_messages(), clean_cost.cross_messages());
  EXPECT_EQ(probed_cost.busiest_link_peak(), clean_cost.busiest_link_peak());
  EXPECT_EQ(tap.last_probe(), clean_cost.kmachine_rounds());
}

TEST(KMachineCost, RejectsDegenerateParameters) {
  EXPECT_THROW(KMachineCost(10, 1, 1, 1), std::invalid_argument);
  EXPECT_THROW(KMachineCost(10, 2, 0, 1), std::invalid_argument);
}

// The k-machine conversion consumes the simulator's merged shard logs, one
// batch per non-empty shard log.  Every shard count must price the
// execution identically: converted rounds, the cross/local split, and the
// busiest-link peak all depend on per-round link load *sequences*, so this
// pin fails if the merge ever reorders or drops an event relative to the
// one-shard send order.
TEST(ConvertDhc2, LiveAndMergedEventLogPricingIdentical) {
  struct Priced {
    bool success;
    std::uint64_t congest_rounds;
    std::uint64_t kmachine_rounds;
    std::uint64_t cross_messages;
    std::uint64_t local_messages;
    std::uint64_t busiest_link_peak;
  };
  support::Rng rng(21);
  const auto g = graph::gnp(256, graph::edge_probability(256, 2.5, 0.5), rng);

  const char* old_grain = std::getenv("DHC_SHARD_GRAIN");
  setenv("DHC_SHARD_GRAIN", "1", 1);  // shard even sparse rounds
  const auto price = [&](std::uint32_t shards) -> Priced {
    KMachineCost cost(g.n(), /*k=*/8, /*bandwidth=*/4, /*seed=*/17);
    core::Dhc2Config cfg;
    cfg.delta = 0.5;
    cfg.observer = &cost;
    cfg.shards = shards;
    const core::Result r = core::run_dhc2(g, /*seed=*/17, cfg);
    return {r.success,          r.metrics.rounds,      cost.kmachine_rounds(),
            cost.cross_messages(), cost.local_messages(), cost.busiest_link_peak()};
  };

  const Priced live = price(/*shards=*/1);
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    const Priced merged = price(shards);
    EXPECT_EQ(merged.success, live.success) << "shards=" << shards;
    EXPECT_EQ(merged.congest_rounds, live.congest_rounds) << "shards=" << shards;
    EXPECT_EQ(merged.kmachine_rounds, live.kmachine_rounds) << "shards=" << shards;
    EXPECT_EQ(merged.cross_messages, live.cross_messages) << "shards=" << shards;
    EXPECT_EQ(merged.local_messages, live.local_messages) << "shards=" << shards;
    EXPECT_EQ(merged.busiest_link_peak, live.busiest_link_peak) << "shards=" << shards;
  }
  if (old_grain == nullptr) {
    unsetenv("DHC_SHARD_GRAIN");
  } else {
    setenv("DHC_SHARD_GRAIN", old_grain, 1);
  }
}

TEST(KMachineCost, BatchEventsMatchSingleSends) {
  // Unit-level pin: per-round batches price exactly like one-event spans on
  // a hand-built stream.
  KMachineCost a(32, 4, 2, 9);
  KMachineCost b(32, 4, 2, 9);
  std::vector<congest::SendEvent> events;
  support::Rng rng(33);
  std::uint64_t round = 1;
  for (int i = 0; i < 500; ++i) {
    if (rng.bernoulli(0.2)) round += 1 + rng.below(3);
    const auto from = static_cast<NodeId>(rng.below(32));
    auto to = static_cast<NodeId>(rng.below(32));
    if (to == from) to = (to + 1) % 32;
    events.push_back({from, to, round});
  }
  for (const auto& e : events) send(a, e.from, e.to, e.round);
  // Deliver to b in per-round batches (as the merged shard logs would).
  std::size_t i = 0;
  while (i < events.size()) {
    std::size_t j = i;
    while (j < events.size() && events[j].round == events[i].round) ++j;
    b.on_events({events.data() + i, j - i});
    i = j;
  }
  EXPECT_EQ(a.kmachine_rounds(), b.kmachine_rounds());
  EXPECT_EQ(a.cross_messages(), b.cross_messages());
  EXPECT_EQ(a.local_messages(), b.local_messages());
  EXPECT_EQ(a.busiest_link_peak(), b.busiest_link_peak());
}

// ---------------------------------------------------------------------------
// Whole solver runs priced through each solver's `run_*`, the way the runner
// attaches a KMachineCost under model = kmachine.
// ---------------------------------------------------------------------------

using testutil::Solver;
using testutil::solver;

struct Priced {
  core::Result result;
  KMachineCost cost;
};

/// Runs `s` on `g` with a fresh KMachineCost attached; the partition
/// seed is the algorithm seed (the runner's convention).
Priced priced_run(const Solver& s, const graph::Graph& g, std::uint64_t seed, std::uint32_t k,
                  std::uint64_t bandwidth, std::uint32_t shards = 0) {
  KMachineCost cost(g.n(), k, bandwidth, /*partition seed=*/seed);
  congest::EngineOptions engine;
  engine.observer = &cost;
  engine.shards = shards;
  core::Result result = s.run(g, seed, engine);
  cost.finish();
  return {std::move(result), std::move(cost)};
}

// The acceptance pin: for every registered algorithm the full price —
// converted rounds above all — is bitwise identical between a one-shard run
// and a sharded run (shards = 4, the CI DHC_SHARDS matrix value), with the
// shard grain forced down so even sparse rounds step on the pool.  Also end-to-end sanity: a
// successful run's cycle verifies against the input graph.
TEST(RunKMachine, ReportShardInvariantForEveryAlgorithm) {
  support::Rng rng(31);
  const auto g = graph::gnp(256, graph::edge_probability(256, 2.5, 0.5), rng);

  const char* old_grain = std::getenv("DHC_SHARD_GRAIN");
  setenv("DHC_SHARD_GRAIN", "1", 1);

  for (const char* name : {"dra", "dhc1", "dhc2", "turau"}) {
    const Solver& s = solver(name);
    const auto live = priced_run(s, g, /*seed=*/29, /*k=*/8, /*bandwidth=*/4, /*shards=*/1);
    const auto sharded = priced_run(s, g, /*seed=*/29, /*k=*/8, /*bandwidth=*/4, /*shards=*/4);

    EXPECT_EQ(sharded.result.success, live.result.success) << name;
    EXPECT_EQ(sharded.result.metrics.rounds, live.result.metrics.rounds) << name;
    EXPECT_EQ(sharded.cost.kmachine_rounds(), live.cost.kmachine_rounds()) << name;
    EXPECT_EQ(sharded.cost.cross_messages(), live.cost.cross_messages()) << name;
    EXPECT_EQ(sharded.cost.local_messages(), live.cost.local_messages()) << name;
    EXPECT_EQ(sharded.cost.busiest_link_peak(), live.cost.busiest_link_peak()) << name;
    EXPECT_GT(live.cost.kmachine_rounds(), 0u) << name;

    if (live.result.success) {
      const auto v = graph::verify_cycle_incidence(g, live.result.cycle);
      EXPECT_TRUE(v.ok()) << name << ": " << (v.failure ? *v.failure : "");
    }
  }

  if (old_grain == nullptr) {
    unsetenv("DHC_SHARD_GRAIN");
  } else {
    setenv("DHC_SHARD_GRAIN", old_grain, 1);
  }
}

// More machines spread the same traffic over more links: fewer converted
// rounds (the busiest link carries less) for the same underlying run.
TEST(RunKMachine, MoreMachinesHelp) {
  support::Rng rng(3);
  const auto g = graph::gnp(256, graph::edge_probability(256, 2.5, 0.5), rng);
  for (const char* name : {"dhc2", "turau", "dra"}) {
    const auto r4 = priced_run(solver(name), g, /*seed=*/41, /*k=*/4, /*bandwidth=*/16);
    const auto r16 = priced_run(solver(name), g, /*seed=*/41, /*k=*/16, /*bandwidth=*/16);
    ASSERT_TRUE(r4.result.success) << name;
    ASSERT_TRUE(r16.result.success) << name;
    EXPECT_EQ(r4.result.metrics.rounds, r16.result.metrics.rounds) << name;  // same run
    EXPECT_GT(r4.cost.kmachine_rounds(), 0u) << name;
    EXPECT_LT(r16.cost.kmachine_rounds(), r4.cost.kmachine_rounds()) << name;
    EXPECT_GT(r16.cost.cross_messages(), r4.cost.cross_messages()) << name;  // fewer co-located pairs
    EXPECT_GT(r4.cost.busiest_link_peak(), 0u) << name;
  }
}

}  // namespace
}  // namespace dhc::kmachine
