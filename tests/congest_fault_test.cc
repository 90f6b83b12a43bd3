// Tests for the fault-injection layer of the async execution model:
// DelaySpec / CrashSpec parsing, FaultPlan hash purity and nesting, the
// Network's delayed/dropped/crashed delivery semantics, the RoundWheel's
// drain and search contract, and the boundary behaviour of all three wheels
// (wake-ups, async deliveries, overlay timers) at RoundWheel::kSize.
#include "congest/fault_plan.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "congest/network.h"
#include "congest/round_wheel.h"
#include "graph/generators.h"

namespace dhc::congest {
namespace {

using graph::Graph;

constexpr std::uint64_t kWheelSize = RoundWheel<NodeId>::kSize;

class LambdaProtocol : public Protocol {
 public:
  std::function<void(Context&)> on_begin = [](Context&) {};
  std::function<void(Context&)> on_step = [](Context&) {};
  std::function<bool(Network&)> on_quiet = [](Network&) { return false; };

  void begin(Context& ctx) override { on_begin(ctx); }
  void step(Context& ctx) override { on_step(ctx); }
  bool on_quiescence(Network& net) override { return on_quiet(net); }
};

// --- spec parsing ----------------------------------------------------------

TEST(DelaySpec, ParsesEveryKind) {
  EXPECT_EQ(DelaySpec::parse("none").kind, DelaySpec::Kind::kNone);

  const DelaySpec fixed = DelaySpec::parse("fixed:7");
  EXPECT_EQ(fixed.kind, DelaySpec::Kind::kFixed);
  EXPECT_EQ(fixed.a, 7u);

  const DelaySpec uniform = DelaySpec::parse("uniform:2:9");
  EXPECT_EQ(uniform.kind, DelaySpec::Kind::kUniform);
  EXPECT_EQ(uniform.a, 2u);
  EXPECT_EQ(uniform.b, 9u);

  const DelaySpec geo = DelaySpec::parse("geometric:0.25");
  EXPECT_EQ(geo.kind, DelaySpec::Kind::kGeometric);
  EXPECT_DOUBLE_EQ(geo.p, 0.25);
}

TEST(DelaySpec, RoundTripsThroughToString) {
  for (const char* spec : {"none", "fixed:3", "uniform:1:4", "geometric:0.5"}) {
    const DelaySpec parsed = DelaySpec::parse(spec);
    EXPECT_EQ(DelaySpec::parse(parsed.to_string()).to_string(), parsed.to_string()) << spec;
  }
}

TEST(DelaySpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "nope", "fixed", "fixed:0", "fixed:x", "uniform:3",
                          "uniform:5:2", "uniform:0:4", "geometric:0", "geometric:1.5",
                          "fixed:1:2", "fixed: 2", "fixed:+2", "fixed:2 ", "uniform:1::3",
                          "geometric: 0.5", "geometric:+0.5"}) {
    EXPECT_THROW(DelaySpec::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(CrashSpec, ParsesAndRejects) {
  EXPECT_EQ(CrashSpec::parse("none").kind, CrashSpec::Kind::kNone);
  const CrashSpec c = CrashSpec::parse("random:0.25:10:40");
  EXPECT_EQ(c.kind, CrashSpec::Kind::kRandom);
  EXPECT_DOUBLE_EQ(c.fraction, 0.25);
  EXPECT_EQ(c.start, 10u);
  EXPECT_EQ(c.duration, 40u);
  EXPECT_TRUE(c.active());
  EXPECT_FALSE(CrashSpec::parse("none").active());

  for (const char* bad : {"", "crash", "random", "random:0.5", "random:0.5:1",
                          "random:1.0:1:1", "random:-0.1:1:1", "random:0.5:1:1:9",
                          "random:0.1:+5:10", "random: 0.1:5:10", "random:0.1:5:10:"}) {
    EXPECT_THROW(CrashSpec::parse(bad), std::invalid_argument) << bad;
  }
}

// --- FaultPlan hash purity -------------------------------------------------

TEST(FaultPlan, DecisionsArePureFunctionsOfTheArguments) {
  const FaultPlan plan(DelaySpec::parse("uniform:1:6"), 0.3,
                       CrashSpec::parse("random:0.4:5:10"), /*fault_seed=*/123);
  const FaultPlan again(DelaySpec::parse("uniform:1:6"), 0.3,
                        CrashSpec::parse("random:0.4:5:10"), /*fault_seed=*/123);
  for (NodeId u = 0; u < 20; ++u) {
    for (NodeId v = 0; v < 20; ++v) {
      EXPECT_EQ(plan.delay(u, v), plan.delay(u, v));
      EXPECT_EQ(plan.delay(u, v), again.delay(u, v));
      EXPECT_EQ(plan.drop(u, v, 7), again.drop(u, v, 7));
    }
    EXPECT_EQ(plan.crashed(u, 8), again.crashed(u, 8));
  }
}

TEST(FaultPlan, DistinctSeedsGiveDistinctStreams) {
  const FaultPlan a(DelaySpec::parse("uniform:1:100"), 0.5, {}, 1);
  const FaultPlan b(DelaySpec::parse("uniform:1:100"), 0.5, {}, 2);
  bool any_delay_differs = false;
  bool any_drop_differs = false;
  for (NodeId u = 0; u < 40 && !(any_delay_differs && any_drop_differs); ++u) {
    for (NodeId v = 0; v < 40; ++v) {
      any_delay_differs |= a.delay(u, v) != b.delay(u, v);
      any_drop_differs |= a.drop(u, v, 3) != b.drop(u, v, 3);
    }
  }
  EXPECT_TRUE(any_delay_differs);
  EXPECT_TRUE(any_drop_differs);
}

TEST(FaultPlan, DelayRespectsTheConfiguredDistribution) {
  const FaultPlan none({}, 0.0, {}, 9);
  const FaultPlan fixed(DelaySpec::parse("fixed:5"), 0.0, {}, 9);
  const FaultPlan uniform(DelaySpec::parse("uniform:2:4"), 0.0, {}, 9);
  const FaultPlan geo(DelaySpec::parse("geometric:0.5"), 0.0, {}, 9);
  std::set<std::uint64_t> uniform_values;
  for (NodeId u = 0; u < 50; ++u) {
    for (NodeId v = 0; v < 50; ++v) {
      EXPECT_EQ(none.delay(u, v), 1u);
      EXPECT_EQ(fixed.delay(u, v), 5u);
      const std::uint64_t d = uniform.delay(u, v);
      EXPECT_GE(d, 2u);
      EXPECT_LE(d, 4u);
      uniform_values.insert(d);
      EXPECT_GE(geo.delay(u, v), 1u);
    }
  }
  // All three values of {2,3,4} appear over 2500 edges.
  EXPECT_EQ(uniform_values.size(), 3u);
}

TEST(FaultPlan, DropStreamsAreNestedAcrossProbabilities) {
  // Common-random-numbers pairing: the messages lost at p=0.05 are a subset
  // of those lost at p=0.3 under the same fault seed.
  const FaultPlan lo({}, 0.05, {}, 77);
  const FaultPlan hi({}, 0.3, {}, 77);
  std::uint64_t lo_drops = 0;
  std::uint64_t hi_drops = 0;
  for (NodeId u = 0; u < 40; ++u) {
    for (NodeId v = 0; v < 40; ++v) {
      for (std::uint64_t r = 1; r <= 4; ++r) {
        const bool lo_drop = lo.drop(u, v, r);
        const bool hi_drop = hi.drop(u, v, r);
        lo_drops += lo_drop;
        hi_drops += hi_drop;
        if (lo_drop) {
          EXPECT_TRUE(hi_drop) << u << "->" << v << " r" << r;
        }
      }
    }
  }
  EXPECT_GT(lo_drops, 0u);
  EXPECT_GT(hi_drops, lo_drops);
}

TEST(FaultPlan, CrashWindowMatchesTheSchedule) {
  const CrashSpec spec = CrashSpec::parse("random:0.5:10:5");
  const FaultPlan plan({}, 0.0, spec, 31);
  const NodeId n = 64;
  const std::uint64_t scheduled = plan.crashed_node_count(n);
  EXPECT_GT(scheduled, 0u);
  EXPECT_LT(scheduled, static_cast<std::uint64_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint64_t r = 0; r < 20; ++r) {
      const bool in_window = r >= 10 && r < 15;
      EXPECT_EQ(plan.crashed(v, r), plan.crash_scheduled(v) && in_window)
          << "v=" << v << " r=" << r;
    }
  }
}

TEST(FaultPlan, RejectsOutOfRangeDropProbability) {
  EXPECT_THROW(FaultPlan({}, 1.0, {}, 1), std::invalid_argument);
  EXPECT_THROW(FaultPlan({}, -0.1, {}, 1), std::invalid_argument);
}

TEST(AsyncBackend, DeriveFaultSeedIsStableAndSalted) {
  EXPECT_EQ(derive_fault_seed(5), derive_fault_seed(5));
  EXPECT_NE(derive_fault_seed(5), 5u);
  EXPECT_NE(derive_fault_seed(5), derive_fault_seed(6));
}

// --- network delivery semantics under a plan -------------------------------

TEST(AsyncNetwork, FixedDelayPostponesDeliveryAndCounts) {
  const Graph g = graph::path_graph(2);
  const FaultPlan plan(DelaySpec::parse("fixed:3"), 0.0, {}, 5);
  NetworkConfig cfg;
  cfg.faults = &plan;
  Network net(g, cfg);
  LambdaProtocol p;
  std::uint64_t arrival_round = 0;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) ctx.send(1, Message::make(7, {42}));
  };
  p.on_step = [&](Context& ctx) {
    for (const auto& m : ctx.inbox()) {
      EXPECT_EQ(m.tag, 7);
      EXPECT_EQ(m.data[0], 42);
      arrival_round = ctx.round();
    }
  };
  const auto metrics = net.run(p);
  EXPECT_EQ(arrival_round, 3u);
  EXPECT_EQ(metrics.messages, 1u);
  EXPECT_EQ(metrics.delayed_messages, 1u);
  EXPECT_EQ(metrics.dropped_messages, 0u);
  EXPECT_EQ(metrics.rounds, 3u);
}

TEST(AsyncNetwork, NoFaultPlanFieldsStayZeroWithNullPlan) {
  const Graph g = graph::path_graph(2);
  Network net(g, {});
  LambdaProtocol p;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) ctx.send(1, Message::make(1));
  };
  const auto metrics = net.run(p);
  EXPECT_EQ(metrics.delayed_messages, 0u);
  EXPECT_EQ(metrics.dropped_messages, 0u);
  EXPECT_EQ(metrics.crash_dropped_messages, 0u);
  EXPECT_EQ(metrics.crashed_steps, 0u);
}

TEST(AsyncNetwork, DropsAreAccountedAndNeverDelivered) {
  // Star: every leaf floods the center for several rounds at drop_prob 0.5.
  const Graph g = graph::star_graph(32);
  const FaultPlan plan({}, 0.5, {}, 21);
  NetworkConfig cfg;
  cfg.faults = &plan;
  Network net(g, cfg);
  LambdaProtocol p;
  std::uint64_t received = 0;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() != 0) {
      ctx.send(0, Message::make(1));
      ctx.wake_in(1);
    }
  };
  p.on_step = [&](Context& ctx) {
    if (ctx.self() == 0) received += ctx.inbox().size();  // only the center has mail
    if (ctx.self() != 0 && ctx.round() < 4) {
      ctx.send(0, Message::make(1));
      ctx.wake_in(1);
    }
  };
  const auto metrics = net.run(p);
  EXPECT_GT(metrics.dropped_messages, 0u);
  EXPECT_GT(received, 0u);
  EXPECT_EQ(received + metrics.dropped_messages, metrics.messages);
}

TEST(AsyncNetwork, CrashedReceiverLosesMessagesAndSkipsSteps) {
  // Find a fault seed where exactly node 1 of a 2-path has a crash window
  // over rounds [1, 4); send into the window and assert the message is
  // charged to crash_dropped_messages and the node never observes it.
  const CrashSpec spec = CrashSpec::parse("random:0.5:1:3");
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 200; ++s) {
    const FaultPlan probe({}, 0.0, spec, s);
    if (probe.crash_scheduled(1) && !probe.crash_scheduled(0)) {
      seed = s;
      break;
    }
  }
  ASSERT_NE(seed, 0u);
  const FaultPlan plan({}, 0.0, spec, seed);

  const Graph g = graph::path_graph(2);
  NetworkConfig cfg;
  cfg.faults = &plan;
  Network net(g, cfg);
  LambdaProtocol p;
  std::uint64_t node1_arrivals = 0;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) ctx.send(1, Message::make(4));  // arrives round 1: crashed
  };
  p.on_step = [&](Context& ctx) {
    if (ctx.self() == 1) node1_arrivals += ctx.inbox().size();
  };
  const auto metrics = net.run(p);
  EXPECT_EQ(node1_arrivals, 0u);
  EXPECT_EQ(metrics.crash_dropped_messages, 1u);
}

TEST(AsyncNetwork, CrashedNodeDoesNotStepInsideItsWindow) {
  const CrashSpec spec = CrashSpec::parse("random:0.5:2:2");
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 200; ++s) {
    if (FaultPlan({}, 0.0, spec, s).crash_scheduled(1)) {
      seed = s;
      break;
    }
  }
  ASSERT_NE(seed, 0u);
  const FaultPlan plan({}, 0.0, spec, seed);

  const Graph g = graph::path_graph(2);
  NetworkConfig cfg;
  cfg.faults = &plan;
  Network net(g, cfg);
  LambdaProtocol p;
  std::vector<std::uint64_t> node1_steps;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 1) ctx.wake_in(1);
  };
  p.on_step = [&](Context& ctx) {
    if (ctx.self() != 1) return;
    node1_steps.push_back(ctx.round());
    if (ctx.round() < 5) ctx.wake_in(1);
  };
  const auto metrics = net.run(p);
  for (const std::uint64_t r : node1_steps) {
    EXPECT_TRUE(r < 2 || r >= 4) << "stepped at crashed round " << r;
  }
  EXPECT_GT(metrics.crashed_steps, 0u);
}

// --- wheel boundaries ------------------------------------------------------

class WheelBoundary : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WheelBoundary, WakeInAroundTheWheelCapacityFiresExactly) {
  const std::uint64_t delay = GetParam();
  const Graph g = graph::path_graph(2);
  Network net(g, {});
  LambdaProtocol p;
  std::uint64_t woke_at = 0;
  p.on_begin = [&](Context& ctx) {
    if (ctx.self() == 0) ctx.wake_in(delay);
  };
  p.on_step = [&](Context& ctx) {
    if (ctx.self() == 0) woke_at = ctx.round();
  };
  const auto metrics = net.run(p);
  EXPECT_EQ(woke_at, delay);
  EXPECT_EQ(metrics.rounds, delay);
}

TEST_P(WheelBoundary, MessageDelayAroundTheWheelCapacityArrivesExactly) {
  const std::uint64_t delay = GetParam();
  const Graph g = graph::path_graph(2);
  DelaySpec spec;
  spec.kind = DelaySpec::Kind::kFixed;
  spec.a = delay;
  const FaultPlan plan(spec, 0.0, {}, 13);
  NetworkConfig cfg;
  cfg.faults = &plan;
  Network net(g, cfg);
  LambdaProtocol p;
  std::uint64_t arrival_round = 0;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) ctx.send(1, Message::make(2, {9}));
  };
  p.on_step = [&](Context& ctx) {
    if (ctx.self() == 1 && !ctx.inbox().empty()) arrival_round = ctx.round();
  };
  const auto metrics = net.run(p);
  EXPECT_EQ(arrival_round, delay);
  EXPECT_EQ(metrics.rounds, delay);
  EXPECT_EQ(metrics.delayed_messages, 1u);
}

INSTANTIATE_TEST_SUITE_P(AroundKWheelSize, WheelBoundary,
                         ::testing::Values(kWheelSize - 1, kWheelSize, kWheelSize + 1));

// The overlay's retransmit timer filed K rounds out: node 0's one message
// reaches node 1 in its one-round crash window and is lost, so it arrives
// only as the retransmit fired at round K, one round later.
class OverlayWheelBoundary : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlayWheelBoundary, RetransmitTimerAroundTheWheelCapacityFiresExactly) {
  const std::uint64_t rto = GetParam();
  const Graph g = graph::path_graph(2);
  const CrashSpec crash = CrashSpec::parse("random:0.5:1:1");
  // The first fault seed that crashes node 1, and only node 1, at round 1.
  std::uint64_t seed = 0;
  while (!FaultPlan({}, 0.0, crash, seed).crashed(1, 1) ||
         FaultPlan({}, 0.0, crash, seed).crashed(0, 1)) {
    ++seed;
  }
  FaultPlan plan({}, 0.0, crash, seed);
  RtoSpec timeout;
  timeout.initial = rto;
  timeout.max = rto;
  plan.set_reliability(ReliabilitySpec::parse("ack"), timeout);
  NetworkConfig cfg;
  cfg.faults = &plan;
  Network net(g, cfg);
  LambdaProtocol p;
  std::vector<std::uint64_t> arrivals;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) ctx.send(1, Message::make(2, {9}));
  };
  p.on_step = [&](Context& ctx) {
    if (ctx.self() == 1 && !ctx.inbox().empty()) arrivals.push_back(ctx.round());
  };
  const auto metrics = net.run(p);
  EXPECT_EQ(metrics.crash_dropped_messages, 1u);
  EXPECT_EQ(metrics.retransmits, 1u);
  EXPECT_EQ(arrivals, std::vector<std::uint64_t>{rto + 1});
  EXPECT_FALSE(metrics.hit_round_limit);
}

INSTANTIATE_TEST_SUITE_P(AroundKWheelSize, OverlayWheelBoundary,
                         ::testing::Values(kWheelSize - 1, kWheelSize, kWheelSize + 1));

TEST(RoundWheel, DrainsFarEntriesBeforeTheBucketEachInPushOrder) {
  RoundWheel<int> wheel;
  wheel.push(0, kWheelSize + 5, 1);   // far
  wheel.push(0, kWheelSize + 5, 2);   // far, same round
  wheel.push(10, kWheelSize + 5, 3);  // bucket
  wheel.push(10, kWheelSize + 5, 4);  // bucket
  EXPECT_EQ(wheel.size(), 4u);
  EXPECT_EQ(wheel.next_round(10), kWheelSize + 5);
  std::vector<int> order;
  EXPECT_FALSE(wheel.drain(kWheelSize + 5, [&](int item) { order.push_back(item); }));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(wheel.empty());
  EXPECT_EQ(wheel.next_round(kWheelSize + 5), RoundWheel<int>::kNever);
}

TEST(RoundWheel, ReportsAFarEntryDrainedAfterItsRound) {
  RoundWheel<int> wheel;
  wheel.push(0, kWheelSize + 1, 7);
  std::vector<int> order;
  EXPECT_TRUE(wheel.drain(kWheelSize + 2, [&](int item) { order.push_back(item); }));
  EXPECT_EQ(order, std::vector<int>{7});
}

TEST(RoundWheel, NextRoundSkipsItemsTheOwnerCallsDead) {
  RoundWheel<int> wheel;
  wheel.push(0, 3, 0);               // dead
  wheel.push(0, 5, 1);               // live
  wheel.push(0, kWheelSize + 2, 1);  // live, far
  const auto live = [](int item, std::uint64_t) { return item == 1; };
  EXPECT_EQ(wheel.next_round(0), 3u);
  EXPECT_EQ(wheel.next_round(0, live), 5u);
  // Skipping round 3 leaves its dead item for a later lap of the same bucket.
  std::vector<int> order;
  wheel.drain(5, [&](int item) { order.push_back(item); });
  EXPECT_EQ(wheel.next_round(5, live), kWheelSize + 2);
  wheel.drain(kWheelSize + 2, [&](int item) { order.push_back(item); });
  wheel.drain(kWheelSize + 3, [&](int item) { order.push_back(item); });
  EXPECT_EQ(order, (std::vector<int>{1, 1, 0}));
  EXPECT_TRUE(wheel.empty());
}

TEST(RoundWheel, StorageIsBoundedByLiveItems) {
  // A burst filed one round ahead and drained, every round for three laps,
  // so every bucket takes the burst in turn.  Drained chunks go back to the
  // wheel's pool, so storage stays at the burst, not at kSize bursts.
  constexpr int kBurst = 10'000;
  constexpr std::size_t kBound = kBurst + kWheelSize * RoundWheel<int>::kChunk;
  RoundWheel<int> wheel;
  std::uint64_t r = 0;
  for (; r < 3 * kWheelSize; ++r) {
    for (int i = 0; i < kBurst; ++i) wheel.push(r, r + 1, i);
    int next = 0;
    wheel.drain(r + 1, [&](int item) { next += item == next ? 1 : kBurst + 1; });
    ASSERT_EQ(next, kBurst) << "round " << r + 1 << " lost push order";
    ASSERT_LE(wheel.capacity(), kBound) << "round " << r + 1;
  }
  // The same while drain's visit re-files each item one round ahead: the
  // chunks being visited stay valid while the pushes draw on the pool.
  for (int i = 0; i < kBurst; ++i) wheel.push(r, r + 1, i);
  for (const std::uint64_t end = r + 3 * kWheelSize; ++r < end;) {
    int next = 0;
    wheel.drain(r, [&](int item) {
      next += item == next ? 1 : kBurst + 1;
      wheel.push(r, r + 1, item);
    });
    ASSERT_EQ(next, kBurst) << "round " << r << " lost push order";
    ASSERT_LE(wheel.capacity(), kBound) << "round " << r;
  }
  EXPECT_EQ(wheel.size(), static_cast<std::size_t>(kBurst));
}

TEST(AsyncNetwork, FarDelaysBeyondTheWheelPreserveSendOrderPerEdge) {
  // Two messages on the same directed edge, sent in consecutive rounds with
  // a far (beyond-the-wheel) fixed latency, must arrive in send order.
  const Graph g = graph::path_graph(2);
  DelaySpec spec;
  spec.kind = DelaySpec::Kind::kFixed;
  spec.a = kWheelSize + 50;
  const FaultPlan plan(spec, 0.0, {}, 3);
  NetworkConfig cfg;
  cfg.faults = &plan;
  Network net(g, cfg);
  LambdaProtocol p;
  std::vector<std::int64_t> arrivals;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) {
      ctx.send(1, Message::make(1, {10}));
      ctx.wake_in(1);
    }
  };
  p.on_step = [&](Context& ctx) {
    if (ctx.self() == 0 && ctx.round() == 1) ctx.send(1, Message::make(1, {11}));
    for (const auto& m : ctx.inbox()) arrivals.push_back(m.data[0]);
  };
  net.run(p);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 10);
  EXPECT_EQ(arrivals[1], 11);
}

TEST(AsyncNetwork, RoundLimitFromThePlanTurnsDivergenceIntoReporting) {
  const Graph g = graph::path_graph(2);
  const FaultPlan plan({}, 0.0, {}, 5, /*round_limit=*/8);
  NetworkConfig cfg;
  cfg.faults = &plan;
  Network net(g, cfg);
  LambdaProtocol p;
  p.on_begin = [](Context& ctx) { ctx.wake_in(1); };
  p.on_step = [](Context& ctx) { ctx.wake_in(1); };  // ping forever
  const auto metrics = net.run(p);
  EXPECT_TRUE(metrics.hit_round_limit);
}

}  // namespace
}  // namespace dhc::congest
