// Tests for the CONGEST network simulator: delivery timing, bandwidth
// enforcement, event-driven scheduling, wake-ups, quiescence barriers,
// metrics, and determinism.
#include "congest/network.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace dhc::congest {
namespace {

using graph::Graph;

// Protocol shells for targeted behaviours.
class LambdaProtocol : public Protocol {
 public:
  std::function<void(Context&)> on_begin = [](Context&) {};
  std::function<void(Context&)> on_step = [](Context&) {};
  std::function<bool(Network&)> on_quiet = [](Network&) { return false; };

  void begin(Context& ctx) override { on_begin(ctx); }
  void step(Context& ctx) override { on_step(ctx); }
  bool on_quiescence(Network& net) override { return on_quiet(net); }
};

TEST(Network, MessageSentInBeginArrivesInRoundOne) {
  const Graph g = graph::path_graph(2);
  Network net(g, {});
  LambdaProtocol p;
  std::uint64_t arrival_round = 0;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) ctx.send(1, Message::make(7, {42}));
  };
  p.on_step = [&](Context& ctx) {
    for (const auto& m : ctx.inbox()) {
      EXPECT_EQ(m.tag, 7);
      EXPECT_EQ(m.data[0], 42);
      EXPECT_EQ(m.from, 0u);
      EXPECT_EQ(m.to, 1u);
      arrival_round = ctx.round();
    }
  };
  const auto metrics = net.run(p);
  EXPECT_EQ(arrival_round, 1u);
  EXPECT_EQ(metrics.messages, 1u);
  EXPECT_EQ(metrics.rounds, 1u);
}

TEST(Network, RelayTakesOneRoundPerHop) {
  const Graph g = graph::path_graph(5);
  Network net(g, {});
  LambdaProtocol p;
  std::uint64_t arrival_at_4 = 0;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) ctx.send(1, Message::make(1));
  };
  p.on_step = [&](Context& ctx) {
    for (const auto& m : ctx.inbox()) {
      if (ctx.self() < 4) {
        ctx.send(static_cast<NodeId>(ctx.self() + 1), Message::make(m.tag));
      } else {
        arrival_at_4 = ctx.round();
      }
    }
  };
  net.run(p);
  EXPECT_EQ(arrival_at_4, 4u);  // 4 hops
}

TEST(Network, SendToNonNeighborThrows) {
  const Graph g = graph::path_graph(3);  // 0-1-2; 0 and 2 not adjacent
  Network net(g, {});
  LambdaProtocol p;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) ctx.send(2, Message::make(1));
  };
  EXPECT_THROW(net.run(p), CongestViolation);
}

TEST(Network, EdgeCapacityEnforced) {
  const Graph g = graph::path_graph(2);
  Network net(g, {});
  LambdaProtocol p;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) {
      ctx.send(1, Message::make(1));
      ctx.send(1, Message::make(2));  // second message on same edge, same round
    }
  };
  EXPECT_THROW(net.run(p), CongestViolation);
}

TEST(Network, OppositeDirectionsAreIndependentEdges) {
  const Graph g = graph::path_graph(2);
  Network net(g, {});
  LambdaProtocol p;
  int received = 0;
  p.on_begin = [](Context& ctx) {
    // Both endpoints send simultaneously across the same undirected edge.
    ctx.send(ctx.self() == 0 ? 1 : 0, Message::make(1));
  };
  p.on_step = [&](Context& ctx) { received += static_cast<int>(ctx.inbox().size()); };
  net.run(p);
  EXPECT_EQ(received, 2);
}

TEST(Network, CapacityResetsEachRound) {
  const Graph g = graph::path_graph(2);
  Network net(g, {});
  LambdaProtocol p;
  int received = 0;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) {
      ctx.send(1, Message::make(1));
      ctx.wake_in(1);
    }
  };
  p.on_step = [&](Context& ctx) {
    if (ctx.self() == 0 && ctx.round() == 1) ctx.send(1, Message::make(2));
    received += static_cast<int>(ctx.inbox().size());
  };
  net.run(p);
  EXPECT_EQ(received, 2);
}

TEST(Network, WakeInSkipsIdleRoundsButCountsThem) {
  const Graph g = graph::path_graph(2);
  Network net(g, {});
  LambdaProtocol p;
  std::uint64_t woke_at = 0;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) ctx.wake_in(10);
  };
  p.on_step = [&](Context& ctx) {
    if (ctx.self() == 0) woke_at = ctx.round();
  };
  const auto metrics = net.run(p);
  EXPECT_EQ(woke_at, 10u);
  EXPECT_EQ(metrics.rounds, 10u);
  EXPECT_EQ(metrics.messages, 0u);
}

TEST(Network, WakeInZeroThrows) {
  const Graph g = graph::path_graph(2);
  Network net(g, {});
  LambdaProtocol p;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) ctx.wake_in(0);
  };
  EXPECT_THROW(net.run(p), std::invalid_argument);
}

TEST(Network, QuiescenceHookCanExtendTheRun) {
  const Graph g = graph::path_graph(3);
  Network net(g, {});
  LambdaProtocol p;
  int phases = 0;
  std::vector<std::uint64_t> step_rounds;
  p.on_step = [&](Context& ctx) {
    if (ctx.self() == 0) step_rounds.push_back(ctx.round());
  };
  p.on_quiet = [&](Network& n) {
    if (++phases > 3) return false;
    n.wake(0);
    return true;
  };
  const auto metrics = net.run(p);
  EXPECT_EQ(phases, 4);
  EXPECT_EQ(metrics.barrier_count, 3u);
  EXPECT_EQ(step_rounds.size(), 3u);
}

TEST(Network, QuiescenceWithoutWakeIsAProtocolBug) {
  const Graph g = graph::path_graph(2);
  Network net(g, {});
  LambdaProtocol p;
  p.on_quiet = [](Network&) { return true; };  // continue but wake nobody
  EXPECT_THROW(net.run(p), support::InvariantViolation);
}

TEST(Network, RoundLimitStopsRunsGracefully) {
  const Graph g = graph::path_graph(2);
  NetworkConfig cfg;
  cfg.max_rounds = 5;
  Network net(g, cfg);
  LambdaProtocol p;
  p.on_begin = [](Context& ctx) { ctx.wake_in(1); };
  p.on_step = [](Context& ctx) { ctx.wake_in(1); };  // ping forever
  const auto metrics = net.run(p);
  EXPECT_TRUE(metrics.hit_round_limit);
  EXPECT_GT(metrics.rounds, 5u);
}

TEST(Network, MetricsCountTrafficPerNode) {
  const Graph g = graph::star_graph(4);  // center 0
  Network net(g, {});
  LambdaProtocol p;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() != 0) ctx.send(0, Message::make(1, {1, 2}));
  };
  const auto metrics = net.run(p);
  EXPECT_EQ(metrics.messages, 3u);
  EXPECT_EQ(metrics.node_messages_sent[1], 1u);
  EXPECT_EQ(metrics.node_messages_sent[0], 0u);
  EXPECT_EQ(metrics.node_messages_received[0], 3u);
  // Each message: 2 words × ⌈log₂ 4⌉ bits + 8-bit tag = 2·2+8 = 12 bits.
  EXPECT_EQ(metrics.bits, 3u * 12u);
}

TEST(Network, MemoryAndComputeCharging) {
  const Graph g = graph::path_graph(2);
  Network net(g, {});
  LambdaProtocol p;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) {
      ctx.charge_memory(100);
      ctx.charge_memory(-40);
      ctx.charge_compute(7);
    }
  };
  const auto metrics = net.run(p);
  EXPECT_EQ(metrics.node_memory_words[0], 60);
  EXPECT_EQ(metrics.node_peak_memory_words[0], 100);
  EXPECT_EQ(metrics.max_node_peak_memory(), 100);
  EXPECT_EQ(metrics.node_compute_ops[0], 7u);
  EXPECT_EQ(metrics.max_node_compute(), 7u);
}

TEST(Network, PhaseMarksAndPhaseRounds) {
  const Graph g = graph::path_graph(2);
  Network net(g, {});
  LambdaProtocol p;
  int phase = 0;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) ctx.wake_in(1);
  };
  p.on_step = [](Context& ctx) {
    if (ctx.round() < 3) ctx.wake_in(1);
  };
  p.on_quiet = [&](Network& n) {
    if (phase++ == 0) {
      n.mark_phase("second");
      n.wake(0);
      return true;
    }
    return false;
  };
  const auto metrics = net.run(p);
  ASSERT_EQ(metrics.phase_marks.size(), 1u);
  EXPECT_EQ(metrics.phase_marks[0].first, "second");
  EXPECT_EQ(metrics.barrier_count, 1u);
}

TEST(Network, PerNodeRngStreamsAreDeterministic) {
  const Graph g = graph::path_graph(3);
  std::vector<std::uint64_t> draws_a;
  std::vector<std::uint64_t> draws_b;
  for (auto* out : {&draws_a, &draws_b}) {
    NetworkConfig cfg;
    cfg.seed = 99;
    Network net(g, cfg);
    LambdaProtocol p;
    p.on_begin = [out](Context& ctx) { out->push_back(ctx.rng().next_u64()); };
    net.run(p);
  }
  EXPECT_EQ(draws_a, draws_b);
  // Distinct nodes draw distinct streams.
  EXPECT_NE(draws_a[0], draws_a[1]);
}

TEST(Network, InboxClearedBetweenRounds) {
  const Graph g = graph::path_graph(2);
  Network net(g, {});
  LambdaProtocol p;
  std::vector<std::size_t> inbox_sizes;
  p.on_begin = [](Context& ctx) {
    if (ctx.self() == 0) {
      ctx.send(1, Message::make(1));
      ctx.wake_in(2);
    }
  };
  p.on_step = [&](Context& ctx) {
    if (ctx.self() == 1) inbox_sizes.push_back(ctx.inbox().size());
    if (ctx.self() == 0 && ctx.round() == 2) ctx.send(1, Message::make(2));
  };
  net.run(p);
  ASSERT_EQ(inbox_sizes.size(), 2u);
  EXPECT_EQ(inbox_sizes[0], 1u);
  EXPECT_EQ(inbox_sizes[1], 1u);  // old message must not linger
}

TEST(Network, MessageBitsScaleWithN) {
  Message m = Message::make(1, {5, 6, 7});
  // Ids 0..n-1 need ⌈log₂ n⌉ bits: 10 for n=1024, 10 for n=1023, 11 for 1025.
  EXPECT_EQ(message_bits(m, 1024), 3u * 10u + 8u);
  EXPECT_EQ(message_bits(m, 1023), 3u * 10u + 8u);
  EXPECT_EQ(message_bits(m, 1025), 3u * 11u + 8u);
}

TEST(Message, MakeRejectsAFifthWord) {
  EXPECT_THROW(Message::make(1, {1, 2, 3, 4, 5}), support::InvariantViolation);
  EXPECT_EQ(Message::make(1, {1, 2, 3, 4}).words, kMaxWords);
}

TEST(Message, MakeRejectsWordsOutsideThirtyTwoBits) {
  EXPECT_THROW(Message::make(1, {-1}), support::InvariantViolation);
  EXPECT_THROW(Message::make(1, {7, 1ll << 32}), support::InvariantViolation);
  const Message top = Message::make(1, {(1ll << 32) - 1, 0});
  EXPECT_EQ(top.data[0], 0xffffffffu);
  EXPECT_EQ(top.words, 2u);
}

TEST(Network, MaxWordsEnforced) {
  Message m;
  m.tag = 1;
  m.words = kMaxWords + 1;
  const Graph g = graph::path_graph(2);
  Network net(g, {});
  LambdaProtocol p;
  p.on_begin = [&](Context& ctx) {
    if (ctx.self() == 0) ctx.send(1, m);
  };
  EXPECT_THROW(net.run(p), support::InvariantViolation);
}

}  // namespace
}  // namespace dhc::congest
