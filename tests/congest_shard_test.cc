// Shard-invariance suite for the sharded round engine (DESIGN.md §5).
//
// The engine's contract is *bitwise* equivalence: for any shard count, a run
// must produce the same per-node inbox logs (content and order), the same
// metrics, the same wake-up timing (including far wake-ups that overflow the
// wheel), and — when an observer is attached — the same event stream in the
// same order.  These tests drive scripted protocols whose per-node state is
// strictly self-indexed (the discipline sharding relies on) and compare
// every observable against the shards=1 run.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "congest/fault_plan.h"
#include "congest/network.h"
#include "graph/generators.h"
#include "per_node_journal.h"

namespace dhc::congest {
namespace {

using graph::Graph;

constexpr std::uint32_t kShardCounts[] = {1, 2, 4, 8};

// A deterministic scripted protocol: each activation logs its inbox into a
// per-node journal (self-indexed — shard-safe) and acts as a pure function
// of (seed, node, round): sends to a pseudo-random subset of neighbors,
// occasionally arms a short or far (beyond-the-wheel) wake-up.
class JournalProtocol : public Protocol {
 public:
  JournalProtocol(NodeId n, std::uint64_t seed, std::uint64_t horizon)
      : seed_(seed), horizon_(horizon), journal_(n) {}

  void begin(Context& ctx) override {
    if (ctx.self() % 3 == 0) act(ctx);
  }

  void step(Context& ctx) override {
    std::ostringstream line;
    line << "r" << ctx.round() << " v" << ctx.self() << ":";
    for (const Message& m : ctx.inbox()) {
      line << " (" << m.from << "," << m.tag << "," << m.data[0] << ")";
    }
    journal_.append(ctx.self(), ctx.round(), line.str());
    act(ctx);
  }

  /// All journal lines flattened in (round, node) order — the sequential
  /// activation order.
  std::string flattened() const { return journal_.flatten(); }

 private:
  void act(Context& ctx) {
    const NodeId v = ctx.self();
    const std::uint64_t round = ctx.round();
    if (round >= horizon_) return;
    std::uint64_t state = seed_ ^ (0x9e3779b97f4a7c15ULL * (v + 1)) ^ (round << 18);
    const auto nb = ctx.neighbors();
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if ((support::splitmix64(state) & 3) == 0) {
        ctx.send_to_rank(i, Message::make(9, {static_cast<std::int64_t>(round + i)}));
      }
    }
    // Mix in this node's private RNG so shard invariance also covers the
    // per-node stream positions.
    const std::uint64_t coin = ctx.rng().below(7);
    if (coin == 1) ctx.wake_in(1 + (support::splitmix64(state) % 3));
    if (coin == 2) ctx.wake_in(1100 + (support::splitmix64(state) % 64));  // far heap
  }

  std::uint64_t seed_;
  std::uint64_t horizon_;
  testutil::PerNodeJournal journal_;
};

/// Records the full observer event stream (order-sensitive).
class EventRecorder : public MessageObserver {
 public:
  void on_events(std::span<const SendEvent> events) override {
    log_.insert(log_.end(), events.begin(), events.end());
  }
  const std::vector<SendEvent>& log() const { return log_; }

 private:
  std::vector<SendEvent> log_;
};

struct Observed {
  std::string journal;
  Metrics metrics;
  std::vector<SendEvent> events;
};

Observed run_once(const Graph& g, std::uint64_t seed, std::uint32_t shards,
                  bool with_observer) {
  NetworkConfig cfg;
  cfg.seed = seed * 77 + 5;
  cfg.shards = shards;
  cfg.shard_grain = 1;  // engage sharding even on tiny rounds
  EventRecorder recorder;
  if (with_observer) cfg.observer = &recorder;
  Network net(g, cfg);
  JournalProtocol protocol(g.n(), seed, /*horizon=*/40);
  Observed out;
  out.metrics = net.run(protocol);
  out.journal = protocol.flattened();
  out.events = recorder.log();
  return out;
}

void expect_metrics_equal(const Metrics& a, const Metrics& b, std::uint32_t shards) {
  EXPECT_EQ(a.rounds, b.rounds) << "shards=" << shards;
  EXPECT_EQ(a.messages, b.messages) << "shards=" << shards;
  EXPECT_EQ(a.bits, b.bits) << "shards=" << shards;
  EXPECT_EQ(a.node_messages_sent, b.node_messages_sent) << "shards=" << shards;
  EXPECT_EQ(a.node_messages_received, b.node_messages_received) << "shards=" << shards;
  EXPECT_EQ(a.node_compute_ops, b.node_compute_ops) << "shards=" << shards;
  EXPECT_EQ(a.node_memory_words, b.node_memory_words) << "shards=" << shards;
}

class ShardInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardInvariance, JournalsMetricsAndEventsMatchSequential) {
  const std::uint64_t seed = GetParam();
  support::Rng grng(seed * 17 + 3);
  const Graph g = graph::gnp(90 + static_cast<graph::NodeId>(seed % 30), 0.1, grng);

  const Observed base = run_once(g, seed, /*shards=*/1, /*with_observer=*/true);
  ASSERT_GT(base.metrics.messages, 0u);
  ASSERT_EQ(base.events.size(), base.metrics.messages);

  for (const std::uint32_t shards : kShardCounts) {
    if (shards == 1) continue;
    const Observed sharded = run_once(g, seed, shards, /*with_observer=*/true);
    EXPECT_EQ(sharded.journal, base.journal) << "shards=" << shards;
    expect_metrics_equal(sharded.metrics, base.metrics, shards);
    // The observer event stream must be identical *in order*, not just as a
    // multiset — k-machine pricing depends on per-round load sequences.
    ASSERT_EQ(sharded.events.size(), base.events.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < base.events.size(); ++i) {
      EXPECT_EQ(sharded.events[i].from, base.events[i].from) << "i=" << i;
      EXPECT_EQ(sharded.events[i].to, base.events[i].to) << "i=" << i;
      EXPECT_EQ(sharded.events[i].round, base.events[i].round) << "i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardInvariance, ::testing::Range<std::uint64_t>(0, 8));

TEST(ShardEngine, ShardCountBeyondActiveSetIsHarmless) {
  support::Rng grng(11);
  const Graph g = graph::gnp(24, 0.3, grng);
  const Observed base = run_once(g, 4, 1, false);
  const Observed wide = run_once(g, 4, 64, false);  // more shards than nodes
  EXPECT_EQ(wide.journal, base.journal);
  expect_metrics_equal(wide.metrics, base.metrics, 64);
}

TEST(ShardEngine, ResolvesShardsFromEnvironmentWhenUnset) {
  support::Rng grng(3);
  const Graph g = graph::gnp(16, 0.4, grng);
  NetworkConfig cfg;  // shards = 0 → env or 1
  Network net(g, cfg);
  const char* env = std::getenv("DHC_SHARDS");
  const std::uint32_t expected = default_shards();
  EXPECT_EQ(net.shards(), expected);
  if (env == nullptr) {
    EXPECT_EQ(expected, 1u);
  }
}

TEST(ShardEngine, CapacityViolationDiagnosticIdenticalWhenSharded) {
  // A protocol that double-sends on one edge in a wide round; the violation
  // is thrown from inside a shard and must carry the same diagnostic.
  class DoubleSend : public Protocol {
   public:
    void begin(Context& ctx) override {
      if (ctx.self() == 0) ctx.wake_in(1);
    }
    void step(Context& ctx) override {
      if (ctx.round() == 1 && ctx.self() == 0) {
        // Wake everyone so round 2 is wide enough to shard.
        for (std::size_t i = 0; i < ctx.degree(); ++i) {
          ctx.send_to_rank(i, Message::make(1));
        }
        ctx.wake_in(1);
        return;
      }
      if (ctx.self() == 0 && ctx.degree() > 0) {
        ctx.send_to_rank(0, Message::make(2, {1}));
        ctx.send_to_rank(0, Message::make(3, {2}));  // violates capacity 1
      }
    }
  };

  support::Rng grng(7);
  const Graph g = graph::gnp(40, 0.5, grng);
  auto run_and_catch = [&](std::uint32_t shards) -> std::string {
    NetworkConfig cfg;
    cfg.seed = 1;
    cfg.shards = shards;
    cfg.shard_grain = 1;
    Network net(g, cfg);
    DoubleSend protocol;
    try {
      net.run(protocol);
    } catch (const CongestViolation& e) {
      return e.what();
    }
    return "<no violation>";
  };
  const std::string seq = run_and_catch(1);
  ASSERT_NE(seq, "<no violation>");
  EXPECT_EQ(run_and_catch(4), seq);
}

TEST(ShardEngine, MulticastCapacityViolationDiagnosticIdenticalWhenSharded) {
  // Node 0 multicasts on every edge in a wide round, then sends again on
  // rank 0: the diagnostic must name the multicast's tag as queued, and
  // read the same whichever shard count stepped the round.
  class FloodThenSend : public Protocol {
   public:
    void begin(Context& ctx) override {
      if (ctx.self() == 0) ctx.wake_in(1);
    }
    void step(Context& ctx) override {
      if (ctx.round() == 1 && ctx.self() == 0) {
        ctx.multicast(Message::make(1));  // wakes every neighbor for round 2
        ctx.wake_in(1);
        return;
      }
      if (ctx.self() == 0) {
        ctx.multicast(Message::make(4, {1}));
        ctx.send_to_rank(0, Message::make(5, {2}));  // violates capacity 1
      }
    }
  };

  support::Rng grng(7);
  const Graph g = graph::gnp(40, 0.5, grng);
  ASSERT_GT(g.degree(0), 0u);
  auto run_and_catch = [&](std::uint32_t shards) -> std::string {
    NetworkConfig cfg;
    cfg.seed = 1;
    cfg.shards = shards;
    cfg.shard_grain = 1;
    Network net(g, cfg);
    FloodThenSend protocol;
    try {
      net.run(protocol);
    } catch (const CongestViolation& e) {
      return e.what();
    }
    return "<no violation>";
  };
  const std::string seq = run_and_catch(1);
  EXPECT_EQ(seq, "edge (0→" + std::to_string(g.neighbors(0)[0]) +
                     ") over capacity in round 2: CONGEST allows 1 message(s) per edge per "
                     "round (new tag 5, queued tags: 4)");
  EXPECT_EQ(run_and_catch(2), seq);
  EXPECT_EQ(run_and_catch(4), seq);
}

// Sends of a sharded synchronous round stay parked in the shard logs until
// the next delivery scatters them.  Every check that asks "is mail in
// flight?" must count them: the quiescence test, the round advance (node 0
// keeps a wake-up armed `gap` rounds out, so parked mail misread as none
// would jump straight to it), the round limit's live/stalled verdict, and
// arena_bytes_peak.  Two flood phases of `waves` rounds each: every round
// is wide enough to shard at grain 1, and each phase ends on a sharded
// round whose sends are parked when the wake-up-free network is tested for
// quiescence.
class ParkedWaves : public Protocol {
 public:
  ParkedWaves(std::uint64_t waves, std::uint64_t gap) : waves_(waves), gap_(gap) {}

  void begin(Context& ctx) override {
    if (ctx.self() == 0) ctx.wake_in(gap_);
    flood(ctx);
  }

  void step(Context& ctx) override {
    if (ctx.round() < until_) flood(ctx);
  }

  bool on_quiescence(Network& net) override {
    if (second_phase_) return false;
    second_phase_ = true;
    until_ = net.round() + 1 + waves_;
    net.wake_all();
    return true;
  }

 private:
  static void flood(Context& ctx) {
    for (std::size_t i = 0; i < ctx.degree(); ++i) {
      ctx.send_to_rank(i, Message::make(5, {ctx.self(), static_cast<std::int64_t>(ctx.round())}));
    }
  }

  std::uint64_t waves_;
  std::uint64_t gap_;
  std::uint64_t until_ = waves_;
  bool second_phase_ = false;
};

Metrics run_parked(const Graph& g, std::uint32_t shards, std::uint64_t max_rounds) {
  NetworkConfig cfg;
  cfg.seed = 3;
  cfg.shards = shards;
  cfg.shard_grain = 1;
  cfg.max_rounds = max_rounds;
  Network net(g, cfg);
  ParkedWaves protocol(/*waves=*/4, /*gap=*/40);
  return net.run(protocol);
}

void expect_parked_runs_match(const Graph& g, std::uint64_t max_rounds, const Metrics& base) {
  for (const std::uint32_t shards : {2u, 4u}) {
    const Metrics m = run_parked(g, shards, max_rounds);
    EXPECT_EQ(m.rounds, base.rounds) << "shards=" << shards;
    EXPECT_EQ(m.barrier_count, base.barrier_count) << "shards=" << shards;
    EXPECT_EQ(m.hit_round_limit, base.hit_round_limit) << "shards=" << shards;
    EXPECT_EQ(m.round_limit_live, base.round_limit_live) << "shards=" << shards;
    EXPECT_EQ(m.arena_bytes_peak, base.arena_bytes_peak) << "shards=" << shards;
    EXPECT_TRUE(m == base) << "Metrics differ field-for-field at shards=" << shards;
  }
}

TEST(ShardEngine, MailParkedInShardLogsHoldsOffQuiescence) {
  support::Rng grng(21);
  const Graph g = graph::gnp(60, 0.2, grng);
  const Metrics base = run_parked(g, 1, /*max_rounds=*/1000);
  ASSERT_FALSE(base.hit_round_limit);
  ASSERT_EQ(base.barrier_count, 1u);
  // Phase 0 floods in rounds 0..3 and drains in round 4, then idles to
  // node 0's wake-up at round 40; phase 1 floods in rounds 41..44 and
  // drains in round 45.  A flood round holds one delivered and one queued
  // message per directed edge.
  ASSERT_EQ(base.rounds, 45u);
  ASSERT_EQ(base.arena_bytes_peak, 2 * g.m() * 2 * sizeof(Message));
  expect_parked_runs_match(g, 1000, base);
}

TEST(ShardEngine, MailParkedInShardLogsAtTheRoundLimitIsLive) {
  support::Rng grng(21);
  const Graph g = graph::gnp(60, 0.2, grng);
  const Metrics base = run_parked(g, 1, /*max_rounds=*/3);
  ASSERT_TRUE(base.hit_round_limit);
  ASSERT_TRUE(base.round_limit_live);
  ASSERT_GT(base.arena_bytes_peak, 0u);
  expect_parked_runs_match(g, 3, base);
}

// An inbox is a range of references into the log its senders wrote last
// round, so it must survive the reading round's own sends — which append to
// the other buffer of each shard log — however much they outgrow it.  Odd
// rounds send little (a multicast to the even ranks plus a few unicasts),
// even rounds a unicast on every edge, far more than any earlier log held.
// Every step copies its inbox, sends, then re-reads the inbox and compares;
// a reference into the buffer being written reads the new sends instead
// (and fails loudly under ASan once that buffer reallocates).
class OutgrowTheLog : public Protocol {
 public:
  OutgrowTheLog(NodeId n, std::uint64_t horizon)
      : horizon_(horizon), received_(n, 0), mismatches_(n, 0) {}

  void begin(Context& ctx) override { ctx.wake_in(1); }

  void step(Context& ctx) override {
    std::vector<Message> copy;
    for (const Message& m : ctx.inbox()) copy.push_back(m);
    if (ctx.round() <= horizon_) {
      send_round(ctx);
      ctx.wake_in(1);
    }
    const Inbox inbox = ctx.inbox();
    std::uint64_t& bad = mismatches_[ctx.self()];
    if (inbox.size() != copy.size()) ++bad;
    for (std::size_t i = 0; i < copy.size() && i < inbox.size(); ++i) {
      const Message& m = inbox[i];
      if (m.from != copy[i].from || m.tag != copy[i].tag || m.words != copy[i].words ||
          m.data != copy[i].data || m.data[0] != m.from) {
        ++bad;
      }
    }
    received_[ctx.self()] += copy.size();
  }

  std::uint64_t received() const {
    return std::accumulate(received_.begin(), received_.end(), std::uint64_t{0});
  }
  std::uint64_t mismatches() const {
    return std::accumulate(mismatches_.begin(), mismatches_.end(), std::uint64_t{0});
  }

 private:
  static void send_round(Context& ctx) {
    const auto payload = [&](std::uint16_t tag) {
      return Message::make(tag, {ctx.self(), static_cast<std::int64_t>(ctx.round())});
    };
    if (ctx.round() % 2 == 1) {
      ctx.multicast(payload(1), [](std::size_t rank, NodeId) { return rank % 2 == 0; });
      for (std::size_t i = 1; i < ctx.degree() && i < 6; i += 2) ctx.send_to_rank(i, payload(2));
    } else {
      for (std::size_t i = 0; i < ctx.degree(); ++i) ctx.send_to_rank(i, payload(3));
    }
  }

  std::uint64_t horizon_;
  std::vector<std::uint64_t> received_;    // per node
  std::vector<std::uint64_t> mismatches_;  // per node
};

// Runs OutgrowTheLog at shards 1 and 4 (grain 1) under `faults` (nullptr:
// synchronous) and checks every re-read inbox against its copy.
void expect_inboxes_outlive_sends(const FaultPlan* faults) {
  support::Rng grng(5);
  const Graph g = graph::gnp(80, 0.3, grng);
  std::uint64_t received_at_one_shard = 0;
  for (const std::uint32_t shards : {1u, 4u}) {
    NetworkConfig cfg;
    cfg.seed = 9;
    cfg.shards = shards;
    cfg.shard_grain = 1;
    cfg.faults = faults;
    Network net(g, cfg);
    OutgrowTheLog protocol(g.n(), /*horizon=*/8);
    const Metrics m = net.run(protocol);
    ASSERT_FALSE(m.hit_round_limit) << "shards=" << shards;
    EXPECT_EQ(protocol.mismatches(), 0u) << "shards=" << shards;
    if (faults == nullptr) {
      EXPECT_EQ(protocol.received(), m.messages) << "shards=" << shards;
    } else {
      EXPECT_GT(m.dropped_messages, 0u) << "shards=" << shards;
      EXPECT_GT(m.retransmits, 0u) << "shards=" << shards;
    }
    if (shards == 1) received_at_one_shard = protocol.received();
    EXPECT_GT(protocol.received(), 0u) << "shards=" << shards;
    EXPECT_EQ(protocol.received(), received_at_one_shard) << "shards=" << shards;
  }
}

TEST(ShardEngine, InboxOutlivesItsRoundsSends) { expect_inboxes_outlive_sends(nullptr); }

// The async regime stages matured frames in shard 0's log, so the same
// references must outlive the round's sends there too: fixed two-round
// latency, drops, and the ack overlay's retransmits and standalone acks.
TEST(ShardEngine, AsyncInboxOutlivesItsRoundsSends) {
  FaultPlan plan(DelaySpec::parse("fixed:2"), 0.05, {}, /*fault_seed=*/13,
                 /*round_limit=*/100000);
  plan.set_reliability(ReliabilitySpec::parse("ack"), RtoSpec{});
  expect_inboxes_outlive_sends(&plan);
}

}  // namespace
}  // namespace dhc::congest
