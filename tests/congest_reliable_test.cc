// Tests for the reliable-delivery overlay (congest/reliable.h): spec
// parsing, and the end-to-end exactly-once in-order delivery contract under
// lossy FaultPlans — a flood fuzz that checks every directed link's receive
// stream against the naive reference channel (the sequence 1..K), plus
// metrics identities and run-to-run determinism.
#include "congest/reliable.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "congest/fault_plan.h"
#include "congest/network.h"
#include "graph/generators.h"
#include "support/rng.h"

namespace dhc::congest {
namespace {

using graph::Graph;

// --- spec parsing ----------------------------------------------------------

TEST(RtoSpec, ParsesEveryForm) {
  const RtoSpec full = RtoSpec::parse("rto:4:2:16");
  EXPECT_EQ(full.initial, 4u);
  EXPECT_EQ(full.mult, 2u);
  EXPECT_EQ(full.max, 16u);

  // The "rto:" prefix is optional.
  const RtoSpec bare = RtoSpec::parse("4:2:16");
  EXPECT_EQ(bare.initial, 4u);
  EXPECT_EQ(bare.mult, 2u);
  EXPECT_EQ(bare.max, 16u);

  // Omitted multiplier defaults to 2; omitted cap to max(16, initial).
  const RtoSpec just_k = RtoSpec::parse("rto:6");
  EXPECT_EQ(just_k.initial, 6u);
  EXPECT_EQ(just_k.mult, 2u);
  EXPECT_EQ(just_k.max, 16u);

  const RtoSpec big_k = RtoSpec::parse("rto:40");
  EXPECT_EQ(big_k.max, 40u) << "cap must never undercut the timeout";

  const RtoSpec no_cap = RtoSpec::parse("rto:5:3");
  EXPECT_EQ(no_cap.initial, 5u);
  EXPECT_EQ(no_cap.mult, 3u);
  EXPECT_EQ(no_cap.max, 16u);
}

TEST(RtoSpec, DefaultMatchesTheDocumentedSpec) {
  // rto:4:2:16 — the tightest spurious-free timeout at unit delays (round
  // trip = 3).  Pinned because the solvers' skew tolerance depends on it.
  const RtoSpec def;
  EXPECT_EQ(def.to_string(), "rto:4:2:16");
}

TEST(RtoSpec, RoundTripsThroughToString) {
  for (const char* spec : {"rto:4:2:16", "rto:8:2:64", "rto:1:1:1", "3:4:100"}) {
    const RtoSpec parsed = RtoSpec::parse(spec);
    EXPECT_EQ(RtoSpec::parse(parsed.to_string()).to_string(), parsed.to_string()) << spec;
  }
}

TEST(RtoSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "rto", "rto:", "rto:0", "rto:x", "rto:4:0", "rto:4:x",
                          "rto:4:2:2", "rto:4:2:x", "rto:4:2:16:9", "4:2:16:9",
                          "rto:2000000000", "rto:4:2:2000000000", "rto: 4", "rto:+4:2:16",
                          "rto:4:+2", "rto::4", "rto:4 "}) {
    EXPECT_THROW(RtoSpec::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(ReliabilitySpec, ParsesAndRejects) {
  EXPECT_EQ(ReliabilitySpec::parse("none").kind, ReliabilitySpec::Kind::kNone);
  EXPECT_EQ(ReliabilitySpec::parse("ack").kind, ReliabilitySpec::Kind::kAck);
  EXPECT_FALSE(ReliabilitySpec::parse("none").active());
  EXPECT_TRUE(ReliabilitySpec::parse("ack").active());
  EXPECT_EQ(ReliabilitySpec::parse("ack").to_string(), "ack");
  EXPECT_EQ(ReliabilitySpec::parse("none").to_string(), "none");
  for (const char* bad : {"", "ACK", "yes", "ack:4", "retransmit"}) {
    EXPECT_THROW(ReliabilitySpec::parse(bad), std::invalid_argument) << bad;
  }
}

// --- end-to-end delivery contract ------------------------------------------

/// Each directed link's received payload words, keyed (from, to).
using LinkLog = std::map<std::pair<NodeId, NodeId>, std::vector<std::int64_t>>;

/// Folds per-receiver journals (receiver → sender → words) into a LinkLog.
LinkLog by_link(const std::vector<std::map<NodeId, std::vector<std::int64_t>>>& received_by) {
  LinkLog out;
  for (NodeId to = 0; to < received_by.size(); ++to) {
    for (const auto& [from, seqs] : received_by[to]) out[{from, to}] = seqs;
  }
  return out;
}

/// Every node sends the numbered messages 1..K to every neighbor, one per
/// round, then goes quiet.  Receivers journal each arrival per directed
/// link, in per-receiver state so sharded rounds never share a container.
/// The reference channel is trivial: a reliable in-order link must deliver
/// exactly the sequence 1..K on every directed edge.
class FloodProtocol : public Protocol {
 public:
  FloodProtocol(NodeId n, std::uint64_t k) : k_(k), sent_(n, 0), received_by_(n) {}

  void begin(Context& ctx) override { ctx.wake_in(1); }

  void step(Context& ctx) override {
    for (const Message& m : ctx.inbox()) {
      received_by_[ctx.self()][m.from].push_back(m.data[0]);
    }
    if (sent_[ctx.self()] < k_) {
      const std::int64_t seq = static_cast<std::int64_t>(++sent_[ctx.self()]);
      for (const NodeId v : ctx.neighbors()) ctx.send(v, Message::make(1, {seq}));
      if (sent_[ctx.self()] < k_) ctx.wake_in(1);
    }
  }

  LinkLog received() const { return by_link(received_by_); }

 private:
  std::uint64_t k_;
  std::vector<std::uint64_t> sent_;
  std::vector<std::map<NodeId, std::vector<std::int64_t>>> received_by_;
};

struct FloodRun {
  Metrics metrics;
  LinkLog received;
};

FloodRun run_flood(const Graph& g, std::uint64_t k, const DelaySpec& delay, double drop,
                   std::uint64_t fault_seed) {
  FaultPlan plan(delay, drop, {}, fault_seed, /*round_limit=*/200000);
  plan.set_reliability(ReliabilitySpec::parse("ack"), RtoSpec{});
  NetworkConfig cfg;
  cfg.faults = &plan;
  Network net(g, cfg);
  FloodProtocol p(g.n(), k);
  FloodRun out;
  out.metrics = net.run(p);
  out.received = p.received();
  return out;
}

void expect_every_link_got_one_through_k(const Graph& g, std::uint64_t k, const FloodRun& run) {
  std::uint64_t directed_edges = 0;
  for (NodeId u = 0; u < g.n(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      ++directed_edges;
      const auto it = run.received.find({u, v});
      ASSERT_NE(it, run.received.end()) << "link " << u << "->" << v << " delivered nothing";
      ASSERT_EQ(it->second.size(), k) << "link " << u << "->" << v;
      for (std::uint64_t i = 0; i < k; ++i) {
        EXPECT_EQ(it->second[i], static_cast<std::int64_t>(i + 1))
            << "link " << u << "->" << v << " position " << i;
      }
    }
  }
  EXPECT_FALSE(run.metrics.hit_round_limit);
  // The protocol's own sends — what payload_messages() isolates — are
  // exactly K per directed edge, whatever the overlay had to add on top.
  EXPECT_EQ(run.metrics.payload_messages(), k * directed_edges);
  EXPECT_EQ(run.metrics.messages,
            run.metrics.payload_messages() + run.metrics.retransmits + run.metrics.acks_sent);
}

TEST(ReliableOverlay, FloodFuzzDeliversInOrderExactlyOnceUnderDrops) {
  constexpr std::uint64_t kK = 8;
  support::Rng rng(4242);
  const Graph graphs[] = {graph::cycle_graph(12), graph::gnp(20, 0.25, rng)};
  bool any_retransmit = false;
  bool any_duplicate = false;
  for (const Graph& g : graphs) {
    for (const double drop : {0.05, 0.25, 0.4}) {
      for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const FloodRun run = run_flood(g, kK, {}, drop, seed);
        expect_every_link_got_one_through_k(g, kK, run);
        any_retransmit |= run.metrics.retransmits > 0;
        any_duplicate |= run.metrics.dup_suppressed > 0;
      }
    }
  }
  // Across 18 lossy runs the overlay must actually have worked for a living.
  EXPECT_TRUE(any_retransmit);
  EXPECT_TRUE(any_duplicate);
}

TEST(ReliableOverlay, SurvivesNonUnitAndHeterogeneousLatencies) {
  constexpr std::uint64_t kK = 6;
  const Graph g = graph::cycle_graph(10);
  for (const char* delay : {"fixed:3", "uniform:1:4"}) {
    const FloodRun run = run_flood(g, kK, DelaySpec::parse(delay), 0.2, 7);
    expect_every_link_got_one_through_k(g, kK, run);
  }
}

TEST(ReliableOverlay, OneWayTrafficForcesStandaloneAcks) {
  // Node 0 streams to node 1; node 1 never sends payload back, so every ack
  // must travel as a standalone transport message.
  const Graph g = graph::path_graph(2);
  FaultPlan plan({}, 0.3, {}, 11, /*round_limit=*/100000);
  plan.set_reliability(ReliabilitySpec::parse("ack"), RtoSpec{});
  NetworkConfig cfg;
  cfg.faults = &plan;
  Network net(g, cfg);

  constexpr std::int64_t kK = 6;
  std::vector<std::int64_t> arrivals;
  class OneWay : public Protocol {
   public:
    std::vector<std::int64_t>* arrivals = nullptr;
    std::int64_t sent = 0;
    void begin(Context& ctx) override {
      if (ctx.self() == 0) ctx.wake_in(1);
    }
    void step(Context& ctx) override {
      for (const Message& m : ctx.inbox()) arrivals->push_back(m.data[0]);
      if (ctx.self() == 0 && sent < kK) {
        ctx.send(1, Message::make(1, {++sent}));
        if (sent < kK) ctx.wake_in(1);
      }
    }
  } p;
  p.arrivals = &arrivals;
  const Metrics metrics = net.run(p);

  ASSERT_EQ(arrivals.size(), static_cast<std::size_t>(kK));
  for (std::int64_t i = 0; i < kK; ++i) EXPECT_EQ(arrivals[i], i + 1);
  EXPECT_GT(metrics.acks_sent, 0u);
  EXPECT_GT(metrics.retransmits, 0u) << "drop 0.3 over 6 sends should lose something (seed 11)";
  EXPECT_EQ(metrics.payload_messages(), static_cast<std::uint64_t>(kK));
}

TEST(ReliableOverlay, LosslessPlanNeverEngagesTheOverlay) {
  // reliability=ack with drop 0 and no crashes must be bitwise the plain
  // async run: the overlay is bypassed entirely, so no overlay counter can
  // move and no ack traffic can exist.
  const Graph g = graph::cycle_graph(8);
  const std::uint64_t k = 4;

  FaultPlan ack_plan({}, 0.0, {}, 5);
  ack_plan.set_reliability(ReliabilitySpec::parse("ack"), RtoSpec{});
  NetworkConfig cfg;
  cfg.faults = &ack_plan;
  Network ack_net(g, cfg);
  FloodProtocol ack_p(g.n(), k);
  const Metrics with_ack = ack_net.run(ack_p);

  const FaultPlan none_plan({}, 0.0, {}, 5);
  cfg.faults = &none_plan;
  Network none_net(g, cfg);
  FloodProtocol none_p(g.n(), k);
  const Metrics without = none_net.run(none_p);

  EXPECT_EQ(with_ack.retransmits, 0u);
  EXPECT_EQ(with_ack.dup_suppressed, 0u);
  EXPECT_EQ(with_ack.acks_sent, 0u);
  EXPECT_EQ(with_ack.messages, without.messages);
  EXPECT_EQ(with_ack.rounds, without.rounds);
  EXPECT_EQ(with_ack.bits, without.bits);
  EXPECT_EQ(ack_p.received(), none_p.received());
}

/// Every node sends two bursts of kBurst numbered messages to every
/// neighbor — all of a burst in one round, legal under async because each
/// link's FIFO serialises it — so send windows run kBurst or more deep and
/// wrap the overlay's window ring.  Receivers fold every delivery into a
/// digest of (round, receiver, sender, value), which pins the whole arrival
/// schedule, and journal each link's values for the exactly-once check.
class BurstProtocol : public Protocol {
 public:
  static constexpr std::int64_t kBurst = 12;
  static constexpr std::uint64_t kGap = 5;  // rounds between the two bursts

  explicit BurstProtocol(NodeId n)
      : bursts_(n, 0), burst_at_(n, 1), digest_(n, kFnvBasis), received_by_(n) {}

  void begin(Context& ctx) override { ctx.wake_in(1); }

  void step(Context& ctx) override {
    const NodeId self = ctx.self();
    for (const Message& m : ctx.inbox()) {
      received_by_[self][m.from].push_back(m.data[0]);
      for (const std::uint64_t word :
           {ctx.round(), std::uint64_t{m.from}, std::uint64_t{m.data[0]}}) {
        digest_[self] = (digest_[self] ^ word) * kFnvPrime;
      }
    }
    if (bursts_[self] < 2 && ctx.round() >= burst_at_[self]) {
      const std::int64_t base = kBurst * bursts_[self]++;
      for (std::int64_t i = 1; i <= kBurst; ++i) {
        for (const NodeId v : ctx.neighbors()) ctx.send(v, Message::make(1, {base + i}));
      }
      if (bursts_[self] < 2) {
        burst_at_[self] = ctx.round() + kGap;
        ctx.wake_in(kGap);
      }
    }
  }

  /// One digest over every receiver's digest, in node order.
  std::uint64_t digest() const {
    std::uint64_t h = kFnvBasis;
    for (const std::uint64_t d : digest_) h = (h ^ d) * kFnvPrime;
    return h;
  }

  LinkLog received() const { return by_link(received_by_); }

 private:
  static constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
  static constexpr std::uint64_t kFnvPrime = 1099511628211ull;

  std::vector<std::int64_t> bursts_;
  std::vector<std::uint64_t> burst_at_;  // round of the next burst
  std::vector<std::uint64_t> digest_;
  std::vector<std::map<NodeId, std::vector<std::int64_t>>> received_by_;
};

TEST(ReliableOverlay, BurstScheduleMatchesParent) {
  // The constants were recorded before the overlay's per-link state moved
  // into one endpoint struct with a seq-indexed window ring; any change to
  // the timer schedule, the ack policy or the retransmit order moves them.
  struct Case {
    const char* delay;
    double drop;
    const char* crash;
    std::uint64_t messages, retransmits, acks_sent, dup_suppressed, rounds, digest;
  };
  const Case cases[] = {
      {"none", 0.25, "none", 39941, 20952, 16493, 14966, 536, 1407548399856798835ull},
      {"none", 0.4, "none", 37695, 21707, 13492, 11787, 574, 3478758838801850791ull},
      {"uniform:1:4", 0.25, "none", 38018, 19763, 15759, 14146, 496, 2031203512286110603ull},
      {"none", 0.25, "random:0.2:8:10", 37587, 19731, 15360, 13764, 483,
       15120743203629190365ull},
  };
  support::Rng rng(2024);
  const Graph g = graph::gnp(20, 0.3, rng);
  for (const Case& c : cases) {
    FaultPlan plan(DelaySpec::parse(c.delay), c.drop, CrashSpec::parse(c.crash), 31,
                   /*round_limit=*/200000);
    plan.set_reliability(ReliabilitySpec::parse("ack"), RtoSpec{});
    NetworkConfig cfg;
    cfg.faults = &plan;
    Network net(g, cfg);
    BurstProtocol p(g.n());
    const Metrics m = net.run(p);
    const std::string where =
        std::string(c.delay) + " drop " + std::to_string(c.drop) + " " + c.crash;
    EXPECT_FALSE(m.hit_round_limit) << where;
    EXPECT_EQ(m.crash_dropped_messages > 0, std::string(c.crash) != "none") << where;
    EXPECT_EQ(m.messages, c.messages) << where;
    EXPECT_EQ(m.retransmits, c.retransmits) << where;
    EXPECT_EQ(m.acks_sent, c.acks_sent) << where;
    EXPECT_EQ(m.dup_suppressed, c.dup_suppressed) << where;
    EXPECT_EQ(m.rounds, c.rounds) << where;
    EXPECT_EQ(p.digest(), c.digest) << where;
    std::vector<std::int64_t> one_through_k(2 * BurstProtocol::kBurst);
    std::iota(one_through_k.begin(), one_through_k.end(), 1);
    for (const auto& [link, values] : p.received()) {
      EXPECT_EQ(values, one_through_k) << where << " link " << link.first << "->" << link.second;
    }
    EXPECT_EQ(p.received().size(), 2 * g.m()) << where;
  }
}

TEST(ReliableOverlay, ReplaysBitwiseIdenticallyAcrossRuns) {
  const Graph g = graph::cycle_graph(14);
  const FloodRun a = run_flood(g, 8, {}, 0.25, 99);
  const FloodRun b = run_flood(g, 8, {}, 0.25, 99);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.metrics.retransmits, b.metrics.retransmits);
  EXPECT_EQ(a.metrics.dup_suppressed, b.metrics.dup_suppressed);
  EXPECT_EQ(a.metrics.acks_sent, b.metrics.acks_sent);
  EXPECT_EQ(a.metrics.dropped_messages, b.metrics.dropped_messages);
  EXPECT_EQ(a.received, b.received);
}

}  // namespace
}  // namespace dhc::congest
