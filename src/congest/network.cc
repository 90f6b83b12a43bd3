#include "congest/network.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <stdexcept>

#include "congest/fault_plan.h"
#include "congest/reliable.h"
#include "support/require.h"

namespace dhc::congest {

namespace {

// Environment defaults for the sharding knobs: DHC_SHARDS / DHC_SHARD_GRAIN
// apply wherever the caller leaves NetworkConfig at 0, which is how the CI
// shard matrix runs the entire test suite sharded without per-test plumbing.
std::uint32_t env_or(const char* name, std::uint32_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0' || parsed == 0 || parsed > 1u << 20) return fallback;
  return static_cast<std::uint32_t>(parsed);
}

template <class T>
T max_or_zero(const std::vector<T>& values) {
  return values.empty() ? T{0} : *std::max_element(values.begin(), values.end());
}

}  // namespace

std::uint32_t default_shards() { return env_or("DHC_SHARDS", 1); }

std::uint64_t message_bits(const Message& msg, NodeId n) {
  // One word holds a node id (0..n-1), an index, or a size: ⌈log₂ n⌉ bits.
  const std::uint64_t id_bits =
      std::max<std::uint64_t>(1, std::bit_width(std::uint64_t{n > 0 ? n - 1 : 0}));
  return message_bits_for(msg.words, id_bits);
}

std::uint64_t Metrics::max_node_messages_sent() const { return max_or_zero(node_messages_sent); }

std::int64_t Metrics::max_node_peak_memory() const { return max_or_zero(node_peak_memory_words); }

std::uint64_t Metrics::max_node_compute() const { return max_or_zero(node_compute_ops); }

std::uint64_t Metrics::phase_rounds(const std::string& label) const {
  // A label may mark several spans (DHC2 re-marks "merge" every level); each
  // span runs to the next mark, the last one to rounds + 1.  Sum them all.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < phase_marks.size(); ++i) {
    if (phase_marks[i].first != label) continue;
    const std::uint64_t begin = phase_marks[i].second;
    const std::uint64_t end =
        (i + 1 < phase_marks.size()) ? phase_marks[i + 1].second : rounds + 1;
    if (end > begin) total += end - begin;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

Network::Network(const graph::Graph& g, NetworkConfig cfg) : graph_(&g), cfg_(cfg) {
  shards_ = cfg_.shards != 0 ? cfg_.shards : default_shards();
  shard_grain_ = cfg_.shard_grain != 0 ? cfg_.shard_grain : env_or("DHC_SHARD_GRAIN", 32);
  shard_state_.resize(shards_);
  const std::size_t n = g.n();
  bits_per_word_ = std::max<std::uint64_t>(
      1, std::bit_width(std::uint64_t{n > 0 ? n - 1 : 0}));
  inbox_count_.assign(n, 0);
  inbox_off_.assign(n, 0);
  inbox_len_.assign(n, 0);
  inbox_cursor_.assign(n, 0);
  has_mail_.assign(n, 0);
  const std::size_t max_degree = g.max_degree();
  for (ShardState& sh : shard_state_) sh.rank_step.assign(max_degree, 0);
  // Directed-edge ids follow the graph's CSR layout: the edge id of u→v is
  // row_offsets[u] + neighbor_rank(u, v).
  const auto offsets = g.row_offsets();
  edge_offsets_.assign(offsets.begin(), offsets.end());
  const std::size_t total_directed = edge_offsets_.empty() ? 0 : edge_offsets_.back();

  faults_ = cfg_.faults;
  if (faults_ != nullptr) {
    link_free_at_.assign(total_directed, 0);
    if (faults_->round_limit() != 0) {
      cfg_.max_rounds = std::min(cfg_.max_rounds, faults_->round_limit());
    }
    // The reliable overlay engages only when the plan can actually lose
    // messages; a lossless reliability=ack run takes the exact
    // reliability=none path (bitwise, by construction).
    if (faults_->reliability().active() &&
        (faults_->drops_active() || faults_->crashes_active())) {
      reliable_ = std::make_unique<ReliableOverlay>(g, faults_->rto());
    }
  }

  const support::Rng base(cfg_.seed);
  rngs_.reserve(n);
  for (NodeId v = 0; v < g.n(); ++v) rngs_.push_back(base.stream(v));
}

Network::~Network() = default;

template <class Visit>
void Network::expand_log(const ShardState& sh, NodeId lo, NodeId hi, Visit&& visit) const {
  const std::uint32_t* list = sh.ranks.data();
  for (const Message& m : sh.outbox) {
    if (m.to != kNoNode) {
      if (m.to >= lo && m.to < hi) visit(m, m.to, kNoEdge);
      continue;
    }
    // CSR rows are sorted, so the receivers in [lo, hi) are one run of
    // the (implicit or listed) ascending ranks.
    const auto nb = graph_->neighbors(m.from);
    const std::size_t edge0 = edge_offsets_[m.from];
    const std::uint32_t count = *list++;
    if (count == nb.size()) {
      std::size_t i = lo == 0 ? 0 : std::lower_bound(nb.begin(), nb.end(), lo) - nb.begin();
      for (; i < nb.size() && nb[i] < hi; ++i) visit(m, nb[i], edge0 + i);
    } else {
      const std::uint32_t* const end = list + count;
      const auto below = [&](std::uint32_t rank) { return nb[rank] < lo; };
      const std::uint32_t* r = lo == 0 ? list : std::partition_point(list, end, below);
      for (; r != end && nb[*r] < hi; ++r) visit(m, nb[*r], edge0 + *r);
      list = end;
    }
  }
}

void Network::throw_non_neighbor(NodeId from, NodeId to) const {
  throw CongestViolation("node " + std::to_string(from) + " sent to non-neighbor " +
                         std::to_string(to) + " in round " + std::to_string(round_));
}

void Network::throw_over_capacity(const ShardState& sh, NodeId from, NodeId to,
                                  const Message& msg) const {
  // All of this round's prior sends on (from → to), unicast or multicast,
  // live in the sender's own shard log, so the diagnostic is identical for
  // every shard count.
  std::string prior_tags;
  expand_log(sh, to, to + 1, [&](const Message& queued, NodeId, std::size_t) {
    if (queued.from == from) {
      prior_tags += ' ';
      prior_tags += std::to_string(queued.tag);
    }
  });
  throw CongestViolation("edge (" + std::to_string(from) + "→" + std::to_string(to) +
                         ") over capacity in round " + std::to_string(round_) +
                         ": CONGEST allows 1 message(s) per edge per round (new tag " +
                         std::to_string(msg.tag) +
                         ", queued tags:" + prior_tags + ")");
}

void Network::wake(NodeId v) {
  DHC_REQUIRE(v < graph_->n(), "wake: node out of range");
  wakeups_.push(round_, round_ + 1, v);
}

void Network::wake_all() {
  for (NodeId v = 0; v < graph_->n(); ++v) wakeups_.push(round_, round_ + 1, v);
}

void Network::mark_phase(const std::string& label) {
  metrics_.phase_marks.emplace_back(label, round_ + 1);
  if (cfg_.trace != nullptr) cfg_.trace->on_phase(label, round_ + 1);
}

void Network::set_barrier_cost(std::uint64_t rounds_per_barrier) {
  metrics_.barrier_cost_rounds = rounds_per_barrier;
}

void Network::enqueue_async(NodeId from, NodeId to, std::size_t edge_id, const Message& msg) {
  Frame frame{msg};
  frame.msg.from = from;
  frame.msg.to = to;
  frame.edge = static_cast<std::uint32_t>(edge_id);
  // Reliable overlay: stamp a fresh seq + piggyback ack and buffer the copy
  // *before* the drop decision — a first send lost in transit must still be
  // retransmittable.
  if (reliable_ != nullptr) reliable_->stamp_and_buffer(frame, round_);
  file_async(frame);
}

void Network::file_async(const Frame& frame) {
  // Each directed link serializes at one message per round: a message
  // departs at the later of "now" and the link's next free slot, so a
  // same-round burst (legal here — a node answering several delayed
  // arrivals at once) queues behind itself instead of tripping the
  // synchronous capacity check.  Departures per edge are strictly
  // increasing and the base delay is a pure function of the edge, so
  // arrivals stay in send order (FIFO) with or without queueing; a
  // sync-legal schedule never queues, keeping latency-1 runs bitwise
  // equal to the synchronous engine.
  const NodeId from = frame.msg.from;
  const NodeId to = frame.msg.to;
  std::uint64_t& free_at = link_free_at_[frame.edge];
  const std::uint64_t depart = std::max(round_, free_at);
  free_at = depart + 1;
  if (faults_->drop(from, to, round_)) {  // lost in transit; the slot is spent
    metrics_.dropped_messages += 1;
    return;
  }
  const std::uint64_t latency = (depart - round_) + faults_->delay(from, to);
  if (latency > 1) metrics_.delayed_messages += 1;
  deliveries_.push(round_, round_ + latency, frame);
}

void Network::service_transport() {
  // Retransmits and standalone acks the overlay owes this round, in
  // deterministic timer order, routed through the same link-FIFO/drop/delay
  // machinery as first sends (a retransmit can be dropped again — each round
  // is an independent drop hash, so it eventually gets through).  Transport
  // traffic counts in messages/bits (acks at header-only cost) but not in
  // the per-node send stats, which stay protocol-only.
  transport_batch_.clear();
  reliable_->collect_due(round_, *faults_, transport_batch_);
  for (const Frame& f : transport_batch_) {
    const Message& m = f.msg;
    if (f.seq != 0) {
      metrics_.retransmits += 1;
      metrics_.bits += message_bits_for(m.words, bits_per_word_);
    } else {
      metrics_.acks_sent += 1;
      metrics_.bits += message_bits_for(0, bits_per_word_);
    }
    metrics_.messages += 1;
    file_async(f);
  }
}

void Network::mature_async_messages() {
  // Overlay timers first: the retransmits/acks they file are sends *at* this
  // round (latency >= 1), so they never interact with this round's matured
  // arrivals below — the split is purely for a fixed service order.
  if (reliable_ != nullptr) service_transport();

  // The wheel hands out this round's frames in push order, which is the
  // global send order (RoundWheel::drain), so per-node arrival order stays
  // send order just like the synchronous scatter.
  std::vector<Message>& staged = shard_state_[0].outbox;  // emptied by the last merge
  const auto deliver_one = [&](const Message& m) {
    metrics_.node_messages_received[m.to] += 1;
    if (inbox_count_[m.to]++ == 0) next_active_.push_back(m.to);
    staged.push_back(m);
    ++parked_;
  };
  const bool overshot = deliveries_.drain(round_, [&](const Frame& f) {
    const Message& m = f.msg;
    if (faults_->crashed(m.to, round_)) {
      // Crashed receivers lose even overlay traffic — no ack forms, so the
      // sender's timer keeps the payload alive until after the rejoin.
      metrics_.crash_dropped_messages += 1;
      return;
    }
    if (reliable_ == nullptr) {
      deliver_one(m);
      return;
    }
    // Overlay arrival: process the piggybacked ack, then deliver / buffer /
    // suppress the payload.  Standalone acks and buffered/duplicate payloads
    // never reach the protocol (no activation, no received count); an
    // in-order payload releases any buffered successors with it, in seq
    // order.
    switch (reliable_->on_arrival(f, round_)) {
      case ReliableOverlay::Arrival::kAck:
        break;
      case ReliableOverlay::Arrival::kBuffer:
        break;
      case ReliableOverlay::Arrival::kDuplicate:
        metrics_.dup_suppressed += 1;
        break;
      case ReliableOverlay::Arrival::kDeliver:
        deliver_one(m);
        drain_batch_.clear();
        reliable_->drain_in_order(f, drain_batch_);
        for (const Frame& d : drain_batch_) deliver_one(d.msg);
        break;
    }
  });
  DHC_CHECK(!overshot, "far async delivery overshot its round");
}

void Network::filter_crashed_active() {
  // Serial pass over the freshly built active set: crashed nodes neither
  // step nor keep their wake-up activation (the wake-up was consumed from
  // the wheel; recovery is a silent rejoin, not a re-arm).  Mail-activated
  // nodes are never crashed here — their messages were already dropped at
  // maturation — so clearing inbox state is belt-and-braces only.
  std::size_t w = 0;
  for (const NodeId v : active_) {
    if (faults_->crashed(v, round_)) {
      has_mail_[v] = 0;
      inbox_len_[v] = 0;
      metrics_.crashed_steps += 1;
      continue;
    }
    active_[w++] = v;
  }
  active_.resize(w);
}

void Network::deliver_and_build_active_set() {
  // Async regime: stage every message whose latency elapses this round in
  // shard 0's log first; the synchronous mail walk below then treats them
  // exactly like last round's sends.
  if (faults_ != nullptr) mature_async_messages();

  // Mail first: walk the receivers in first-touch order, carve each node's
  // contiguous slice out of the inbox arena, and reset its pending count.
  active_.clear();
  std::uint32_t cum = 0;
  for (const NodeId v : next_active_) {
    has_mail_[v] = 1;
    active_.push_back(v);
    inbox_off_[v] = cum;
    inbox_cursor_[v] = cum;
    inbox_len_[v] = inbox_count_[v];
    cum += inbox_count_[v];
    inbox_count_[v] = 0;
  }
  next_active_.clear();

  // Wake-ups for this round.
  wakeups_.drain(round_, [&](NodeId v) {
    if (has_mail_[v] == 0) {
      has_mail_[v] = 1;
      active_.push_back(v);
    }
  });
  // Steps must run in ascending node order (protocol RNG draws, send order,
  // and the contiguity of shard slices all depend on it).  For dense rounds
  // — flood phases activate nearly every node — rebuilding the set from the
  // has_mail_ bitmap is linear and branch-predictable; the ascending scan is
  // sorted by construction, so no sort runs on this path (asserted in debug
  // builds).  Sparse rounds sort the activation-ordered list directly.
  if (active_.size() >= graph_->n() / 8) {
    active_.clear();
    const NodeId n = graph_->n();
    for (NodeId v = 0; v < n; ++v) {
      if (has_mail_[v] != 0) active_.push_back(v);
    }
#ifndef NDEBUG
    DHC_CHECK(std::is_sorted(active_.begin(), active_.end()),
              "dense active-set rebuild must be id-sorted by construction");
#endif
  } else {
    std::sort(active_.begin(), active_.end());
  }

  if (faults_ != nullptr && faults_->crashes_active()) filter_crashed_active();

  // Stable scatter: the shard logs in shard order are the global send order
  // (DESIGN.md §5), which becomes per-node arrival order.  Each receiver's
  // slot gets a reference to the log record — one pointer per receiver, not
  // a copy.  After a sharded round the pool scatters too: lane i owns the
  // receivers in [n·i/s, n·(i+1)/s) and walks every log in that same order,
  // so each inbox is written by one lane, in global send order.
  inbox_live_ = parked_;
  if (inbox_arena_.size() < parked_) inbox_arena_.resize(parked_);
  if (parked_ != 0) {
    const auto scatter = [&](NodeId lo, NodeId hi) {
      for (const ShardState& sh : shard_state_) {
        expand_log(sh, lo, hi, [&](const Message& m, NodeId to, std::size_t) {
          inbox_arena_[inbox_cursor_[to]++] = &m;
        });
      }
    };
    const NodeId n = graph_->n();
    if (last_round_sharded_) {
      const std::size_t s = shards_;
      pool_->run(s, [&](std::size_t lane) {
        scatter(static_cast<NodeId>(std::uint64_t{n} * lane / s),
                static_cast<NodeId>(std::uint64_t{n} * (lane + 1) / s));
      });
    } else {
      scatter(0, n);
    }
    // The swap moves each log's buffer, not its records, so the references
    // stay valid while this round's steps append to the emptied outbox.
    for (ShardState& sh : shard_state_) {
      sh.outbox.swap(sh.delivered);
      sh.outbox.clear();
      sh.ranks.clear();
    }
    parked_ = 0;
  }
}

void Network::sample_arenas() {
  // Logical in-flight messages at the round epilogue: sends parked for next
  // round, this round's delivered inboxes, and everything in the async
  // delivery wheel, at sizeof(Message) each (a frame's overlay header is not
  // counted).  Logical counts only — vector capacities differ across shard
  // counts, these numbers never do.
  const std::uint64_t in_flight =
      static_cast<std::uint64_t>(parked_) + inbox_live_ + deliveries_.size();
  const std::uint64_t bytes = in_flight * sizeof(Message);
  if (bytes > metrics_.arena_bytes_peak) metrics_.arena_bytes_peak = bytes;
}

void Network::step_active_set(Protocol& protocol) {
  // A pool dispatch costs a wake-up and a barrier; rounds too small to
  // amortize it step on the calling thread into shard 0.  The gate depends
  // only on deterministic state — active-set size and shard knobs — and both
  // ways fill the logs in the same global send order, so the choice is
  // invisible in every result.
  last_round_sharded_ = shards_ > 1 &&
                        active_.size() >= static_cast<std::size_t>(shards_) * shard_grain_;
  if (last_round_sharded_) {
    step_sharded(protocol);
  } else {
    for (const NodeId v : active_) {
      Context ctx(*this, v, shard_state_[0]);
      protocol.step(ctx);
    }
  }
  merge_shard_logs();
}

void Network::step_sharded(Protocol& protocol) {
  if (pool_ == nullptr) {
    // The shard *partition* is fixed by shards_; the pool merely executes
    // it, so worker count is capped by the hardware without affecting
    // results (a 1-lane pool steps the shards back to back, in order).
    pool_ = std::make_unique<support::WorkerPool>(
        std::min<unsigned>(shards_, support::WorkerPool::hardware_lanes()));
  }
  const std::size_t count = active_.size();
  const std::size_t s = shards_;
  // Per-shard step timing for the flight recorder; the clocks run only when
  // a sink is attached so untraced runs keep the exact pre-trace hot path.
  const bool profile = cfg_.trace != nullptr;
  if (profile && trace_shard_wall_ns_.size() != s) {
    trace_shard_wall_ns_.assign(s, 0);
    trace_shard_active_.assign(s, 0);
  }
  pool_->run(s, [&](std::size_t shard_index) {
    ShardState& sh = shard_state_[shard_index];
    const std::size_t begin = count * shard_index / s;
    const std::size_t end = count * (shard_index + 1) / s;
    const auto t0 = profile ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
    for (std::size_t i = begin; i < end; ++i) {
      Context ctx(*this, active_[i], sh);
      protocol.step(ctx);
    }
    if (profile) {
      trace_shard_wall_ns_[shard_index] = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      trace_shard_active_[shard_index] = static_cast<std::uint32_t>(end - begin);
    }
  });
}

void Network::merge_shard_logs() {
  // Serial replay of the receiver-side bookkeeping, in shard order.  Shards
  // are contiguous slices of the id-sorted active set and each shard's log
  // is in its own send order, so this loop walks the messages in exactly
  // the global send order: next_active_ first-touch order, wheel bucket
  // contents, and the observer event stream are the same for every shard
  // count.  Synchronous sends stay parked in the shard logs; the next
  // delivery scatters them in this same order.
  for (ShardState& sh : shard_state_) {
    metrics_.messages += sh.messages;
    metrics_.bits += sh.bits;
    sh.messages = 0;
    sh.bits = 0;
    if (cfg_.observer != nullptr && !sh.events.empty()) {
      cfg_.observer->on_events({sh.events.data(), sh.events.size()});
      sh.events.clear();
    }
    if (faults_ != nullptr) {
      // Async regime: replay each send through the fault plan in the global
      // send order.  Every drop/delay decision is a pure hash of the edge
      // and round, so the decisions are the same for every shard count.
      expand_log(sh, 0, graph_->n(), [&](const Message& m, NodeId to, std::size_t edge_id) {
        if (edge_id == kNoEdge) edge_id = edge_offsets_[m.from] + graph_->neighbor_rank(m.from, to);
        enqueue_async(m.from, to, edge_id, m);
      });
      sh.outbox.clear();
      sh.ranks.clear();
    } else {
      expand_log(sh, 0, graph_->n(), [&](const Message&, NodeId to, std::size_t) {
        metrics_.node_messages_received[to] += 1;
        if (inbox_count_[to]++ == 0) next_active_.push_back(to);
        ++parked_;
      });
    }
    for (const auto& [delay, v] : sh.wakeups) wakeups_.push(round_, round_ + delay, v);
    sh.wakeups.clear();
  }
}

Network::TraceCounters Network::trace_counters() const {
  return {metrics_.messages,          metrics_.bits,         metrics_.delayed_messages,
          metrics_.dropped_messages,  metrics_.crash_dropped_messages,
          metrics_.crashed_steps,     metrics_.retransmits,  metrics_.dup_suppressed,
          metrics_.acks_sent};
}

void Network::emit_round_trace(const TraceCounters& before, std::uint64_t wakeups,
                               std::uint64_t wall_ns) {
  RoundTrace rt;
  rt.round = round_;
  rt.active = active_.size();
  rt.sent = metrics_.messages - before.messages;
  rt.bits = metrics_.bits - before.bits;
  rt.wakeups = wakeups;
  rt.wall_ns = wall_ns;
  rt.sharded = last_round_sharded_;
  if (last_round_sharded_ && trace_shard_wall_ns_.size() == shards_) {
    rt.shard_wall_ns = {trace_shard_wall_ns_.data(), trace_shard_wall_ns_.size()};
    rt.shard_active = {trace_shard_active_.data(), trace_shard_active_.size()};
  }
  cfg_.trace->on_round(rt);
  if (faults_ == nullptr) return;
  FaultTrace ft;
  ft.round = round_;
  ft.delayed = metrics_.delayed_messages - before.delayed;
  ft.dropped = metrics_.dropped_messages - before.dropped;
  ft.crash_dropped = metrics_.crash_dropped_messages - before.crash_dropped;
  ft.crashed_steps = metrics_.crashed_steps - before.crashed_steps;
  if (ft.delayed + ft.dropped + ft.crash_dropped + ft.crashed_steps > 0) {
    cfg_.trace->on_faults(ft);
  }
  if (reliable_ == nullptr) return;
  RetransTrace rt2;
  rt2.round = round_;
  rt2.retransmits = metrics_.retransmits - before.retransmits;
  rt2.dup_suppressed = metrics_.dup_suppressed - before.dup_suppressed;
  rt2.acks_sent = metrics_.acks_sent - before.acks_sent;
  if (rt2.retransmits + rt2.dup_suppressed + rt2.acks_sent > 0) {
    cfg_.trace->on_retrans(rt2);
  }
}

Metrics Network::run(Protocol& protocol) {
  const std::size_t n = graph_->n();
  metrics_ = Metrics{};
  metrics_.node_messages_sent.assign(n, 0);
  metrics_.node_messages_received.assign(n, 0);
  metrics_.node_memory_words.assign(n, 0);
  metrics_.node_peak_memory_words.assign(n, 0);
  metrics_.node_compute_ops.assign(n, 0);
  round_ = 0;
  const bool tracing = cfg_.trace != nullptr;

  for (NodeId v = 0; v < graph_->n(); ++v) {
    Context ctx(*this, v, shard_state_[0]);
    protocol.begin(ctx);
  }
  merge_shard_logs();

  bool rejoins_counted = false;
  while (true) {
    const bool transport_pending = reliable_ != nullptr && reliable_->any_pending();
    if (parked_ == 0 && wakeups_.empty() && deliveries_.empty() && !transport_pending) {
      if (!protocol.on_quiescence(*this)) break;
      metrics_.barrier_count += 1;
      if (tracing) cfg_.trace->on_barrier(round_, metrics_.barrier_cost_rounds);
      DHC_CHECK(!wakeups_.empty(),
                "protocol continued past quiescence without waking any node (would spin forever)");
      continue;
    }

    // Advance to the next round with activity (idle gaps still count).  The
    // async regime jumps to the earliest event of any kind — a pending
    // delivery, a live overlay timer or an armed wake-up — so no wheel
    // bucket holding a live item is ever skipped past; the synchronous
    // regime keeps the classic rule.
    if (faults_ != nullptr) {
      std::uint64_t next = std::min(deliveries_.next_round(round_), wakeups_.next_round(round_));
      if (reliable_ != nullptr) next = std::min(next, reliable_->next_event_round(round_));
      DHC_CHECK(next != RoundWheel<Frame>::kNever,
                "async advance with neither deliveries, transport timers, nor wake-ups pending");
      round_ = next;
    } else if (parked_ == 0) {
      round_ = wakeups_.next_round(round_);
      DHC_CHECK(round_ != RoundWheel<NodeId>::kNever, "round advance with no wake-up armed");
    } else {
      round_ += 1;
    }
    if (round_ > cfg_.max_rounds) {
      metrics_.hit_round_limit = true;
      // Stalled vs live: a run still moving traffic (sends queued, matured or
      // pending deliveries, armed retransmit/ack timers) hit the limit mid
      // flight — e.g. turau's delay livelock; one with only wake-up polling
      // left is the drop-stall signature (nothing will ever arrive again).
      metrics_.round_limit_live = parked_ != 0 || !deliveries_.empty() ||
                                  (reliable_ != nullptr && reliable_->any_pending());
      break;
    }
    if (faults_ != nullptr && !rejoins_counted && faults_->crashes_active() &&
        round_ >= faults_->crash_rejoin_round()) {
      // First executed round past the crash window: the crashed nodes are
      // back, silently, with whatever state they crashed with (DESIGN.md
      // §8).  Count them once and mark the round so the masked failure mode
      // is visible in artifacts and traces.
      rejoins_counted = true;
      metrics_.crashed_rejoins = faults_->crashed_node_count(graph_->n());
      if (tracing && metrics_.crashed_rejoins != 0) {
        cfg_.trace->on_rejoin(round_, metrics_.crashed_rejoins);
      }
    }

    // Tracing only brackets the round: counter snapshots for the record's
    // deltas, and a wall clock that runs only on this traced path.
    TraceCounters before{};
    std::chrono::steady_clock::time_point t0{};
    if (tracing) {
      before = trace_counters();
      t0 = std::chrono::steady_clock::now();
    }
    deliver_and_build_active_set();
    const std::uint64_t wake0 = wakeups_.size();
    step_active_set(protocol);
    if (tracing) {
      const auto wall_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      const std::uint64_t wake1 = wakeups_.size();
      emit_round_trace(before, wake1 > wake0 ? wake1 - wake0 : 0, wall_ns);
    }

    sample_arenas();

    for (const NodeId v : active_) {
      inbox_len_[v] = 0;
      has_mail_[v] = 0;
    }
  }

  metrics_.rounds = round_;
  return metrics_;
}

}  // namespace dhc::congest
