#include "congest/reliable.h"

#include <algorithm>
#include <stdexcept>

#include "congest/fault_plan.h"
#include "support/cli.h"

namespace dhc::congest {

namespace {

// Keeps the backoff arithmetic (cur * mult, capped at max) far from overflow,
// and every timeout within Endpoint::cur_rto's 31 bits.
constexpr std::uint64_t kMaxTimeout = 1'000'000'000;
static_assert(kMaxTimeout < (std::uint64_t{1} << 31));

// The window ring's first size; it doubles whenever a send would overfill it.
constexpr std::size_t kMinWindow = 4;

}  // namespace

RtoSpec RtoSpec::parse(const std::string& spec) {
  const std::string what = "rto spec '" + spec + "'";
  const std::vector<std::string> parts = support::split_list(what, spec, ':');
  const std::size_t i = parts[0] == "rto" ? 1 : 0;
  const std::size_t count = parts.size() - i;
  if (count == 0 || count > 3) {
    throw std::invalid_argument(what + " (expected rto:K[:MULT[:MAX]])");
  }
  const auto field = [&](std::size_t k, const char* name) {
    return support::parse_integer<std::uint64_t>(what + " " + name, parts[i + k]);
  };
  RtoSpec r;
  r.initial = field(0, "timeout");
  r.mult = count >= 2 ? field(1, "multiplier") : 2;
  // Omitted cap: the default 16, lifted so it never undercuts the timeout.
  r.max = count >= 3 ? field(2, "cap") : std::max<std::uint64_t>(16, r.initial);
  if (r.initial < 1 || r.initial > kMaxTimeout) {
    throw std::invalid_argument("rto spec '" + spec + "': timeout must be in [1, 1e9]");
  }
  if (r.mult < 1) {
    throw std::invalid_argument("rto spec '" + spec + "': multiplier must be >= 1");
  }
  if (r.max < r.initial || r.max > kMaxTimeout) {
    throw std::invalid_argument("rto spec '" + spec + "': cap must be in [timeout, 1e9]");
  }
  return r;
}

std::string RtoSpec::to_string() const {
  return "rto:" + std::to_string(initial) + ":" + std::to_string(mult) + ":" +
         std::to_string(max);
}

ReliabilitySpec ReliabilitySpec::parse(const std::string& spec) {
  ReliabilitySpec r;
  if (spec == "none") {
    r.kind = Kind::kNone;
  } else if (spec == "ack") {
    r.kind = Kind::kAck;
  } else {
    throw std::invalid_argument("reliability spec '" + spec + "' (expected none|ack)");
  }
  return r;
}

std::string ReliabilitySpec::to_string() const {
  return kind == Kind::kAck ? "ack" : "none";
}

ReliableOverlay::ReliableOverlay(const graph::Graph& g, RtoSpec rto) : rto_(rto) {
  const auto offsets = g.row_offsets();
  const std::size_t total = offsets.empty() ? 0 : static_cast<std::size_t>(offsets.back());
  reverse_edge_.resize(total);
  edge_tail_.resize(total);
  for (NodeId u = 0; u < g.n(); ++u) {
    const auto nb = g.neighbors(u);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const std::size_t e = offsets[u] + i;
      const NodeId v = nb[i];
      edge_tail_[e] = u;
      reverse_edge_[e] = static_cast<std::uint32_t>(offsets[v] + g.neighbor_rank(v, u));
    }
  }
  Endpoint fresh;
  fresh.cur_rto = static_cast<std::uint32_t>(rto_.initial);
  endpoints_.assign(total, fresh);
  window_.resize(total);
  held_.resize(total);
}

void ReliableOverlay::stamp_and_buffer(Frame& frame, std::uint64_t now) {
  const std::uint32_t e = frame.edge;
  Endpoint& ep = endpoints_[e];
  frame.seq = ep.next_seq++;
  frame.ack = ep.recv_next - 1;
  if (ep.ack_due != 0) {
    // This send piggybacks the ack owed for the reverse direction.
    ep.ack_due = 0;
    --live_timers_;
  }
  std::vector<Message>& ring = window_[e];
  if (frame.seq - ep.acked_to > ring.size()) {
    // Full: move the unacked seqs into a ring twice the size.
    std::vector<Message> bigger(ring.empty() ? kMinWindow : 2 * ring.size());
    for (std::uint32_t s = ep.acked_to + 1; s != frame.seq; ++s) {
      bigger[s & (bigger.size() - 1)] = ring[s & (ring.size() - 1)];
    }
    ring.swap(bigger);
  }
  ring[frame.seq & (ring.size() - 1)] = frame.msg;
  if (ep.retrans_due == 0) {
    ep.cur_rto = static_cast<std::uint32_t>(rto_.initial);
    ep.retrans_due = now + rto_.initial;
    timers_.push(now, ep.retrans_due, {e, TimerKind::kRetransmit});
    ++live_timers_;
  }
}

void ReliableOverlay::process_ack(std::uint32_t e, std::uint32_t ack, std::uint64_t now) {
  Endpoint& ep = endpoints_[e];
  if (ack <= ep.acked_to) return;
  ep.acked_to = ack;  // drops every seq <= ack from the window
  if (ep.retrans_due == 0) return;
  ep.cur_rto = static_cast<std::uint32_t>(rto_.initial);
  if (ep.acked_to + 1 == ep.next_seq) {
    ep.retrans_due = 0;
    --live_timers_;
  } else {
    // Ack progress restarts the timer (fresh timeout) for the new oldest
    // unacked message; the old wheel entry goes stale.
    ep.retrans_due = now + rto_.initial;
    timers_.push(now, ep.retrans_due, {e, TimerKind::kRetransmit});
  }
}

void ReliableOverlay::schedule_ack(std::uint32_t e, std::uint64_t now) {
  Endpoint& ep = endpoints_[e];
  if (ep.ack_due != 0) return;
  ep.ack_due = now + 1;
  timers_.push(now, now + 1, {e, TimerKind::kAck});
  ++live_timers_;
}

ReliableOverlay::Arrival ReliableOverlay::on_arrival(const Frame& frame, std::uint64_t now) {
  // The receiver's endpoint: its sending state takes the piggybacked ack,
  // its receiving state the payload.
  const std::uint32_t e = reverse_edge_[frame.edge];
  process_ack(e, frame.ack, now);
  if (frame.seq == 0) return Arrival::kAck;
  schedule_ack(e, now);
  Endpoint& ep = endpoints_[e];
  const std::uint32_t seq = frame.seq;
  if (seq < ep.recv_next) return Arrival::kDuplicate;
  if (seq == ep.recv_next) {
    ep.recv_next += 1;
    return Arrival::kDeliver;
  }
  // Ahead of order: insert by seq (links are FIFO, so arrivals are already
  // near-sorted and this scans at most a few tail slots).
  auto& buf = held_[e];
  std::size_t pos = buf.size();
  while (pos > 0 && buf[pos - 1].seq >= seq) {
    if (buf[pos - 1].seq == seq) return Arrival::kDuplicate;
    --pos;
  }
  buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(pos), frame);
  ep.holding = 1;
  return Arrival::kBuffer;
}

void ReliableOverlay::drain_in_order(const Frame& frame, std::vector<Frame>& out) {
  const std::uint32_t e = reverse_edge_[frame.edge];
  Endpoint& ep = endpoints_[e];
  if (ep.holding == 0) return;
  auto& buf = held_[e];
  std::size_t k = 0;
  while (k < buf.size() && buf[k].seq == ep.recv_next) {
    out.push_back(buf[k]);
    ep.recv_next += 1;
    ++k;
  }
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(k));
  ep.holding = buf.empty() ? 0 : 1;
}

void ReliableOverlay::fire_entry(const TimerEntry& t, std::uint64_t now, const FaultPlan& faults,
                                 std::vector<Frame>& out) {
  const std::uint32_t e = t.endpoint;
  Endpoint& ep = endpoints_[e];
  if (t.kind == TimerKind::kRetransmit) {
    if (ep.retrans_due != now) return;  // stale hint
    if (ep.acked_to + 1 == ep.next_seq) {
      ep.retrans_due = 0;
      --live_timers_;
      return;
    }
    if (faults.crashed(edge_tail_[e], now)) {
      // A crashed sender can't act; the window survives and the timer
      // re-arms at the same timeout (the crash, not congestion, is the
      // cause) so retransmission resumes after the rejoin.
      ep.retrans_due = now + ep.cur_rto;
      timers_.push(now, ep.retrans_due, t);
      return;
    }
    // Go-back-N: re-send every unacked message with a refreshed piggyback
    // ack (which also covers any standalone ack owed on the reverse link).
    const std::uint32_t piggy = ep.recv_next - 1;
    if (ep.ack_due != 0) {
      ep.ack_due = 0;
      --live_timers_;
    }
    const std::vector<Message>& ring = window_[e];
    for (std::uint32_t s = ep.acked_to + 1; s != ep.next_seq; ++s) {
      out.push_back({ring[s & (ring.size() - 1)], s, piggy, e});
    }
    ep.cur_rto = static_cast<std::uint32_t>(std::min(ep.cur_rto * rto_.mult, rto_.max));
    ep.retrans_due = now + ep.cur_rto;
    timers_.push(now, ep.retrans_due, t);
  } else {
    if (ep.ack_due != now) return;  // stale hint
    if (faults.crashed(edge_tail_[e], now)) {
      // The ack is owed by e's tail, which is crashed; retry next round.
      ep.ack_due = now + 1;
      timers_.push(now, ep.ack_due, t);
      return;
    }
    // Standalone ack on e itself: seq 0, no payload.
    Frame& ack = out.emplace_back();
    ack.msg.from = edge_tail_[e];
    ack.msg.to = edge_tail_[reverse_edge_[e]];
    ack.ack = ep.recv_next - 1;
    ack.edge = e;
    ep.ack_due = 0;
    --live_timers_;
  }
}

void ReliableOverlay::collect_due(std::uint64_t now, const FaultPlan& faults,
                                  std::vector<Frame>& out) {
  // Far entries first (they were armed earliest), then this round's bucket
  // in push order — a fixed, deterministic service order.  Far keys the
  // event-driven advance jumped past hold only stale hints (a live timer's
  // round is always visited), so drain's overshoot report is moot here;
  // fire_entry's due check discards them.  Re-arms file at rounds > now,
  // never into the bucket being drained.
  timers_.drain(now, [&](const TimerEntry& t) { fire_entry(t, now, faults, out); });
}

std::uint64_t ReliableOverlay::next_event_round(std::uint64_t now) const {
  if (live_timers_ == 0) return RoundWheel<TimerEntry>::kNever;
  return timers_.next_round(now, [&](const TimerEntry& t, std::uint64_t fire) {
    const Endpoint& ep = endpoints_[t.endpoint];
    return (t.kind == TimerKind::kRetransmit ? ep.retrans_due : ep.ack_due) == fire;
  });
}

}  // namespace dhc::congest
