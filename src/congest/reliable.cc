#include "congest/reliable.h"

#include <algorithm>
#include <stdexcept>

#include "congest/fault_plan.h"
#include "support/cli.h"

namespace dhc::congest {

namespace {

// Keeps the backoff arithmetic (cur * mult, capped at max) far from overflow.
constexpr std::uint64_t kMaxTimeout = 1'000'000'000;

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
  next_seq_.assign(total, 1);
  acked_to_.assign(total, 0);
  send_buf_.assign(total, {});
  retrans_due_.assign(total, 0);
  cur_rto_.assign(total, rto_.initial);
  recv_next_.assign(total, 1);
  recv_buf_.assign(total, {});
  ack_due_.assign(total, 0);
}

void ReliableOverlay::stamp_and_buffer(std::size_t edge, Frame& frame, std::uint64_t now) {
  const std::size_t rev = reverse_edge_[edge];
  frame.seq = next_seq_[edge]++;
  frame.ack = recv_next_[rev] - 1;
  if (ack_due_[rev] != 0) {
    // This send piggybacks the ack owed for the reverse direction.
    ack_due_[rev] = 0;
    --live_timers_;
  }
  send_buf_[edge].push_back(frame);
  if (retrans_due_[edge] == 0) {
    cur_rto_[edge] = rto_.initial;
    retrans_due_[edge] = now + rto_.initial;
    timers_.push(now, retrans_due_[edge],
                 {static_cast<std::uint32_t>(edge), TimerKind::kRetransmit});
    ++live_timers_;
  }
}

void ReliableOverlay::process_ack(std::size_t edge, std::uint32_t ack, std::uint64_t now) {
  if (ack <= acked_to_[edge]) return;
  acked_to_[edge] = ack;
  auto& buf = send_buf_[edge];
  std::size_t k = 0;
  while (k < buf.size() && buf[k].seq <= ack) ++k;
  if (k != 0) buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(k));
  if (retrans_due_[edge] == 0) return;
  if (buf.empty()) {
    retrans_due_[edge] = 0;
    --live_timers_;
    cur_rto_[edge] = rto_.initial;
  } else {
    // Ack progress restarts the timer (fresh timeout) for the new oldest
    // unacked message; the old wheel entry goes stale.
    cur_rto_[edge] = rto_.initial;
    retrans_due_[edge] = now + rto_.initial;
    timers_.push(now, retrans_due_[edge],
                 {static_cast<std::uint32_t>(edge), TimerKind::kRetransmit});
  }
}

void ReliableOverlay::schedule_ack(std::size_t edge, std::uint64_t now) {
  if (ack_due_[edge] != 0) return;
  ack_due_[edge] = now + 1;
  timers_.push(now, now + 1, {static_cast<std::uint32_t>(edge), TimerKind::kAck});
  ++live_timers_;
}

ReliableOverlay::Arrival ReliableOverlay::on_arrival(std::size_t edge, const Frame& frame,
                                                     std::uint64_t now) {
  process_ack(reverse_edge_[edge], frame.ack, now);
  if (frame.seq == 0) return Arrival::kAck;
  schedule_ack(edge, now);
  const std::uint32_t seq = frame.seq;
  if (seq < recv_next_[edge]) return Arrival::kDuplicate;
  if (seq == recv_next_[edge]) {
    recv_next_[edge] += 1;
    return Arrival::kDeliver;
  }
  // Ahead of order: insert by seq (links are FIFO, so arrivals are already
  // near-sorted and this scans at most a few tail slots).
  auto& buf = recv_buf_[edge];
  std::size_t pos = buf.size();
  while (pos > 0 && buf[pos - 1].seq >= seq) {
    if (buf[pos - 1].seq == seq) return Arrival::kDuplicate;
    --pos;
  }
  buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(pos), frame);
  return Arrival::kBuffer;
}

void ReliableOverlay::drain_in_order(std::size_t edge, std::vector<Frame>& out) {
  auto& buf = recv_buf_[edge];
  std::size_t k = 0;
  while (k < buf.size() && buf[k].seq == recv_next_[edge]) {
    out.push_back(buf[k]);
    recv_next_[edge] += 1;
    ++k;
  }
  if (k != 0) buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(k));
}

void ReliableOverlay::fire_entry(const TimerEntry& t, std::uint64_t now, const FaultPlan& faults,
                                 std::vector<Frame>& out) {
  const std::size_t e = t.edge;
  if (t.kind == TimerKind::kRetransmit) {
    if (retrans_due_[e] != now) return;  // stale hint
    auto& buf = send_buf_[e];
    if (buf.empty()) {
      retrans_due_[e] = 0;
      --live_timers_;
      return;
    }
    if (faults.crashed(edge_tail_[e], now)) {
      // A crashed sender can't act; the buffer survives and the timer
      // re-arms at the same timeout (the crash, not congestion, is the
      // cause) so retransmission resumes after the rejoin.
      retrans_due_[e] = now + cur_rto_[e];
      timers_.push(now, retrans_due_[e], {t.edge, TimerKind::kRetransmit});
      return;
    }
    // Go-back-N: re-send every unacked message with a refreshed piggyback
    // ack (which also covers any standalone ack owed on the reverse link).
    const std::size_t rev = reverse_edge_[e];
    const std::uint32_t piggy = recv_next_[rev] - 1;
    if (ack_due_[rev] != 0) {
      ack_due_[rev] = 0;
      --live_timers_;
    }
    for (const Frame& f : buf) out.emplace_back(f).ack = piggy;
    cur_rto_[e] = std::min(cur_rto_[e] * rto_.mult, rto_.max);
    retrans_due_[e] = now + cur_rto_[e];
    timers_.push(now, retrans_due_[e], {t.edge, TimerKind::kRetransmit});
  } else {
    if (ack_due_[e] != now) return;  // stale hint
    const std::size_t rev = reverse_edge_[e];
    if (faults.crashed(edge_tail_[rev], now)) {
      // The ack is owed by e's head, which is crashed; retry next round.
      ack_due_[e] = now + 1;
      timers_.push(now, ack_due_[e], {t.edge, TimerKind::kAck});
      return;
    }
    Frame& ack = out.emplace_back();  // standalone ack: seq 0, no payload
    ack.msg.from = edge_tail_[rev];
    ack.msg.to = edge_tail_[e];
    ack.ack = recv_next_[e] - 1;
    ack_due_[e] = 0;
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
    return t.kind == TimerKind::kRetransmit ? retrans_due_[t.edge] == fire
                                            : ack_due_[t.edge] == fire;
  });
}

}  // namespace dhc::congest
