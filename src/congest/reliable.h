// Reliable-delivery overlay for the async execution model.
//
// PR 7's first finding was that a 2% per-message drop rate stalls every
// solver to hit_round_limit, because no protocol in the paper re-sends (the
// CONGEST model assumes reliable links).  This overlay restores that
// assumption *under* a lossy FaultPlan, as a transport layer inside the
// Network rather than a patch to five solvers (DESIGN.md §9):
//
//   - every directed link carries a sequence number per payload message and
//     a cumulative ack (highest contiguously delivered seq) piggybacked on
//     whatever traffic flows the other way;
//   - a receiver that got payload but has nothing to send back emits a
//     standalone ack message (header-only) one round later;
//   - the sender buffers unacked messages and retransmits them all
//     (go-back-N) when a deterministic per-link timer fires, with
//     exponential backoff (RtoSpec: initial timeout, multiplier, cap);
//   - the receiver delivers in order exactly once: stale seqs are counted as
//     duplicates and re-acked, ahead-of-order seqs are buffered.
//
// Layout: one 32-byte Endpoint per directed edge e = u→v, owned by u.  It
// holds the sending state of e and the receiving state of reverse(e), which
// is everything u keeps about its link to v, so every overlay event touches
// exactly one endpoint: a send stamped on e and a retransmit of e use E[e],
// an arrival on e uses E[reverse(e)], and an ack timer is keyed by the
// endpoint that owes the ack.  The unacked window is always the seqs
// acked_to+1 .. next_seq-1, kept in a power-of-two ring indexed by seq, so
// an ack only moves acked_to.  Ahead-of-order arrivals wait in a sorted
// per-endpoint vector that an in-order delivery never touches (a flag in
// the endpoint says whether it holds anything).
//
// Determinism: the overlay consumes no RNG stream — all state transitions
// are pure functions of the (deterministic) send/arrival/timer schedule, and
// retransmitted messages flow through the same FaultPlan hash decisions as
// first sends.  All overlay bookkeeping runs on the serial paths of the
// engine (enqueue_async / maturation / timer service), which the shard merge
// already replays in global send order, so runs stay bitwise identical at
// any shard count.  Because the fault seed and the drop/delay hashes are
// untouched, reliability=ack runs remain paired (common random numbers)
// with their reliability=none controls on the same axes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "congest/message.h"
#include "congest/round_wheel.h"
#include "graph/graph.h"

namespace dhc::congest {

class FaultPlan;  // congest/fault_plan.h — answers the crash test at fire time

/// Retransmit-timer parameters.  Spec strings use ':' separators so they
/// survive comma-separated scenario axis lists:
///   "rto:K"            retransmit after K rounds without ack progress
///   "rto:K:MULT"       timeout multiplies by MULT per consecutive fire
///   "rto:K:MULT:MAX"   backoff capped at MAX rounds
/// The "rto:" prefix is optional ("4:2:16" parses the same).  K must cover a
/// link round trip (data latency + 1 round ack delay + ack latency) or every
/// message is retransmitted spuriously; at unit delays the round trip is 3,
/// so the default 4 is the tightest spurious-free timeout.  Tight matters:
/// the paper's solvers calibrate settle timers for unit latency, and a large
/// RTO turns every drop into cross-link skew they cannot absorb (DESIGN.md
/// §9 measures the tolerance cliff).
struct RtoSpec {
  std::uint64_t initial = 4;
  std::uint64_t mult = 2;
  std::uint64_t max = 16;

  /// Parses a spec string; throws std::invalid_argument on malformed input.
  static RtoSpec parse(const std::string& spec);
  std::string to_string() const;
};

/// Reliability mode for the async backend:
///   "none"  messages lost to drops stay lost (PR 7 behavior)
///   "ack"   the seq/ack/retransmit overlay above
struct ReliabilitySpec {
  enum class Kind : std::uint8_t { kNone, kAck };

  Kind kind = Kind::kNone;

  /// Parses a spec string; throws std::invalid_argument on malformed input.
  static ReliabilitySpec parse(const std::string& spec);
  std::string to_string() const;

  bool active() const { return kind == Kind::kAck; }
};

/// Per-link reliable-channel state machine.  Owned by the Network and driven
/// from its serial paths only; the Network remains responsible for routing
/// the messages this class produces through the FaultPlan (drops, delays,
/// link FIFO) and for all Metrics accounting.  Frames carry their directed
/// edge (Frame::edge), which is how the overlay finds a link's state.
class ReliableOverlay {
 public:
  ReliableOverlay(const graph::Graph& g, RtoSpec rto);

  /// Receiver-side classification of one matured message.
  enum class Arrival : std::uint8_t {
    kDeliver,    ///< next in-order payload: deliver, then drain_in_order()
    kBuffer,     ///< ahead of order: held until the gap fills
    kDuplicate,  ///< already delivered (or already buffered): suppress
    kAck,        ///< standalone ack: transport-only, nothing to deliver
  };

  /// Sender path, called for every protocol send (frame.msg.from/to and
  /// frame.edge already set).  Stamps a fresh sequence number and the
  /// piggybacked cumulative ack for the reverse direction, keeps a
  /// retransmit copy, and arms the link's timer if idle.
  void stamp_and_buffer(Frame& frame, std::uint64_t now);

  /// Receiver path, called for every matured arrival.  Processes the
  /// piggybacked ack against the reverse link, schedules the ack owed for
  /// payload, and classifies the payload.
  Arrival on_arrival(const Frame& frame, std::uint64_t now);

  /// After a kDeliver of `frame`: appends the held messages that became
  /// in-order, in sequence order, and advances the receive cursor past them.
  void drain_in_order(const Frame& frame, std::vector<Frame>& out);

  /// Fires every timer due at `now`, appending the frames the transport
  /// owes the network — retransmit copies (seq > 0, refreshed ack) and
  /// standalone acks (seq == 0) — in deterministic timer order.
  /// Timers owned by an endpoint `faults` has crashed at `now` defer instead
  /// of firing (the work survives the crash window; see DESIGN.md §9).
  void collect_due(std::uint64_t now, const FaultPlan& faults, std::vector<Frame>& out);

  /// True while any link still owes traffic (unacked payload or a pending
  /// standalone ack) — the overlay's contribution to the quiescence check.
  bool any_pending() const { return live_timers_ != 0; }

  /// Earliest round > `now` holding a live timer (UINT64_MAX when none);
  /// folded into the engine's event-driven round advance.
  std::uint64_t next_event_round(std::uint64_t now) const;

 private:
  /// Endpoint e = u→v, owned by u.  Sending state of e: the unacked seqs
  /// are acked_to+1 .. next_seq-1; retrans_due == 0 means the timer is
  /// disarmed (timers always fire at rounds >= 1).  Receiving state of
  /// reverse(e) = v→u: the next expected seq, the round u owes v a
  /// standalone ack at (0 = none pending), and whether held_[e] is nonempty.
  struct Endpoint {
    std::uint32_t next_seq = 1;
    std::uint32_t acked_to = 0;
    std::uint64_t retrans_due = 0;
    std::uint32_t recv_next = 1;
    std::uint32_t cur_rto : 31 = 0;  // timeouts are capped at 1e9 < 2^31
    std::uint32_t holding : 1 = 0;
    std::uint64_t ack_due = 0;
  };
  static_assert(sizeof(Endpoint) == 32, "Endpoint is one 32-byte record per directed edge");

  enum class TimerKind : std::uint8_t { kRetransmit, kAck };
  struct TimerEntry {
    std::uint32_t endpoint = 0;
    TimerKind kind = TimerKind::kRetransmit;
  };

  void process_ack(std::uint32_t e, std::uint32_t ack, std::uint64_t now);
  void schedule_ack(std::uint32_t e, std::uint64_t now);
  void fire_entry(const TimerEntry& t, std::uint64_t now, const FaultPlan& faults,
                  std::vector<Frame>& out);

  RtoSpec rto_;

  // Static link tables (CSR edge ids): the opposite direction of each
  // directed edge, and its sending endpoint (head(e) == tail(reverse(e))).
  std::vector<std::uint32_t> reverse_edge_;
  std::vector<NodeId> edge_tail_;

  std::vector<Endpoint> endpoints_;
  // Per endpoint: the unacked messages of e, seq s at window_[e][s & mask]
  // (size 0 or a power of two, grown on demand), and the ahead-of-order
  // frames from reverse(e), sorted by seq.
  std::vector<std::vector<Message>> window_;
  std::vector<std::vector<Frame>> held_;

  // Timer entries are hints, not state: re-arming files a new entry and
  // leaves the old one stale; the endpoints' due rounds are the ground
  // truth, checked at fire time (and by next_event_round), so stale entries
  // are dropped for free.  The event-driven advance may skip rounds holding
  // only stale entries; they fire (and are discarded) a lap later.
  RoundWheel<TimerEntry> timers_;
  std::size_t live_timers_ = 0;  // armed retransmit + ack timers
};

}  // namespace dhc::congest
