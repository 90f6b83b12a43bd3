// Synchronous CONGEST network simulator.
//
// Executes a Protocol over a graph in discrete rounds (paper §I-A): messages
// sent in round r are delivered at the start of round r+1; each directed
// edge carries at most one message per round (a second send throws).
// Scheduling is event-driven — only nodes holding freshly delivered messages
// or armed wake-ups run — so simulation cost tracks message volume, not
// n × rounds.
//
// Memory layout (DESIGN.md §4): the hot path is allocation-free in the
// steady state.  A send appends one 28-byte record to the sending shard's
// log — a multicast, one record for all its receivers plus a 4-byte rank
// list; at the next round's delivery the logs are expanded in shard order —
// stably, so per-node arrival order is the global send order — into a flat
// inbox arena of references to the log records, in which every active node
// owns one contiguous slice.  The delivered logs are kept for the round that
// reads them while the round's own sends fill the other buffer of each
// shard.  inbox() is a range over the node's slice that yields the records
// themselves.  Wake-ups (and, under async delivery, pending messages) live
// in a RoundWheel (congest/round_wheel.h): one bucket per upcoming round,
// far-future items in an ordered far tier.  All arenas and wheel chunks are
// reused across rounds.
//
// One round engine (DESIGN.md §5): every round steps the id-sorted active
// set into shard logs — sends, wake-ups, observer events — and a serial
// merge in shard order then replays the receiver-side bookkeeping.  Small
// rounds (and begin()) step on the calling thread into shard 0; with
// cfg.shards > 1, large rounds step contiguous shard slices on a persistent
// worker pool.  Because the shards are contiguous slices of the id-sorted
// active set, the merge order is the global send order whatever the slicing
// — the stable scatter, per-node inbox order, wheel bucket contents,
// per-node RNG streams, and every Metrics counter are bitwise identical for
// any shard count.  The delivery after a sharded round scatters on the pool
// too, each lane writing only the inboxes of its own receiver id range.  The
// shard partition is independent of how many pool threads execute it, so
// determinism never depends on the machine.
//
// Phase barriers: when the network goes quiescent (no messages in flight, no
// wake-ups armed) the protocol's on_quiescence() hook runs; it can advance
// to a new phase and wake nodes, or end the run.  Each such transition is
// counted as a barrier in Metrics (it stands for a termination-detection
// convergecast a real deployment would pay O(D) rounds for — see DESIGN.md).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "congest/message.h"
#include "congest/metrics.h"
#include "congest/round_wheel.h"
#include "congest/trace_sink.h"
#include "graph/graph.h"
#include "support/require.h"
#include "support/rng.h"
#include "support/worker_pool.h"

namespace dhc::congest {

class FaultPlan;        // congest/fault_plan.h — async delays/drops/crashes
class ReliableOverlay;  // congest/reliable.h — seq/ack/retransmit transport

/// Thrown when a protocol exceeds the CONGEST per-edge bandwidth, sends to a
/// non-neighbor, or otherwise breaks the communication model.
class CongestViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// One observed send, as recorded in a shard's event log.
struct SendEvent {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::uint64_t round = 0;
};

namespace internal {

/// Thread-local log of one shard's round: sends, wake-ups, observer events,
/// and the shard's slice of the global counters.  Merged serially in shard
/// order after the round's steps and cleared (capacity kept); on synchronous
/// runs the outbox instead stays parked until the next delivery scatters
/// references to its records into the inbox arena and swaps it into
/// `delivered`, where the records stay put while the next round, which reads
/// them, appends to the emptied other buffer.  Cache-line aligned so
/// neighboring shards' counters never share a line.
///
/// An outbox record with `to == kNoNode` is a multicast: it goes to several
/// neighbors of `from`, listed in `ranks` (one entry per multicast record,
/// in log order) as the receiver count followed by the ascending neighbor
/// ranks — no ranks when the count is the full degree.
struct alignas(64) ShardState {
  std::vector<Message> outbox;
  std::vector<Message> delivered;  // last round's outbox: what the inboxes point into
  std::vector<std::uint32_t> ranks;
  std::vector<std::pair<std::uint64_t, NodeId>> wakeups;  // (delay, node)
  std::vector<SendEvent> events;  // populated only when an observer is attached
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;

  // Synchronous capacity check: rank_step[i] == step iff the node stepping
  // on this shard has already sent on its i-th edge.  A node steps at most
  // once per round, so one message per edge per step is one per round.
  std::vector<std::uint64_t> rank_step;  // max-degree entries
  std::uint64_t step = 0;                // bumped by every Context
};

}  // namespace internal

/// Optional tap on the message stream, e.g. to re-price an execution under
/// a different cost model (the k-machine conversion of paper §IV).
class MessageObserver {
 public:
  virtual ~MessageObserver() = default;
  /// Called once per non-empty shard log by the serial merge, after the
  /// round's steps; across calls, events arrive in the exact global send
  /// order, so the stream is identical for every shard count.
  virtual void on_events(std::span<const SendEvent> events) = 0;
};

/// The execution knobs every CONGEST run takes, declared once: NetworkConfig
/// and every solver config (core::DraConfig, Dhc1Config, Dhc2Config,
/// TurauConfig, UpcastConfig) inherit them, so a solver hands its slice to
/// the engine unchanged (network_config()).  The execution models are
/// attachments here, not code paths: the k-machine model is an `observer`
/// (kmachine::KMachineCost), the async model a `faults` plan.
struct EngineOptions {
  /// Optional message tap (not owned; must outlive the run).
  MessageObserver* observer = nullptr;

  /// Shard count for intra-round parallelism.  0 resolves the DHC_SHARDS
  /// environment variable (absent/invalid → 1); 1 steps every round on the
  /// calling thread.  Results are bitwise identical for every value.
  std::uint32_t shards = 0;

  /// Optional fault plan (not owned; must outlive the run).  nullptr — the
  /// default — is the synchronous CONGEST model.  Non-null switches the
  /// engine to the async delivery regime (DESIGN.md §8): sends are routed
  /// through the plan's drop/delay decisions into a delivery wheel and
  /// delivered when their latency elapses; crashed nodes neither step nor
  /// receive.
  const FaultPlan* faults = nullptr;

  /// Optional flight-recorder sink fed one RoundTrace per executed round
  /// plus phase/barrier marks (not owned; must outlive the run).  Per-round
  /// wall clocks are read only when a sink is attached, so tracing off has
  /// zero timing overhead.
  TraceSink* trace = nullptr;
};

struct NetworkConfig : EngineOptions {
  /// Hard stop: abort the run after this many rounds (safety net; a run that
  /// trips it reports hit_round_limit instead of looping forever).
  std::uint64_t max_rounds = 50'000'000;

  /// Seed from which all per-node RNG streams are derived.
  std::uint64_t seed = 0;

  /// Minimum active nodes *per shard* before a round is dispatched to the
  /// pool; smaller rounds step on the calling thread into shard 0 (identical
  /// results, no dispatch overhead).  0 resolves DHC_SHARD_GRAIN
  /// (absent/invalid → 32).
  std::uint32_t shard_grain = 0;
};

/// The NetworkConfig a solver run uses: its engine options plus the seed.
inline NetworkConfig network_config(const EngineOptions& engine, std::uint64_t seed) {
  NetworkConfig cfg;
  static_cast<EngineOptions&>(cfg) = engine;
  cfg.seed = seed;
  return cfg;
}

class Network;

/// The multicast filter that keeps every neighbor (a flood).
struct AllNeighbors {
  constexpr bool operator()(std::size_t /*rank*/, NodeId /*neighbor*/) const { return true; }
};

/// The DHC_SHARDS environment default applied when NetworkConfig::shards is
/// left at 0 (absent/invalid → 1).  Exposed so the runner's thread-budget
/// arbitration and the artifact headers agree with what the simulator runs.
std::uint32_t default_shards();

/// A node's messages for this round, in send order: a range of references
/// into the log records their senders wrote last round (valid until the
/// node's step returns).  Yields `const Message&`.
class Inbox {
 public:
  class iterator {
   public:
    explicit iterator(const Message* const* p) : p_(p) {}
    const Message& operator*() const { return **p_; }
    iterator& operator++() {
      ++p_;
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    const Message* const* p_;
  };

  Inbox(const Message* const* first, std::size_t size) : first_(first), size_(size) {}
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Message& operator[](std::size_t i) const { return *first_[i]; }
  iterator begin() const { return iterator(first_); }
  iterator end() const { return iterator(first_ + size_); }

 private:
  const Message* const* first_;
  std::size_t size_;
};

/// Per-node view handed to protocol code during a round.  Exposes only what
/// a real node would have: its id, its neighbors, this round's inbox, its
/// private RNG stream, and the ability to send to neighbors / schedule its
/// own future wake-up.
class Context {
 public:
  NodeId self() const { return self_; }
  std::uint64_t round() const;
  std::span<const NodeId> neighbors() const;
  std::size_t degree() const { return neighbors().size(); }

  /// Messages delivered to this node at the start of this round, in send
  /// order.  A delivered message's receiver is self(): its `to` field is
  /// meaningful on the send side only (a multicast record reads kNoNode).
  Inbox inbox() const;

  /// Sends `msg` to neighbor `to` (delivered next round).  Throws
  /// CongestViolation if `to` is not a neighbor or the edge already carried
  /// a message this round.
  void send(NodeId to, const Message& msg);

  /// Sends `msg` to neighbors()[rank].  Same semantics as send(), but O(1):
  /// callers holding a cached rank (tree edges) skip the per-message
  /// O(log deg) rank lookup.  Requires rank < degree().
  void send_to_rank(std::size_t rank, const Message& msg);

  /// Sends `msg` to every neighbors()[i] for which keep(i, neighbors()[i])
  /// holds, in ascending rank order, and returns the receiver count.
  /// Observably identical to send_to_rank(i, msg) for each kept i, but the
  /// shard log stores the message once, whatever the receiver count.
  template <class Keep = AllNeighbors>
  std::size_t multicast(const Message& msg, Keep keep = {});

  /// Arms a wake-up `delay` rounds from now (>= 1); the node's step() runs
  /// in that round even with an empty inbox.
  void wake_in(std::uint64_t delay);

  /// This node's private RNG stream (deterministic per (seed, node)).
  support::Rng& rng();

  /// Registers `words` words of node-local memory (may be negative to
  /// release); peak per node is reported in Metrics.
  void charge_memory(std::int64_t words);

  /// Charges local computation (unit: operations) for load-balance metrics.
  void charge_compute(std::uint64_t ops);

 private:
  friend class Network;
  Context(Network& net, NodeId self, internal::ShardState& shard)
      : net_(net), self_(self), shard_(shard) {
    ++shard.step;
  }
  Network& net_;
  NodeId self_;
  internal::ShardState& shard_;  // the log this step writes to
};

/// A distributed algorithm run by the Network.  Implementations hold all
/// per-node state (indexed by NodeId), and step() touches only the state of
/// the node whose Context it is given: what a node knows, it learned from
/// the messages it received.  That one contract holds in every phase of
/// every protocol; it is what makes the simulation faithful to a
/// message-passing execution, and what makes every round safe to shard.
/// Aggregate counters bumped inside step() are support::ShardCounters
/// (their sums are order-independent); anything else shared, such as a
/// stage flag, changes only in on_quiescence(), between rounds.
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Called once per node before round 1 (round 0 setup).
  virtual void begin(Context& ctx) = 0;

  /// Called for every active node each round (nodes with inbox or wake-up).
  virtual void step(Context& ctx) = 0;

  /// Called when no messages are in flight and no wake-ups are armed.
  /// Return true to continue (after waking nodes / advancing a phase);
  /// false to end the run.  Default: end.
  virtual bool on_quiescence(Network& net) {
    (void)net;
    return false;
  }
};

/// The simulator.  Owns the message arenas, the wake-up and delivery
/// wheels, the shard worker pool, and metrics for one run.
class Network {
 public:
  Network(const graph::Graph& g, NetworkConfig cfg);
  ~Network();  // out of line: ReliableOverlay is incomplete here

  const graph::Graph& graph() const { return *graph_; }
  NodeId n() const { return graph_->n(); }
  std::uint64_t round() const { return round_; }

  /// Resolved shard count (cfg.shards, or the DHC_SHARDS default).
  std::uint32_t shards() const { return shards_; }

  /// Runs `protocol` to quiescence (or the round limit) and returns metrics.
  Metrics run(Protocol& protocol);

  /// --- calls available to Protocol::on_quiescence ---

  /// Wakes `v` in the next round.
  void wake(NodeId v);

  /// Wakes every node in the next round.
  void wake_all();

  /// Labels the upcoming rounds as a new phase (metrics bookkeeping).
  void mark_phase(const std::string& label);

  /// Sets the per-barrier round charge (e.g. 2·tree depth once known).
  void set_barrier_cost(std::uint64_t rounds_per_barrier);

  /// Metrics of the run in progress (valid during run()).
  Metrics& metrics() { return metrics_; }

 private:
  friend class Context;

  using ShardState = internal::ShardState;

  void deliver_and_build_active_set();
  void step_active_set(Protocol& protocol);
  /// Per-round footprint sample (run() epilogue): max logical in-flight
  /// bytes into metrics_.arena_bytes_peak.
  void sample_arenas();
  void step_sharded(Protocol& protocol);
  void merge_shard_logs();
  /// The counters whose per-round deltas a traced round reports.
  struct TraceCounters {
    std::uint64_t messages, bits, delayed, dropped, crash_dropped, crashed_steps, retransmits,
        dup_suppressed, acks_sent;
  };
  TraceCounters trace_counters() const;
  /// Emits the round's RoundTrace, plus its FaultTrace / RetransTrace when
  /// the async regime / reliable overlay produced any events.
  void emit_round_trace(const TraceCounters& before, std::uint64_t wakeups, std::uint64_t wall_ns);

  // --- async delivery (cfg.faults != nullptr) ---

  /// Routes one committed send through the fault plan: dropped messages
  /// vanish (counted), surviving ones are framed and filed in the delivery
  /// wheel under round_ + latency.  With the reliable overlay engaged, the
  /// frame is seq-stamped and buffered for retransmission first.  Serial
  /// only: called from the shard-log merge, never from inside a parallel
  /// section.  `edge_id` is from → to.
  void enqueue_async(NodeId from, NodeId to, std::size_t edge_id, const Message& msg);
  /// The transport tail of enqueue_async: link FIFO slot, drop decision,
  /// delay assignment, wheel filing (frame.msg.from/to and frame.edge
  /// already set).  Also carries the overlay's own traffic (retransmits,
  /// standalone acks), which shares the fate machinery of first sends.
  void file_async(const Frame& frame);
  /// Fires the overlay timers due this round and files the resulting
  /// retransmit / standalone-ack messages (with Metrics accounting).
  void service_transport();
  /// Moves every message due this round from the delivery wheel into
  /// shard 0's log (stripping the frame header), applying crash-receiver
  /// drops and the receiver-side first-touch bookkeeping that the
  /// synchronous merge does at send time.  The log is empty here: async
  /// merges file every send into the delivery wheel.  The scatter then
  /// delivers the staged records by reference, like synchronous sends.
  void mature_async_messages();
  /// Drops crashed nodes from the freshly built active set (serial pass).
  void filter_crashed_active();

  void send_from(ShardState& sh, NodeId from, NodeId to, const Message& msg);
  void send_ranked(ShardState& sh, NodeId from, std::size_t rank, const Message& msg);
  void commit_send(ShardState& sh, NodeId from, NodeId to, std::size_t rank, const Message& msg);
  template <class Keep>
  std::size_t multicast_from(ShardState& sh, NodeId from, const Message& msg, Keep& keep);
  /// Calls visit(msg, to, edge_id) for every message of `sh`'s log whose
  /// receiver `to` lies in [lo, hi), in send order: a multicast record
  /// expands in rank order at its place in the log.  edge_id is the
  /// directed edge from → to, or kNoEdge for a unicast record (the caller
  /// looks it up if it needs it).
  template <class Visit>
  void expand_log(const ShardState& sh, NodeId lo, NodeId hi, Visit&& visit) const;
  static constexpr std::size_t kNoEdge = graph::Graph::kNoRank;
  [[noreturn]] void throw_non_neighbor(NodeId from, NodeId to) const;
  [[noreturn]] void throw_over_capacity(const ShardState& sh, NodeId from, NodeId to,
                                        const Message& msg) const;
  support::Rng& node_rng(NodeId v) { return rngs_[v]; }

  const graph::Graph* graph_;
  NetworkConfig cfg_;
  std::uint32_t shards_ = 1;       // resolved shard count
  std::uint32_t shard_grain_ = 32;  // resolved min active nodes per shard
  std::uint64_t round_ = 0;
  std::uint64_t bits_per_word_ = 1;  // ⌈log₂ n⌉, hoisted out of the send path

  // Message arenas: sends append to the shard logs; delivery scatters
  // references to the log records, in shard order, into inbox_arena_, one
  // contiguous slice per receiving node, and double-buffers each log into
  // its `delivered` vector so the records outlive the round's own sends.
  std::size_t parked_ = 0;                   // messages parked in the shard logs
  std::vector<const Message*> inbox_arena_;  // this round's inboxes, grouped by node
  std::vector<std::uint32_t> inbox_count_;   // per node: messages pending next round
  std::vector<std::uint32_t> inbox_off_;     // per node: slice start in inbox_arena_
  std::vector<std::uint32_t> inbox_len_;     // per node: slice length this round
  std::vector<std::uint32_t> inbox_cursor_;  // per node: scatter write cursor
  std::vector<NodeId> next_active_;          // first-touch receivers of parked mail
  std::uint64_t inbox_live_ = 0;             // messages scattered this round (logical)

  std::vector<std::size_t> edge_offsets_;  // node -> first directed-edge id

  std::vector<NodeId> active_;          // nodes to step this round
  std::vector<std::uint8_t> has_mail_;  // dedup mail vs wake-up activation

  // Armed wake-ups.  Rounds advance either by +1 or by jumping to the
  // *minimum* armed round (wake-up, pending async delivery or overlay
  // timer), so no bucket holding a live item is ever skipped.  Far wake-ups
  // leave in push order rather than (round, node) order; the active set is
  // sorted before anyone steps, so that order is never observed.
  RoundWheel<NodeId> wakeups_;

  // Async delivery state (used only when cfg.faults != nullptr).  Push
  // order is the global send order, so maturation preserves the
  // arrival-order determinism the synchronous scatter guarantees.  The
  // wheel holds Frames: the overlay header exists only while a message is
  // parked here or in the overlay's buffers.
  const FaultPlan* faults_ = nullptr;          // hoisted out of cfg_
  std::vector<std::uint64_t> link_free_at_;    // per directed edge: next free departure round
  RoundWheel<Frame> deliveries_;

  // Reliable-delivery overlay (congest/reliable.h).  Engaged only when the
  // plan requests reliability=ack AND can actually lose messages (drops or
  // crashes active): lossless runs bypass it entirely, which is what pins
  // reliability=ack bitwise-identical to reliability=none at drop=0.
  std::unique_ptr<ReliableOverlay> reliable_;
  std::vector<Frame> transport_batch_;  // service_transport scratch
  std::vector<Frame> drain_batch_;      // in-order release scratch

  std::vector<ShardState> shard_state_;        // shards_ logs; shard 0 also steps small rounds
  std::unique_ptr<support::WorkerPool> pool_;  // created on first sharded round

  // Whether the last stepped round ran on the pool (it then also gates the
  // parallel scatter of that round's mail), and shard-profiling scratch for
  // the flight recorder (filled by step_sharded only when a trace sink is
  // attached; the RoundTrace spans point here).
  bool last_round_sharded_ = false;
  std::vector<std::uint64_t> trace_shard_wall_ns_;
  std::vector<std::uint32_t> trace_shard_active_;

  std::vector<support::Rng> rngs_;
  Metrics metrics_;
};

// ---------------------------------------------------------------------------
// Inline hot path.  One Context::send is one neighbor-rank lookup, one
// per-step rank-tag check, metric bumps, and a single 28-byte append to the
// shard's log — no intermediate Message copies and no per-message allocation
// once the log has warmed up.  A multicast is the same per receiver minus the
// append: one record for all of them, plus a 4-byte rank each.  The global
// counters and the receiver-side bookkeeping go to the shard log and wait
// for the merge; everything the send touches directly — the shard's rank
// tags and node_messages_sent[from] — belongs to the sending node's shard.
// ---------------------------------------------------------------------------

inline void Network::commit_send(ShardState& sh, NodeId from, NodeId to, std::size_t rank,
                                 const Message& msg) {
  // The one-message-per-edge-per-round discipline is a synchronous-schedule
  // invariant.  Under async delivery a node may legally answer several
  // delayed arrivals at once; excess sends serialize through the link's FIFO
  // queue (enqueue_async) instead of faulting.
  if (faults_ == nullptr) {
    if (sh.rank_step[rank] == sh.step) throw_over_capacity(sh, from, to, msg);
    sh.rank_step[rank] = sh.step;
  }
  DHC_CHECK(msg.words <= kMaxWords, "message exceeds payload word limit");

  // Sender-side accounting: node_messages_sent[from] is owned by the
  // sending node, hence by exactly one shard — no atomics needed.
  metrics_.node_messages_sent[from] += 1;
  sh.messages += 1;
  sh.bits += message_bits_for(msg.words, bits_per_word_);
  if (cfg_.observer != nullptr) sh.events.push_back({from, to, round_});
  Message& slot = sh.outbox.emplace_back(msg);
  slot.from = from;
  slot.to = to;
}

template <class Keep>
std::size_t Network::multicast_from(ShardState& sh, NodeId from, const Message& msg, Keep& keep) {
  // Bulk commit_send over the sender's ranks: the rank tags are checked and
  // set one by one (so the capacity check stays exact), the counters are
  // bumped once, and the log gets one record.
  DHC_CHECK(msg.words <= kMaxWords, "message exceeds payload word limit");
  const auto nb = graph_->neighbors(from);
  std::uint64_t* const rank_step = sh.rank_step.data();
  const std::size_t header = sh.ranks.size();
  sh.ranks.push_back(0);
  for (std::size_t i = 0; i < nb.size(); ++i) {
    if (!keep(i, nb[i])) continue;
    if (faults_ == nullptr) {
      if (rank_step[i] == sh.step) {
        sh.ranks.resize(header);  // this record is not in the log yet
        throw_over_capacity(sh, from, nb[i], msg);
      }
      rank_step[i] = sh.step;
    }
    sh.ranks.push_back(static_cast<std::uint32_t>(i));
    if (cfg_.observer != nullptr) sh.events.push_back({from, nb[i], round_});
  }
  const std::size_t count = sh.ranks.size() - header - 1;
  if (count == 0) {
    sh.ranks.resize(header);
    return 0;
  }
  sh.ranks[header] = static_cast<std::uint32_t>(count);
  if (count == nb.size()) sh.ranks.resize(header + 1);  // every neighbor: ranks implicit
  metrics_.node_messages_sent[from] += count;
  sh.messages += count;
  sh.bits += count * message_bits_for(msg.words, bits_per_word_);
  Message& slot = sh.outbox.emplace_back(msg);
  slot.from = from;
  slot.to = kNoNode;
  return count;
}

inline void Network::send_from(ShardState& sh, NodeId from, NodeId to, const Message& msg) {
  const std::size_t rank = graph_->neighbor_rank(from, to);
  if (rank == graph::Graph::kNoRank) throw_non_neighbor(from, to);
  commit_send(sh, from, to, rank, msg);
}

inline void Network::send_ranked(ShardState& sh, NodeId from, std::size_t rank,
                                 const Message& msg) {
  const auto nb = graph_->neighbors(from);
  DHC_REQUIRE(rank < nb.size(), "send_to_rank: rank " << rank << " out of range for node " << from);
  commit_send(sh, from, nb[rank], rank, msg);
}

inline std::uint64_t Context::round() const { return net_.round_; }

inline std::span<const NodeId> Context::neighbors() const {
  return net_.graph_->neighbors(self_);
}

inline Inbox Context::inbox() const {
  return {net_.inbox_arena_.data() + net_.inbox_off_[self_], net_.inbox_len_[self_]};
}

inline void Context::send(NodeId to, const Message& msg) {
  net_.send_from(shard_, self_, to, msg);
}

inline void Context::send_to_rank(std::size_t rank, const Message& msg) {
  net_.send_ranked(shard_, self_, rank, msg);
}

template <class Keep>
std::size_t Context::multicast(const Message& msg, Keep keep) {
  return net_.multicast_from(shard_, self_, msg, keep);
}

inline void Context::wake_in(std::uint64_t delay) {
  DHC_REQUIRE(delay >= 1, "wake_in delay must be at least 1 round");
  shard_.wakeups.emplace_back(delay, self_);
}

inline support::Rng& Context::rng() { return net_.node_rng(self_); }

inline void Context::charge_memory(std::int64_t words) {
  auto& mem = net_.metrics_.node_memory_words[self_];
  mem += words;
  auto& peak = net_.metrics_.node_peak_memory_words[self_];
  peak = std::max(peak, mem);
}

inline void Context::charge_compute(std::uint64_t ops) {
  net_.metrics_.node_compute_ops[self_] += ops;
}

}  // namespace dhc::congest
