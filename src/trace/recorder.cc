#include "trace/recorder.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "support/json.h"
#include "support/require.h"

namespace dhc::trace {

using support::json_escape;

namespace {

/// Doubles in the meta line (delta, c) render via %.17g so equal runs are
/// byte-equal; integers elsewhere stream directly.
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void TraceRecorder::on_phase(const std::string& label, std::uint64_t first_round) {
  phases_.push_back({label, first_round});
}

void TraceRecorder::on_round(const congest::RoundTrace& t) {
  RoundRecord r;
  r.round = t.round;
  r.phase = phases_.empty() ? RoundRecord::kNoPhase
                            : static_cast<std::uint32_t>(phases_.size() - 1);
  r.active = t.active;
  r.sent = t.sent;
  r.bits = t.bits;
  r.wakeups = t.wakeups;
  r.wall_ns = t.wall_ns;
  r.sharded = t.sharded;
  r.shard_wall_ns.assign(t.shard_wall_ns.begin(), t.shard_wall_ns.end());
  r.shard_active.assign(t.shard_active.begin(), t.shard_active.end());
  rounds_.push_back(std::move(r));
}

void TraceRecorder::on_barrier(std::uint64_t round, std::uint64_t charge_rounds) {
  barriers_.push_back({round, charge_rounds});
}

void TraceRecorder::on_kround(std::uint64_t congest_round, std::uint64_t busiest_link,
                              std::uint64_t charge) {
  krounds_.push_back({congest_round, busiest_link, charge});
  kround_charge_total_ += charge;
}

void TraceRecorder::on_faults(const congest::FaultTrace& t) {
  faults_.push_back({t.round, t.delayed, t.dropped, t.crash_dropped, t.crashed_steps});
}

void TraceRecorder::on_retrans(const congest::RetransTrace& t) {
  retrans_.push_back({t.round, t.retransmits, t.dup_suppressed, t.acks_sent});
}

void TraceRecorder::on_rejoin(std::uint64_t round, std::uint64_t nodes) {
  rejoins_.push_back({round, nodes});
}

void TraceRecorder::finalize(const congest::Metrics& metrics) {
  metrics_ = metrics;
  // The summary line needs only the totals, the phase marks, and three
  // per-node maxima; take the maxima, then drop the per-node vectors so the
  // recorder stays small.
  max_node_sent_ = metrics.max_node_messages_sent();
  max_node_peak_memory_ = metrics.max_node_peak_memory();
  max_node_compute_ = metrics.max_node_compute();
  metrics_.node_messages_sent.clear();
  metrics_.node_messages_received.clear();
  metrics_.node_memory_words.clear();
  metrics_.node_peak_memory_words.clear();
  metrics_.node_compute_ops.clear();

  // Some protocols only mark their first phase after a few setup rounds
  // (standalone DRA wakes and builds its BFS tree before marking "dra"); a
  // synthetic "(untagged)" span covers those so the spans always partition
  // [first round, rounds + 1) and Σ span counters == the run totals.
  std::vector<PhaseMark> marks = phases_;
  if (!rounds_.empty() &&
      (marks.empty() || rounds_.front().round < marks.front().from_round)) {
    marks.insert(marks.begin(), {"(untagged)", rounds_.front().round});
  }

  spans_.clear();
  spans_.reserve(marks.size());
  std::size_t round_cursor = 0;
  std::size_t barrier_cursor = 0;
  for (std::size_t i = 0; i < marks.size(); ++i) {
    PhaseSpan span;
    span.label = marks[i].label;
    span.from_round = marks[i].from_round;
    span.to_round =
        i + 1 < marks.size() ? marks[i + 1].from_round : metrics.rounds + 1;
    span.rounds = span.to_round > span.from_round ? span.to_round - span.from_round : 0;
    // Round and barrier records are in ascending round order, so one pass of
    // two cursors attributes each to its span.  A barrier recorded at round
    // R fired after R and belongs to the span containing R; barriers before
    // the first mark (round 0 quiescence) attach to the first span.
    while (round_cursor < rounds_.size() && rounds_[round_cursor].round < span.to_round) {
      const RoundRecord& r = rounds_[round_cursor];
      if (r.round >= span.from_round) {
        span.stepped += 1;
        span.sent += r.sent;
        span.bits += r.bits;
        span.wall_ns += r.wall_ns;
      }
      ++round_cursor;
    }
    while (barrier_cursor < barriers_.size() &&
           (barriers_[barrier_cursor].round < span.to_round || i + 1 == marks.size())) {
      span.barriers += 1;
      ++barrier_cursor;
    }
    spans_.push_back(std::move(span));
  }
  finalized_ = true;
}

void TraceRecorder::set_outcome(bool success, std::string failure_reason) {
  success_ = success;
  failure_reason_ = std::move(failure_reason);
}

void TraceRecorder::write_ndjson(std::ostream& os, const TraceWriteOptions& opt) const {
  DHC_REQUIRE(finalized_, "TraceRecorder::write_ndjson requires finalize()");
  const auto wall = [&](std::uint64_t ns) { return opt.walls ? ns : 0; };

  os << "{\"type\":\"meta\",\"schema\":4"
     << ",\"algo\":\"" << json_escape(meta_.algo) << '"'
     << ",\"model\":\"" << json_escape(meta_.model) << '"'
     << ",\"family\":\"" << json_escape(meta_.family) << '"'
     << ",\"merge\":\"" << json_escape(meta_.merge) << '"'
     << ",\"n\":" << meta_.n << ",\"m\":" << meta_.m
     << ",\"delta\":" << fmt_double(meta_.delta) << ",\"c\":" << fmt_double(meta_.c)
     << ",\"graph_seed\":" << meta_.graph_seed << ",\"algo_seed\":" << meta_.algo_seed
     << ",\"machines\":" << meta_.machines << ",\"bandwidth\":" << meta_.bandwidth
     << ",\"config_index\":" << meta_.config_index
     << ",\"trial_index\":" << meta_.trial_index;
  if (opt.shard_profile) os << ",\"shards\":" << meta_.shards;
  os << "}\n";

  // The chronological stream: phase marks, rounds, fault/retrans deltas,
  // rejoin marks, k-round charges, and barriers merged by round (a phase
  // mark at round R precedes R's record; a fault delta, a retrans delta, a
  // rejoin mark, a k-round charge, and a barrier at R follow it, in that
  // order).
  std::size_t pi = 0, ri = 0, fi = 0, xi = 0, ji = 0, ki = 0, bi = 0;
  const auto phase_key = [&] { return pi < phases_.size() ? phases_[pi].from_round * 8 + 0
                                                          : ~std::uint64_t{0}; };
  const auto round_key = [&] { return ri < rounds_.size() ? rounds_[ri].round * 8 + 1
                                                          : ~std::uint64_t{0}; };
  const auto fault_key = [&] { return fi < faults_.size() ? faults_[fi].round * 8 + 2
                                                          : ~std::uint64_t{0}; };
  const auto retrans_key = [&] { return xi < retrans_.size() ? retrans_[xi].round * 8 + 3
                                                             : ~std::uint64_t{0}; };
  const auto rejoin_key = [&] { return ji < rejoins_.size() ? rejoins_[ji].round * 8 + 4
                                                            : ~std::uint64_t{0}; };
  const auto kround_key = [&] { return ki < krounds_.size() ? krounds_[ki].congest_round * 8 + 5
                                                            : ~std::uint64_t{0}; };
  const auto barrier_key = [&] { return bi < barriers_.size() ? barriers_[bi].round * 8 + 6
                                                              : ~std::uint64_t{0}; };
  while (true) {
    const std::uint64_t keys[7] = {phase_key(),  round_key(),  fault_key(), retrans_key(),
                                   rejoin_key(), kround_key(), barrier_key()};
    const std::uint64_t best =
        std::min({keys[0], keys[1], keys[2], keys[3], keys[4], keys[5], keys[6]});
    if (best == ~std::uint64_t{0}) break;
    if (best == keys[0]) {
      os << "{\"type\":\"phase\",\"label\":\"" << json_escape(phases_[pi].label)
         << "\",\"from\":" << phases_[pi].from_round << "}\n";
      ++pi;
    } else if (best == keys[1]) {
      const RoundRecord& r = rounds_[ri];
      os << "{\"type\":\"round\",\"r\":" << r.round << ",\"phase\":\""
         << (r.phase == RoundRecord::kNoPhase ? std::string()
                                              : json_escape(phases_[r.phase].label))
         << "\",\"active\":" << r.active << ",\"sent\":" << r.sent << ",\"bits\":" << r.bits
         << ",\"wake\":" << r.wakeups << ",\"wall_ns\":" << wall(r.wall_ns);
      if (opt.shard_profile && r.sharded) {
        os << ",\"shard_active\":[";
        for (std::size_t i = 0; i < r.shard_active.size(); ++i) {
          os << (i == 0 ? "" : ",") << r.shard_active[i];
        }
        os << "],\"shard_wall_ns\":[";
        for (std::size_t i = 0; i < r.shard_wall_ns.size(); ++i) {
          os << (i == 0 ? "" : ",") << wall(r.shard_wall_ns[i]);
        }
        os << ']';
      }
      os << "}\n";
      ++ri;
    } else if (best == keys[2]) {
      const FaultRecord& f = faults_[fi];
      os << "{\"type\":\"fault\",\"r\":" << f.round << ",\"delayed\":" << f.delayed
         << ",\"dropped\":" << f.dropped << ",\"crash_dropped\":" << f.crash_dropped
         << ",\"crashed_steps\":" << f.crashed_steps << "}\n";
      ++fi;
    } else if (best == keys[3]) {
      const RetransRecord& x = retrans_[xi];
      os << "{\"type\":\"retrans\",\"r\":" << x.round << ",\"retransmits\":" << x.retransmits
         << ",\"dup_suppressed\":" << x.dup_suppressed << ",\"acks_sent\":" << x.acks_sent
         << "}\n";
      ++xi;
    } else if (best == keys[4]) {
      os << "{\"type\":\"rejoin\",\"r\":" << rejoins_[ji].round
         << ",\"nodes\":" << rejoins_[ji].nodes << "}\n";
      ++ji;
    } else if (best == keys[5]) {
      os << "{\"type\":\"kround\",\"r\":" << krounds_[ki].congest_round
         << ",\"busiest\":" << krounds_[ki].busiest << ",\"charge\":" << krounds_[ki].charge
         << "}\n";
      ++ki;
    } else {
      os << "{\"type\":\"barrier\",\"r\":" << barriers_[bi].round
         << ",\"charge\":" << barriers_[bi].charge << "}\n";
      ++bi;
    }
  }

  for (const PhaseSpan& s : spans_) {
    os << "{\"type\":\"span\",\"label\":\"" << json_escape(s.label) << "\",\"from\":"
       << s.from_round << ",\"to\":" << s.to_round << ",\"rounds\":" << s.rounds
       << ",\"stepped\":" << s.stepped << ",\"sent\":" << s.sent << ",\"bits\":" << s.bits
       << ",\"barriers\":" << s.barriers << ",\"wall_ns\":" << wall(s.wall_ns) << "}\n";
  }

  os << "{\"type\":\"summary\",\"rounds\":" << metrics_.rounds
     << ",\"messages\":" << metrics_.messages << ",\"bits\":" << metrics_.bits
     << ",\"barriers\":" << metrics_.barrier_count
     << ",\"barrier_cost_rounds\":" << metrics_.barrier_cost_rounds
     << ",\"accounted_rounds\":" << metrics_.accounted_rounds()
     << ",\"hit_round_limit\":" << (metrics_.hit_round_limit ? 1 : 0)
     << ",\"max_node_sent\":" << max_node_sent_
     << ",\"max_node_peak_memory\":" << max_node_peak_memory_
     << ",\"max_node_compute\":" << max_node_compute_
     << ",\"arena_bytes_peak\":" << metrics_.arena_bytes_peak;
  if (!krounds_.empty()) os << ",\"kmachine_rounds\":" << kround_charge_total_;
  if (metrics_.delayed_messages != 0 || metrics_.dropped_messages != 0 ||
      metrics_.crash_dropped_messages != 0 || metrics_.crashed_steps != 0) {
    os << ",\"delayed_messages\":" << metrics_.delayed_messages
       << ",\"dropped_messages\":" << metrics_.dropped_messages
       << ",\"crash_dropped_messages\":" << metrics_.crash_dropped_messages
       << ",\"crashed_steps\":" << metrics_.crashed_steps;
  }
  if (metrics_.retransmits != 0 || metrics_.dup_suppressed != 0 || metrics_.acks_sent != 0) {
    os << ",\"retransmits\":" << metrics_.retransmits
       << ",\"dup_suppressed\":" << metrics_.dup_suppressed
       << ",\"acks_sent\":" << metrics_.acks_sent
       << ",\"payload_messages\":" << metrics_.payload_messages();
  }
  if (metrics_.crashed_rejoins != 0) {
    os << ",\"crashed_rejoins\":" << metrics_.crashed_rejoins;
  }
  if (metrics_.hit_round_limit) {
    os << ",\"round_limit_live\":" << (metrics_.round_limit_live ? 1 : 0);
  }
  os << "}\n";

  os << "{\"type\":\"outcome\",\"success\":" << (success_ ? "true" : "false")
     << ",\"failure_reason\":\"" << json_escape(failure_reason_) << "\"}\n";
}

}  // namespace dhc::trace
