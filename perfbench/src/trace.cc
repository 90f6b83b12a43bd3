#include "trace.h"

#include <algorithm>
#include <chrono>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

void PhaseLog::begin(std::uint64_t t_ns) {
  spans_.clear();
  spans_.push_back({kUnmarked, 1, t_ns});
}

void PhaseLog::mark(const std::string& label, std::uint64_t first_round, std::uint64_t t_ns) {
  spans_.push_back({label, first_round, t_ns});
}

std::map<std::string, PhaseTotal> PhaseLog::totals(std::uint64_t total_rounds,
                                                   std::uint64_t end_ns) const {
  std::map<std::string, PhaseTotal> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const bool last = i + 1 == spans_.size();
    const std::uint64_t end_round = last ? total_rounds + 1 : spans_[i + 1].first_round;
    const std::uint64_t stop_ns = last ? end_ns : spans_[i + 1].start_ns;
    PhaseTotal& t = out[s.label];
    if (end_round > s.first_round) t.rounds += end_round - s.first_round;
    if (stop_ns > s.start_ns) t.wall_ns += stop_ns - s.start_ns;
  }
  return out;
}

void LayerSink::on_phase(const std::string& label, std::uint64_t first_round) {
  phases_.mark(label, first_round, now_ns());
}

void LayerSink::on_round(const dhc::congest::RoundTrace& t) {
  tally_.rounds_stepped += 1;
  tally_.node_steps += t.active;
  tally_.messages += t.sent;
  tally_.bits += t.bits;
  tally_.round_wall_ns += t.wall_ns;
  if (!t.sharded) return;
  tally_.rounds_sharded += 1;
  if (t.shard_wall_ns.empty()) return;
  std::uint64_t max_ns = 0;
  double sum_ns = 0.0;
  for (const std::uint64_t ns : t.shard_wall_ns) {
    max_ns = std::max(max_ns, ns);
    sum_ns += static_cast<double>(ns);
  }
  tally_.shard_max_ns += max_ns;
  tally_.shard_mean_ns += sum_ns / static_cast<double>(t.shard_wall_ns.size());
}

void LayerSink::on_barrier(std::uint64_t, std::uint64_t) { tally_.barriers += 1; }

void LayerSink::on_faults(const dhc::congest::FaultTrace& t) {
  tally_.delayed += t.delayed;
  tally_.dropped += t.dropped;
}

void LayerSink::on_retrans(const dhc::congest::RetransTrace& t) {
  tally_.retransmits += t.retransmits;
  tally_.dup_suppressed += t.dup_suppressed;
  tally_.acks_sent += t.acks_sent;
}

}  // namespace perfbench
