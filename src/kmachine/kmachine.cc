#include "kmachine/kmachine.h"

#include <algorithm>

#include "support/require.h"

namespace dhc::kmachine {

KMachineCost::KMachineCost(NodeId n, std::uint32_t k, std::uint64_t bandwidth, std::uint64_t seed)
    : k_(k), bandwidth_(bandwidth) {
  DHC_REQUIRE(k >= 2, "k-machine model needs at least 2 machines");
  DHC_REQUIRE(bandwidth >= 1, "per-link bandwidth must be at least 1 message/round");
  machine_of_.resize(n);
  round_load_.assign(static_cast<std::size_t>(k) * k, 0);
  touched_links_.reserve(static_cast<std::size_t>(k) * (k - 1) / 2);
  support::Rng rng(seed ^ 0x6b6d616368696e65ULL);
  for (NodeId v = 0; v < n; ++v) {
    machine_of_[v] = static_cast<std::uint32_t>(rng.below(k));
  }
}

void KMachineCost::flush_round() {
  std::uint64_t busiest = 0;
  for (const auto link : touched_links_) {
    busiest = std::max(busiest, round_load_[link]);
    round_load_[link] = 0;
  }
  if (busiest > 0) {
    const std::uint64_t charge = (busiest + bandwidth_ - 1) / bandwidth_;
    rounds_accum_ += charge;
    if (trace_ != nullptr) trace_->on_kround(current_round_, busiest, charge);
  }
  touched_links_.clear();
}

void KMachineCost::on_events(std::span<const congest::SendEvent> events) {
  // Events arrive in global send order (shard logs are merged in shard
  // order), so per-message pricing yields the same link loads and round
  // charges for every shard count.
  for (const congest::SendEvent& e : events) record(e.from, e.to, e.round);
}

void KMachineCost::record(NodeId from, NodeId to, std::uint64_t round) {
  if (round != current_round_) {
    flush_round();
    current_round_ = round;
  }
  const std::uint32_t a = machine_of_[from];
  const std::uint32_t b = machine_of_[to];
  if (a == b) {
    ++local_messages_;
    return;
  }
  ++cross_messages_;
  const std::uint32_t link = std::min(a, b) * k_ + std::max(a, b);
  const std::uint64_t load = ++round_load_[link];
  if (load == 1) touched_links_.push_back(link);
  busiest_link_peak_ = std::max(busiest_link_peak_, load);
}

std::uint64_t KMachineCost::kmachine_rounds() const {
  // Price the in-progress round from a read-only scan.  The old
  // implementation flushed here — zeroing round_load_/touched_links_ for a
  // round that could still receive sends, which split that round's link
  // loads into separately-ceiled fragments and corrupted the total for any
  // mid-run reader.
  std::uint64_t busiest = 0;
  for (const auto link : touched_links_) busiest = std::max(busiest, round_load_[link]);
  return rounds_accum_ + (busiest > 0 ? (busiest + bandwidth_ - 1) / bandwidth_ : 0);
}

CongestAlgorithm dhc2_algorithm(core::Dhc2Config base) {
  return [base = std::move(base)](const graph::Graph& g, std::uint64_t seed,
                                  congest::MessageObserver* observer, std::uint32_t shards,
                                  const congest::FaultPlan* faults) {
    core::Dhc2Config cfg = base;
    cfg.observer = observer;
    cfg.shards = shards;
    cfg.faults = faults;
    return core::run_dhc2(g, seed, cfg);
  };
}

}  // namespace dhc::kmachine
