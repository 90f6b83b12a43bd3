// A calendar of items keyed by simulated round.
//
// The engine schedules everything by round — wake-ups, async deliveries,
// the reliable overlay's retransmit and ack timers — and all three share
// this one structure: kSize buckets indexed by round modulo kSize for items
// due fewer than kSize rounds out, plus an ordered far tier for the rest.
// Every delay protocols use in practice lands in a bucket; the far tier
// holds the rare long delay (a backed-off retransmit, a geometric tail).
//
// Items carry no round stamp.  A bucket is only ever drained in its own
// round, so the owner must not advance past a round holding a live item
// (next_round() finds the nearest one).  An owner whose items are hints
// (the overlay's timers, checked against ground truth at fire time) may
// skip rounds holding only dead items; those stay in their bucket and are
// handed out in a later lap, in bucket order, where the owner discards them.
//
// Determinism: drain() hands out the far entries due by `now` first (in
// round order, each round in push order), then `now`'s bucket in push order.
// A far item due now was filed at least kSize rounds ago and every bucket
// item due now strictly later, so far-then-bucket is push order too.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace dhc::congest {

template <class T>
class RoundWheel {
 public:
  static constexpr std::uint64_t kSize = 1024;
  static constexpr std::uint64_t kNever = static_cast<std::uint64_t>(-1);

  RoundWheel() : buckets_(kSize) {}

  /// Files `item` for round `at` (> `now`, the current round).
  void push(std::uint64_t now, std::uint64_t at, const T& item) {
    if (at - now < kSize) {
      buckets_[at & kMask].push_back(item);
      ++near_;
    } else {
      far_[at].push_back(item);
      ++far_count_;
    }
  }

  std::size_t size() const { return near_ + far_count_; }
  bool empty() const { return size() == 0; }

  /// Hands every item due by `now` to visit(item): the far entries first,
  /// then `now`'s bucket, each in push order.  The bucket is drained in
  /// place, so visit may push only into other rounds (> now).  Returns true
  /// when a far entry filed for a round before `now` was handed out, i.e.
  /// the owner advanced past it.
  template <class Visit>
  bool drain(std::uint64_t now, Visit&& visit) {
    bool overshot = false;
    while (!far_.empty() && far_.begin()->first <= now) {
      const auto due = far_.begin();
      overshot |= due->first < now;
      far_count_ -= due->second.size();
      for (const T& item : due->second) visit(item);
      far_.erase(due);
    }
    auto& bucket = buckets_[now & kMask];
    near_ -= bucket.size();
    for (const T& item : bucket) visit(item);
    bucket.clear();
    return overshot;
  }

  /// The earliest round after `now` holding an item (kNever when none).
  std::uint64_t next_round(std::uint64_t now) const {
    return next_round(now, [](const T&, std::uint64_t) { return true; });
  }

  /// The earliest round r after `now` holding an item for which
  /// live(item, r) holds (kNever when none).  A bucket holds items of r and
  /// of earlier laps alike; `live` tells them apart.
  template <class Live>
  std::uint64_t next_round(std::uint64_t now, Live&& live) const {
    const auto any_live = [&](const std::vector<T>& items, std::uint64_t r) {
      return std::any_of(items.begin(), items.end(), [&](const T& item) { return live(item, r); });
    };
    std::uint64_t best = kNever;
    // A far item can come due sooner than kSize rounds out once rounds
    // advance, so the far tier is searched whatever the buckets hold.
    for (auto it = far_.upper_bound(now); it != far_.end(); ++it) {
      if (any_live(it->second, it->first)) {
        best = it->first;
        break;
      }
    }
    if (near_ != 0) {
      for (std::uint64_t r = now + 1; r < now + kSize && r < best; ++r) {
        if (any_live(buckets_[r & kMask], r)) return r;
      }
    }
    return best;
  }

 private:
  static constexpr std::uint64_t kMask = kSize - 1;
  static_assert((kSize & kMask) == 0, "kSize must be a power of two");

  std::vector<std::vector<T>> buckets_;
  std::map<std::uint64_t, std::vector<T>> far_;
  std::size_t near_ = 0;       // items across the buckets
  std::size_t far_count_ = 0;  // items across the far tier
};

}  // namespace dhc::congest
