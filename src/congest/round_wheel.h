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
//
// Storage: a bucket is a FIFO chain of fixed-size chunks drawn from one free
// list the wheel owns, and drain() returns each chunk to it once visited.
// Storage is therefore bounded by the peak number of live items (plus one
// partly filled chunk per bucket), not by every bucket's largest size.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

namespace dhc::congest {

template <class T>
class RoundWheel {
 public:
  static constexpr std::uint64_t kSize = 1024;
  static constexpr std::uint64_t kNever = static_cast<std::uint64_t>(-1);
  static constexpr std::size_t kChunk = 64;  // items per chunk

  RoundWheel() : buckets_(kSize) {}
  RoundWheel(const RoundWheel&) = delete;  // buckets point into chunks_
  RoundWheel& operator=(const RoundWheel&) = delete;

  /// Files `item` for round `at` (> `now`, the current round).
  void push(std::uint64_t now, std::uint64_t at, const T& item) {
    if (at - now < kSize) {
      Bucket& b = buckets_[at & kMask];
      if (b.tail == nullptr || b.tail->count == kChunk) {
        Chunk* const c = take_chunk();
        (b.tail == nullptr ? b.head : b.tail->next) = c;
        b.tail = c;
      }
      b.tail->items[b.tail->count++] = item;
      ++near_;
    } else {
      far_[at].push_back(item);
      ++far_count_;
    }
  }

  std::size_t size() const { return near_ + far_count_; }
  bool empty() const { return size() == 0; }

  /// Items the chunk storage can hold: a bound on the near tier's memory.
  std::size_t capacity() const { return chunks_.size() * kChunk; }

  /// Hands every item due by `now` to visit(item): the far entries first,
  /// then `now`'s bucket, each in push order.  The bucket is unlinked before
  /// it is visited and each chunk goes back to the free list once visited,
  /// so visit may push only into other rounds (> now).  Returns true when a
  /// far entry filed for a round before `now` was handed out, i.e. the owner
  /// advanced past it.
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
    Bucket& bucket = buckets_[now & kMask];
    Chunk* c = bucket.head;
    bucket = {};
    while (c != nullptr) {
      near_ -= c->count;
      for (std::uint32_t i = 0; i < c->count; ++i) visit(c->items[i]);
      Chunk* const next = c->next;
      c->next = free_;
      free_ = c;
      c = next;
    }
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
    const auto any_live = [&](const T* first, const T* last, std::uint64_t r) {
      return std::any_of(first, last, [&](const T& item) { return live(item, r); });
    };
    std::uint64_t best = kNever;
    // A far item can come due sooner than kSize rounds out once rounds
    // advance, so the far tier is searched whatever the buckets hold.
    for (auto it = far_.upper_bound(now); it != far_.end(); ++it) {
      const std::vector<T>& items = it->second;
      if (any_live(items.data(), items.data() + items.size(), it->first)) {
        best = it->first;
        break;
      }
    }
    if (near_ != 0) {
      for (std::uint64_t r = now + 1; r < now + kSize && r < best; ++r) {
        for (const Chunk* c = buckets_[r & kMask].head; c != nullptr; c = c->next) {
          if (any_live(c->items.data(), c->items.data() + c->count, r)) return r;
        }
      }
    }
    return best;
  }

 private:
  static constexpr std::uint64_t kMask = kSize - 1;
  static_assert((kSize & kMask) == 0, "kSize must be a power of two");

  struct Chunk {
    Chunk* next = nullptr;
    std::uint32_t count = 0;
    std::array<T, kChunk> items;
  };
  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
  };

  /// An empty chunk: the most recently freed one (still warm in cache), or
  /// a new one.  A deque never moves its elements, so chunk pointers held
  /// by buckets and by a running drain() stay valid.
  Chunk* take_chunk() {
    Chunk* c = free_;
    if (c != nullptr) {
      free_ = c->next;
    } else {
      c = &chunks_.emplace_back();
    }
    c->next = nullptr;
    c->count = 0;
    return c;
  }

  std::vector<Bucket> buckets_;
  std::deque<Chunk> chunks_;  // every chunk: in a bucket or on the free list
  Chunk* free_ = nullptr;
  std::map<std::uint64_t, std::vector<T>> far_;
  std::size_t near_ = 0;       // items across the buckets
  std::size_t far_count_ = 0;  // items across the far tier
};

}  // namespace dhc::congest
