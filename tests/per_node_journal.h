// Shared test helper: a per-node activation journal for shard-invariance
// tests (congest_shard_test, congest_fuzz_test).
//
// Sharded rounds step nodes concurrently, so test protocols may not write
// to a shared log stream; instead each node appends (round, line) records
// to its own journal (self-indexed — the same discipline production
// protocols follow), and flatten() k-way-merges them afterwards in
// (round asc, node asc) order — exactly the order a one-shard run (and the
// fuzz suite's reference model) emits lines in.  Keeping this
// merge in one place means both suites pin the same flattening semantics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dhc::congest::testutil {

class PerNodeJournal {
 public:
  explicit PerNodeJournal(std::size_t n) : entries_(n) {}

  /// Appends a line for `node` at `round`; a node's calls must come in
  /// nondecreasing round order (one activation per round guarantees it).
  void append(std::size_t node, std::uint64_t round, std::string line) {
    entries_[node].emplace_back(round, std::move(line));
  }

  /// All lines in (round asc, node asc) order, newline-terminated.
  std::string flatten() const {
    const std::size_t n = entries_.size();
    std::vector<std::size_t> pos(n, 0);
    std::string out;
    while (true) {
      std::uint64_t round = static_cast<std::uint64_t>(-1);
      for (std::size_t v = 0; v < n; ++v) {
        if (pos[v] < entries_[v].size()) {
          round = std::min(round, entries_[v][pos[v]].first);
        }
      }
      if (round == static_cast<std::uint64_t>(-1)) break;
      for (std::size_t v = 0; v < n; ++v) {
        if (pos[v] < entries_[v].size() && entries_[v][pos[v]].first == round) {
          out += entries_[v][pos[v]].second;
          out += '\n';
          ++pos[v];
        }
      }
    }
    return out;
  }

 private:
  std::vector<std::vector<std::pair<std::uint64_t, std::string>>> entries_;
};

}  // namespace dhc::congest::testutil
