#include "graph/graph.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "support/require.h"

namespace dhc::graph {

namespace {

// An edge is keyed (max << 32) | min, whose numeric order is lower-row order:
// by larger end, then by smaller end.  Lists that already come in that order
// (star, path and complete graphs) pass the is_sorted check; anything else
// gets an LSD radix sort, linear in the list length, which for the
// multi-million-edge Chung–Lu and regular lists beats a comparison sort.
void sort_keys(std::vector<std::uint64_t>& keys, NodeId n) {
  if (keys.empty() || std::is_sorted(keys.begin(), keys.end())) return;
  // The larger end occupies bits [32, 32 + bit_width(n-1)); the smaller the low bits.
  const std::uint32_t key_bits =
      32 + std::max<std::uint32_t>(1, std::bit_width(std::uint64_t{n - 1}));
  constexpr std::uint32_t kDigitBits = 16;
  constexpr std::size_t kBuckets = 1u << kDigitBits;
  std::vector<std::uint64_t> scratch(keys.size());
  std::vector<std::size_t> count(kBuckets);
  for (std::uint32_t shift = 0; shift < key_bits; shift += kDigitBits) {
    std::fill(count.begin(), count.end(), 0);
    for (const auto k : keys) ++count[(k >> shift) & (kBuckets - 1)];
    std::size_t sum = 0;
    for (auto& c : count) {
      const std::size_t next = sum + c;
      c = sum;
      sum = next;
    }
    for (const auto k : keys) scratch[count[(k >> shift) & (kBuckets - 1)]++] = k;
    keys.swap(scratch);
  }
}

}  // namespace

// The one CSR build.  for_each(f) replays the edges as lower-row pairs
// f(v, w), w < v, in increasing v and then strictly increasing w; it runs
// twice, once to count degrees into offsets_ and once to place.  Every row
// comes out sorted without a per-row sort pass: row x gets its lower
// neighbors from lower row x itself, in increasing order, before any later
// row v > x appends x's higher neighbor v.  graph_core_test pins this
// against a reference adjacency built with std::set.
template <class ForEachLowerPair>
void Graph::scatter(const ForEachLowerPair& for_each) {
  offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for_each([this](NodeId v, NodeId w) {
    ++offsets_[static_cast<std::size_t>(v) + 1];
    ++offsets_[static_cast<std::size_t>(w) + 1];
  });
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  adjacency_.assign(offsets_[n_], 0);
  // offsets_[x] is row x's write cursor and ends at row x's end, which is
  // row x+1's start; one shift restores the row starts.
  for_each([this](NodeId v, NodeId w) {
    adjacency_[offsets_[v]++] = w;
    adjacency_[offsets_[w]++] = v;
  });
  std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
  offsets_[0] = 0;
}

Graph::Graph(NodeId n, const std::vector<Edge>& edges) : n_(n) {
  std::vector<std::uint64_t> keys;
  keys.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    DHC_REQUIRE(u < n && v < n, "edge (" << u << "," << v << ") outside node range [0," << n << ")");
    DHC_REQUIRE(u != v, "self-loop at node " << u);
    keys.push_back((std::uint64_t{std::max(u, v)} << 32) | std::min(u, v));
  }
  sort_keys(keys, n);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  scatter([&keys](const auto& f) {
    for (const auto k : keys) f(static_cast<NodeId>(k >> 32), static_cast<NodeId>(k));
  });
}

Graph Graph::from_lower_rows(NodeId n, std::span<const std::uint64_t> row_offsets,
                             std::span<const NodeId> lower) {
  DHC_REQUIRE(row_offsets.size() == static_cast<std::size_t>(n) + 1 && row_offsets.front() == 0 &&
                  row_offsets.back() == lower.size(),
              row_offsets.size() << " row offsets do not frame " << lower.size()
                                 << " entries on " << n << " nodes");
  for (NodeId v = 0; v < n; ++v) {
    DHC_REQUIRE(row_offsets[v] <= row_offsets[v + 1], "lower row " << v << " ends before it starts");
    for (auto i = row_offsets[v]; i < row_offsets[v + 1]; ++i) {
      DHC_REQUIRE(lower[i] < v && (i == row_offsets[v] || lower[i - 1] < lower[i]),
                  "lower row " << v << " is not strictly increasing below " << v << " at entry "
                               << lower[i]);
    }
  }
  Graph g(n);
  g.scatter([&](const auto& f) {
    for (NodeId v = 0; v < n; ++v) {
      for (auto i = row_offsets[v]; i < row_offsets[v + 1]; ++i) f(v, lower[i]);
    }
  });
  return g;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  DHC_REQUIRE(u < n_ && v < n_, "has_edge(" << u << "," << v << ") outside node range");
  return neighbor_rank(u, v) != kNoRank;
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(m());
  for (NodeId u = 0; u < n_; ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

std::size_t Graph::max_degree() const {
  std::size_t best = 0;
  for (NodeId v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

}  // namespace dhc::graph
