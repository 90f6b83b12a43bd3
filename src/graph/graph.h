// Immutable undirected graph in compressed-sparse-row form.
//
// This is the substrate every other subsystem builds on: the CONGEST
// simulator walks neighbor spans when delivering messages, the generators
// write lower rows (each edge once, in the row of its larger end) that one
// counting scatter turns into a Graph, and the verifier checks cycle edges
// against has_edge().  Neighbor lists are sorted, so adjacency queries are
// O(log deg) and iteration order is deterministic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace dhc::graph {

/// Node identifier; nodes of an n-node graph are 0 .. n-1.
using NodeId = std::uint32_t;

/// An undirected edge; canonical form has first <= second.
using Edge = std::pair<NodeId, NodeId>;

/// Immutable undirected simple graph (no self-loops, no parallel edges).
class Graph {
 public:
  /// Builds a graph on `n` nodes from an edge list.  Self-loops are
  /// rejected; duplicate edges (in either orientation) are merged.
  Graph(NodeId n, const std::vector<Edge>& edges);

  /// Builds a graph on `n` nodes from its lower rows: row v is
  /// lower[row_offsets[v] .. row_offsets[v+1]) and lists v's neighbors
  /// w < v in strictly increasing order, so each edge appears once, in the
  /// row of its larger end.  row_offsets has n+1 entries, from 0 to
  /// lower.size().  G(n, p) and G(n, M) sample straight into this form.
  static Graph from_lower_rows(NodeId n, std::span<const std::uint64_t> row_offsets,
                               std::span<const NodeId> lower);

  /// Number of nodes.
  NodeId n() const { return n_; }

  /// Number of (undirected) edges.
  std::size_t m() const { return adjacency_.size() / 2; }

  /// Degree of `v`.
  std::size_t degree(NodeId v) const {
    return static_cast<std::size_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted neighbors of `v`.
  std::span<const NodeId> neighbors(NodeId v) const {
    return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
  }

  /// Returned by neighbor_rank() when the queried pair is not an edge.
  static constexpr std::size_t kNoRank = static_cast<std::size_t>(-1);

  /// Position of `v` in u's sorted neighbor list (so offsets[u] + rank is
  /// the directed-edge id of u→v), or kNoRank if (u, v) is not an edge.
  /// O(log deg(u)); the CONGEST send path's only per-message graph query.
  std::size_t neighbor_rank(NodeId u, NodeId v) const {
    const NodeId* first = adjacency_.data() + offsets_[u];
    const NodeId* last = adjacency_.data() + offsets_[u + 1];
    const NodeId* it = std::lower_bound(first, last, v);
    return (it != last && *it == v) ? static_cast<std::size_t>(it - first) : kNoRank;
  }

  /// Raw CSR row-offset table (n+1 entries); offsets()[v] is the index of
  /// v's first neighbor in adjacency().
  std::span<const std::uint64_t> row_offsets() const { return offsets_; }

  /// Raw CSR adjacency array (2m entries, sorted within each row).
  std::span<const NodeId> adjacency() const { return adjacency_; }

  /// Adjacency test in O(log deg(u)).
  bool has_edge(NodeId u, NodeId v) const;

  /// All edges in canonical (u < v) form, sorted.
  std::vector<Edge> edges() const;

  /// Maximum degree over all nodes (0 for the empty graph).
  std::size_t max_degree() const;

 private:
  explicit Graph(NodeId n) : n_(n) {}
  template <class ForEachLowerPair>
  void scatter(const ForEachLowerPair& for_each);

  NodeId n_;
  std::vector<std::uint64_t> offsets_;  // n+1 entries
  std::vector<NodeId> adjacency_;       // 2m entries, sorted per node
};

}  // namespace dhc::graph
