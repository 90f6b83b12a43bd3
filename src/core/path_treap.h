// Implicit treap with lazy reversal — the path representation behind the
// sequential rotation solver.
//
// The rotation step (paper Fig. 2) reverses the path suffix v_{j+1}..v_h.
// A naive array pays O(h−j) per rotation, which makes the O(n log n)-step
// algorithm quadratic; this treap supports append, position-of-node,
// node-at-position, and reverse-suffix in O(log n) expected each, so the
// Upcast root can solve instances with tens of thousands of nodes.
//
// Each graph node appears at most once on the path, so treap slots are
// indexed directly by NodeId.  A slot is one packed 24-byte `Node` (links,
// subtree size, a 32-bit priority and the flip / on-path bytes), so a node
// visit touches one or two cache lines, not one per field.
//
// A set `flip` bit means the node's subtree is pending reversal.  Only
// split and merge push flips down.  The read-only queries (`position`, `at`,
// `to_vector`) write nothing: they fold the flip bits along their climb or
// descent into an effective parity instead.  The path sequence is fixed by
// the split / flip / merge operations alone, never by the tree's shape.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "support/rng.h"

namespace dhc::core {

using graph::NodeId;

class PathTreap {
 public:
  /// Prepares slots for nodes 0..capacity-1; the path starts empty.
  explicit PathTreap(NodeId capacity, std::uint64_t seed = 0x9d2c5680);

  /// Number of nodes currently on the path.
  std::uint32_t size() const { return root_ == kNull ? 0 : nodes_[root_].size; }

  /// True iff `v` is on the path.
  bool contains(NodeId v) const { return nodes_[v].on_path != 0; }

  /// Appends `v` to the end of the path; `v` must not already be on it.
  void append(NodeId v);

  /// 1-based position of `v` on the path; `v` must be on the path.
  std::uint32_t position(NodeId v) const;

  /// Node at 1-based position `pos` (1 <= pos <= size()).
  NodeId at(std::uint32_t pos) const;

  /// The rotation step: reverses the suffix at positions j+1..size() and
  /// returns the new back of the path (the old node at position j+1, or the
  /// unchanged back when j = size()).  Requires 1 <= j <= size().
  NodeId rotate_suffix(std::uint32_t j);

  /// The full path, front (position 1) to back.
  std::vector<NodeId> to_vector() const;

 private:
  static constexpr std::uint32_t kNull = static_cast<std::uint32_t>(-1);

  struct Node {
    std::uint32_t left = kNull;
    std::uint32_t right = kNull;
    std::uint32_t parent = kNull;
    std::uint32_t size = 1;
    std::uint32_t prio = 0;
    std::uint8_t flip = 0;
    std::uint8_t on_path = 0;
  };
  static_assert(sizeof(Node) == 24, "a treap node is one packed 24-byte slot");

  struct Split {
    std::uint32_t left, right;  // roots of the two parts
    std::uint32_t right_front;  // leftmost node of the right part
  };

  std::uint32_t subtree_size(std::uint32_t t) const { return t == kNull ? 0 : nodes_[t].size; }
  void push_down(std::uint32_t t);
  /// Splits the path into (first k, rest); kNull stands for an empty part.
  Split split(std::uint32_t k);
  /// Concatenates the sequences rooted at `a` and `b`; returns the new root.
  std::uint32_t merge(std::uint32_t a, std::uint32_t b);
  void collect(std::uint32_t t, std::uint8_t parity, std::vector<NodeId>& out) const;

  std::vector<Node> nodes_;  // indexed by NodeId
  std::uint32_t root_ = kNull;
};

}  // namespace dhc::core
