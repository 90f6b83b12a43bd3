#include "core/path_treap.h"

#include <utility>

#include "support/require.h"

namespace dhc::core {

PathTreap::PathTreap(NodeId capacity, std::uint64_t seed) : nodes_(capacity) {
  support::Rng rng(seed);
  for (auto& node : nodes_) node.prio = static_cast<std::uint32_t>(rng.next_u64() >> 32);
}

void PathTreap::push_down(std::uint32_t t) {
  Node& node = nodes_[t];
  if (node.flip == 0) return;
  std::swap(node.left, node.right);
  if (node.left != kNull) nodes_[node.left].flip ^= 1;
  if (node.right != kNull) nodes_[node.right].flip ^= 1;
  node.flip = 0;
}

// Top-down and iterative: each visited node joins the left or the right
// part, hangs in the open slot of that part's deepest node so far, and gets
// its new subtree size on the way down, so no return climb is needed.  The
// last node to join the right part is its leftmost node.
PathTreap::Split PathTreap::split(std::uint32_t k) {
  Split out{kNull, kNull, kNull};
  std::uint32_t left_tail = kNull;  // deepest left-part node; its right slot is open
  std::uint32_t right_tail = kNull;  // deepest right-part node; its left slot is open
  std::uint32_t* left_slot = &out.left;
  std::uint32_t* right_slot = &out.right;
  for (std::uint32_t t = root_; t != kNull;) {
    push_down(t);
    Node& node = nodes_[t];
    const std::uint32_t left_size = subtree_size(node.left);
    if (k <= left_size) {
      // t and its right subtree go right; k nodes of its left subtree go left.
      node.size -= k;
      *right_slot = t;
      node.parent = right_tail;
      right_tail = t;
      right_slot = &node.left;
      t = node.left;
    } else {
      // t and its left subtree go left, with the first k - left_size - 1
      // nodes of its right subtree.
      node.size = k;
      *left_slot = t;
      node.parent = left_tail;
      left_tail = t;
      left_slot = &node.right;
      k -= left_size + 1;
      t = node.right;
    }
  }
  *left_slot = kNull;
  *right_slot = kNull;
  out.right_front = right_tail;
  return out;
}

// Top-down and iterative: the higher-priority root wins, absorbs the other
// tree's size, and the merge continues into its inner spine.
std::uint32_t PathTreap::merge(std::uint32_t a, std::uint32_t b) {
  std::uint32_t root = kNull;
  std::uint32_t* slot = &root;  // where the next node hangs
  std::uint32_t parent = kNull;
  while (a != kNull && b != kNull) {
    const bool a_wins = nodes_[a].prio > nodes_[b].prio;
    const std::uint32_t t = a_wins ? a : b;
    push_down(t);
    Node& node = nodes_[t];
    node.size += nodes_[a_wins ? b : a].size;
    *slot = t;
    node.parent = parent;
    parent = t;
    if (a_wins) {
      slot = &node.right;
      a = node.right;
    } else {
      slot = &node.left;
      b = node.left;
    }
  }
  const std::uint32_t rest = a != kNull ? a : b;
  *slot = rest;
  if (rest != kNull) nodes_[rest].parent = parent;
  return root;
}

void PathTreap::append(NodeId v) {
  DHC_REQUIRE(v < nodes_.size(), "append: node " << v << " beyond treap capacity");
  Node& node = nodes_[v];
  DHC_REQUIRE(node.on_path == 0, "append: node " << v << " is already on the path");
  node.on_path = 1;
  node.left = kNull;
  node.right = kNull;
  node.size = 1;
  node.flip = 0;
  root_ = merge(root_, v);
}

// A node's children are swapped in the path order iff the flips of the node
// and all its ancestors xor to 1 (its effective parity).  The first climb
// gets v's parity; the second counts the nodes left of v, peeling each
// node's own flip off to get its parent's parity.
std::uint32_t PathTreap::position(NodeId v) const {
  DHC_REQUIRE(v < nodes_.size() && nodes_[v].on_path == 1, "position: node " << v << " not on path");
  std::uint8_t parity = 0;
  for (std::uint32_t t = v; t != kNull; t = nodes_[t].parent) parity ^= nodes_[t].flip;

  std::uint32_t pos = 1 + subtree_size(parity ? nodes_[v].right : nodes_[v].left);
  for (std::uint32_t t = v; nodes_[t].parent != kNull; t = nodes_[t].parent) {
    parity ^= nodes_[t].flip;
    const Node& p = nodes_[nodes_[t].parent];
    const bool stored_right = p.right == t;
    // t lies right of its parent iff the stored side, read through the
    // parent's parity, is right; then the sibling is everything left of it.
    if (stored_right != (parity != 0)) pos += 1 + subtree_size(stored_right ? p.left : p.right);
  }
  return pos;
}

NodeId PathTreap::at(std::uint32_t pos) const {
  DHC_REQUIRE(pos >= 1 && pos <= size(), "at: position " << pos << " outside path of size " << size());
  std::uint32_t t = root_;
  std::uint8_t parity = 0;
  while (true) {
    const Node& node = nodes_[t];
    parity ^= node.flip;
    const std::uint32_t first = parity ? node.right : node.left;
    const std::uint32_t left_size = subtree_size(first);
    if (pos == left_size + 1) return static_cast<NodeId>(t);
    if (pos <= left_size) {
      t = first;
    } else {
      pos -= left_size + 1;
      t = parity ? node.left : node.right;
    }
  }
}

NodeId PathTreap::rotate_suffix(std::uint32_t j) {
  DHC_REQUIRE(j >= 1 && j <= size(), "rotate_suffix: split point " << j << " outside path");
  if (j == size()) return at(j);
  const Split parts = split(j);
  nodes_[parts.right].flip ^= 1;
  root_ = merge(parts.left, parts.right);
  return static_cast<NodeId>(parts.right_front);
}

void PathTreap::collect(std::uint32_t t, std::uint8_t parity, std::vector<NodeId>& out) const {
  if (t == kNull) return;
  const Node& node = nodes_[t];
  parity ^= node.flip;
  collect(parity ? node.right : node.left, parity, out);
  out.push_back(static_cast<NodeId>(t));
  collect(parity ? node.left : node.right, parity, out);
}

std::vector<NodeId> PathTreap::to_vector() const {
  std::vector<NodeId> out;
  out.reserve(size());
  collect(root_, 0, out);
  return out;
}

}  // namespace dhc::core
