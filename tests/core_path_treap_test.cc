// Tests for the implicit treap behind the sequential rotation solver,
// validated against a naive std::vector reference model.
#include "core/path_treap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "support/rng.h"

namespace dhc::core {
namespace {

TEST(PathTreap, AppendAndOrder) {
  PathTreap t(10);
  EXPECT_EQ(t.size(), 0u);
  for (NodeId v : {3u, 1u, 4u, 0u}) t.append(v);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.to_vector(), (std::vector<NodeId>{3, 1, 4, 0}));
}

TEST(PathTreap, PositionsAndAt) {
  PathTreap t(10);
  for (NodeId v : {5u, 2u, 8u}) t.append(v);
  EXPECT_EQ(t.position(5), 1u);
  EXPECT_EQ(t.position(2), 2u);
  EXPECT_EQ(t.position(8), 3u);
  EXPECT_EQ(t.at(1), 5u);
  EXPECT_EQ(t.at(2), 2u);
  EXPECT_EQ(t.at(3), 8u);
}

TEST(PathTreap, ContainsAndDuplicateAppendRejected) {
  PathTreap t(5);
  t.append(2);
  EXPECT_TRUE(t.contains(2));
  EXPECT_FALSE(t.contains(3));
  EXPECT_THROW(t.append(2), std::invalid_argument);
  EXPECT_THROW(t.append(7), std::invalid_argument);
}

TEST(PathTreap, RotateSuffixMatchesDefinition) {
  // Path 0 1 2 3 4 5; rotate at j=2 -> 0 1 5 4 3 2 (suffix reversed).
  PathTreap t(6);
  for (NodeId v = 0; v < 6; ++v) t.append(v);
  EXPECT_EQ(t.rotate_suffix(2), 2u);  // returns the new back (head)
  EXPECT_EQ(t.to_vector(), (std::vector<NodeId>{0, 1, 5, 4, 3, 2}));
  EXPECT_EQ(t.at(6), 2u);
  EXPECT_EQ(t.position(5), 3u);
}

TEST(PathTreap, RotateAtEndIsNoop) {
  PathTreap t(4);
  for (NodeId v = 0; v < 4; ++v) t.append(v);
  EXPECT_EQ(t.rotate_suffix(4), 3u);  // the back is unchanged
  EXPECT_EQ(t.to_vector(), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(PathTreap, RotateWholePathReverses) {
  PathTreap t(4);
  for (NodeId v = 0; v < 4; ++v) t.append(v);
  EXPECT_EQ(t.rotate_suffix(1), 1u);  // suffix 2..4 reversed: 0 3 2 1
  EXPECT_EQ(t.to_vector(), (std::vector<NodeId>{0, 3, 2, 1}));
}

TEST(PathTreap, OutOfRangeQueriesThrow) {
  PathTreap t(4);
  t.append(0);
  EXPECT_THROW(t.at(0), std::invalid_argument);
  EXPECT_THROW(t.at(2), std::invalid_argument);
  EXPECT_THROW(t.position(1), std::invalid_argument);
  EXPECT_THROW(t.rotate_suffix(0), std::invalid_argument);
  EXPECT_THROW(t.rotate_suffix(2), std::invalid_argument);
}

// Randomized differential test against a vector reference model.
class TreapDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreapDifferential, MatchesNaiveModelUnderRandomOps) {
  support::Rng rng(GetParam());
  const NodeId capacity = 200;
  PathTreap treap(capacity, rng.next_u64());
  std::vector<NodeId> model;
  std::vector<bool> used(capacity, false);

  for (int op = 0; op < 600; ++op) {
    const bool can_append = model.size() < capacity;
    const bool do_append = model.size() < 2 || (can_append && rng.bernoulli(0.4));
    if (do_append) {
      NodeId v;
      do {
        v = static_cast<NodeId>(rng.below(capacity));
      } while (used[v]);
      used[v] = true;
      treap.append(v);
      model.push_back(v);
    } else {
      const auto j = static_cast<std::uint32_t>(1 + rng.below(model.size()));
      const NodeId back = treap.rotate_suffix(j);
      std::reverse(model.begin() + j, model.end());
      ASSERT_EQ(back, model.back()) << "op " << op << " j=" << j;
    }
    // Spot-check a few positions every iteration; full check periodically.
    const auto probe = static_cast<std::size_t>(rng.below(model.size()));
    ASSERT_EQ(treap.at(static_cast<std::uint32_t>(probe + 1)), model[probe]);
    ASSERT_EQ(treap.position(model[probe]), probe + 1);
    if (op % 100 == 99) {
      ASSERT_EQ(treap.to_vector(), model);
    }
  }
  EXPECT_EQ(treap.to_vector(), model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreapDifferential, ::testing::Range<std::uint64_t>(0, 10));

// Rotation-heavy differential test with *full* sequence verification after
// every operation.  The spot checks above probe single positions; this
// variant catches split/merge bookkeeping bugs that leave the tree shape
// self-consistent at the probed node but wrong elsewhere (e.g. a lazy-flip
// flag pushed down one subtree but not the other), and deliberately hits
// the boundary rotations j = 1 (maximal reverse: positions 2..size) and
// j = size (no-op).
class TreapRotationStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreapRotationStress, FullSequenceMatchesModelAfterEveryOp) {
  support::Rng rng(0x72ea9ULL ^ GetParam());
  const NodeId capacity = 64;
  PathTreap treap(capacity, rng.next_u64());
  std::vector<NodeId> model;

  // Build the full path first so every rotation acts on a fixed node set.
  std::vector<NodeId> order(capacity);
  for (NodeId v = 0; v < capacity; ++v) order[v] = v;
  rng.shuffle(std::span<NodeId>(order));
  for (const NodeId v : order) {
    treap.append(v);
    model.push_back(v);
  }

  for (int op = 0; op < 200; ++op) {
    std::uint32_t j;
    if (op % 10 == 0) {
      j = 1;  // maximal suffix reverse (position 1 stays fixed by the API)
    } else if (op % 10 == 5) {
      j = static_cast<std::uint32_t>(model.size());  // no-op boundary
    } else {
      j = static_cast<std::uint32_t>(1 + rng.below(model.size()));
    }
    const NodeId back = treap.rotate_suffix(j);
    std::reverse(model.begin() + j, model.end());
    ASSERT_EQ(back, model.back()) << "op " << op << " j=" << j;
    ASSERT_EQ(treap.to_vector(), model) << "op " << op << " j=" << j;
    ASSERT_EQ(treap.size(), model.size());
    // Positions must agree with the sequence, not just the sequence itself.
    const auto probe = static_cast<std::size_t>(rng.below(model.size()));
    ASSERT_EQ(treap.position(model[probe]), probe + 1) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreapRotationStress, ::testing::Range<std::uint64_t>(0, 6));

// A deep tree at the cre-oracle size (n = 2^14): the walk's interleaving of
// appends and rotations, with every rotation's returned back, spot positions
// and a periodic full sequence checked against the vector model.
TEST(PathTreap, DeepTreeMatchesModelUnderWalkLikeOps) {
  support::Rng rng(0xdee9ULL);
  const NodeId capacity = NodeId{1} << 14;
  PathTreap treap(capacity, rng.next_u64());
  std::vector<NodeId> order(capacity);
  for (NodeId v = 0; v < capacity; ++v) order[v] = v;
  rng.shuffle(std::span<NodeId>(order));
  std::vector<NodeId> model;

  std::size_t next = 0;
  for (int op = 0; op < 6000; ++op) {
    if (next < capacity && (model.size() < 2 || rng.bernoulli(0.5))) {
      treap.append(order[next]);
      model.push_back(order[next]);
      ++next;
    } else {
      const auto j = static_cast<std::uint32_t>(1 + rng.below(model.size()));
      const NodeId back = treap.rotate_suffix(j);
      std::reverse(model.begin() + j, model.end());
      ASSERT_EQ(back, model.back()) << "op " << op << " j=" << j;
    }
    const auto probe = static_cast<std::size_t>(rng.below(model.size()));
    ASSERT_EQ(treap.position(model[probe]), probe + 1) << "op " << op;
    ASSERT_EQ(treap.at(static_cast<std::uint32_t>(probe + 1)), model[probe]) << "op " << op;
    if (op % 500 == 499) {
      ASSERT_EQ(treap.size(), model.size());
      ASSERT_EQ(treap.to_vector(), model) << "op " << op;
    }
  }
  // Fill the path, then rotate the full path thousands of times.
  for (; next < capacity; ++next) {
    treap.append(order[next]);
    model.push_back(order[next]);
  }
  for (int op = 0; op < 4000; ++op) {
    const auto j = static_cast<std::uint32_t>(1 + rng.below(model.size()));
    const NodeId back = treap.rotate_suffix(j);
    std::reverse(model.begin() + j, model.end());
    ASSERT_EQ(back, model.back()) << "op " << op << " j=" << j;
    if (op % 500 == 499) {
      ASSERT_EQ(treap.to_vector(), model) << "op " << op;
    }
  }
  EXPECT_EQ(treap.to_vector(), model);
}

// position() and at() are queries: with lazy flips pending all over the
// tree, calling them for every node must leave the sequence as it was.
TEST(PathTreap, QueriesLeaveTheSequenceUnchanged) {
  support::Rng rng(0x9e7ULL);
  const NodeId capacity = 512;
  PathTreap treap(capacity, rng.next_u64());
  std::vector<NodeId> model;
  for (NodeId v = 0; v < capacity; ++v) {
    treap.append(v);
    model.push_back(v);
  }
  for (int op = 0; op < 50; ++op) {
    const auto j = static_cast<std::uint32_t>(1 + rng.below(model.size()));
    treap.rotate_suffix(j);
    std::reverse(model.begin() + j, model.end());
    const std::vector<NodeId> before = treap.to_vector();
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(treap.position(model[i]), i + 1) << "op " << op;
      ASSERT_EQ(treap.at(static_cast<std::uint32_t>(i + 1)), model[i]) << "op " << op;
    }
    ASSERT_EQ(treap.to_vector(), before) << "op " << op;
    ASSERT_EQ(before, model) << "op " << op;
  }
}

}  // namespace
}  // namespace dhc::core
