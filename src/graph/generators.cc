#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "support/require.h"

namespace dhc::graph {

Graph gnp(NodeId n, double p, support::Rng& rng) {
  DHC_REQUIRE(p >= 0.0 && p <= 1.0, "gnp probability " << p << " outside [0,1]");
  if (p <= 0.0 || n < 2) return Graph(n, {});
  if (p >= 1.0) return complete_graph(n);

  // Batagelj–Brandes: walk the lower-triangular pair sequence with
  // geometric skips; expected work O(n + m).  The walk meets the pairs
  // (v, w), w < v, in increasing v and then increasing w, which is
  // lower-row order, so it writes the rows out as it goes.
  const double log1mp = std::log1p(-p);
  std::vector<std::uint64_t> row_offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> lower;
  lower.reserve(static_cast<std::size_t>(p * static_cast<double>(n) * (n - 1) / 2 * 1.1) + 16);
  std::uint64_t v = 1;
  std::int64_t w = -1;
  const auto nn = static_cast<std::uint64_t>(n);
  while (v < nn) {
    w += 1 + static_cast<std::int64_t>(rng.geometric_skip(log1mp));
    while (w >= static_cast<std::int64_t>(v) && v < nn) {
      w -= static_cast<std::int64_t>(v);
      row_offsets[++v] = lower.size();  // row v - 1 is complete
    }
    if (v < nn) lower.push_back(static_cast<NodeId>(w));
  }
  return Graph::from_lower_rows(n, row_offsets, lower);
}

Graph gnm(NodeId n, std::uint64_t m, support::Rng& rng) {
  const std::uint64_t max_edges = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  DHC_REQUIRE(m <= max_edges, "gnm: " << m << " edges exceed maximum " << max_edges);
  // Sample m distinct pair indices and sort them.  Index v(v-1)/2 + w names
  // the pair (v, w), w < v, so increasing indices are lower-row order and
  // each decodes straight into its row.
  std::vector<std::uint64_t> pair_ids = rng.sample_distinct(max_edges, m);
  std::sort(pair_ids.begin(), pair_ids.end());
  std::vector<std::uint64_t> row_offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> lower(pair_ids.size());
  std::uint64_t v = 0;  // row v holds the indices [v(v-1)/2, v(v+1)/2)
  for (std::size_t i = 0; i < pair_ids.size(); ++i) {
    while (v * (v + 1) / 2 <= pair_ids[i]) row_offsets[++v] = i;
    lower[i] = static_cast<NodeId>(pair_ids[i] - v * (v - 1) / 2);
  }
  while (v < n) row_offsets[++v] = pair_ids.size();
  return Graph::from_lower_rows(n, row_offsets, lower);
}

Graph random_regular(NodeId n, std::uint32_t d, support::Rng& rng) {
  DHC_REQUIRE(d < n, "random_regular: degree " << d << " must be < n = " << n);
  DHC_REQUIRE((static_cast<std::uint64_t>(n) * d) % 2 == 0, "random_regular: n*d must be even");
  if (d == 0) return Graph(n, {});

  // Configuration model with per-pair rejection: repeatedly match the first
  // remaining stub with a random other stub, rejecting self-loops and
  // duplicate edges locally.  Unlike whole-matching restarts (expected
  // e^{(d²-1)/4} attempts), this stays practical for d in the tens; a full
  // restart only happens in the rare event the tail of the pairing wedges.
  constexpr int kMaxRestarts = 1000;
  constexpr int kMaxLocalTries = 64;
  for (int attempt = 0; attempt < kMaxRestarts; ++attempt) {
    std::vector<NodeId> stubs(static_cast<std::size_t>(n) * d);
    for (NodeId v = 0; v < n; ++v) {
      for (std::uint32_t k = 0; k < d; ++k) stubs[static_cast<std::size_t>(v) * d + k] = v;
    }
    rng.shuffle(std::span<NodeId>(stubs));
    std::vector<Edge> edges;
    edges.reserve(stubs.size() / 2);
    // dhc-lint: allow(R2) -- membership-only duplicate-edge filter, never iterated; edge order comes from the seeded stub shuffle alone
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(stubs.size());
    const auto key = [](NodeId a, NodeId b) {
      return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
    };
    bool ok = true;
    while (!stubs.empty() && ok) {
      const NodeId u = stubs.back();
      stubs.pop_back();
      ok = false;
      for (int tries = 0; tries < kMaxLocalTries && !stubs.empty(); ++tries) {
        const std::size_t j = static_cast<std::size_t>(rng.below(stubs.size()));
        const NodeId v = stubs[j];
        if (v == u || seen.contains(key(u, v))) continue;
        stubs[j] = stubs.back();
        stubs.pop_back();
        seen.insert(key(u, v));
        edges.emplace_back(u, v);
        ok = true;
        break;
      }
    }
    if (ok && stubs.empty()) return Graph(n, edges);
  }
  DHC_REQUIRE(false, "random_regular: configuration model failed to converge for n="
                         << n << " d=" << d);
  return Graph(0, {});  // unreachable
}

double edge_probability(NodeId n, double c, double delta) {
  DHC_REQUIRE(n >= 2, "edge_probability needs n >= 2");
  DHC_REQUIRE(c > 0.0, "edge_probability needs c > 0");
  DHC_REQUIRE(delta > 0.0 && delta <= 1.0, "edge_probability needs delta in (0, 1]");
  const double p = c * std::log(static_cast<double>(n)) / std::pow(static_cast<double>(n), delta);
  return std::min(p, 1.0);
}

Graph cycle_graph(NodeId n) {
  DHC_REQUIRE(n >= 3, "cycle_graph needs n >= 3");
  std::vector<Edge> edges;
  edges.reserve(n);
  for (NodeId v = 0; v < n; ++v) edges.emplace_back(v, static_cast<NodeId>((v + 1) % n));
  return Graph(n, edges);
}

Graph complete_graph(NodeId n) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (NodeId v = 1; v < n; ++v) {
    for (NodeId w = 0; w < v; ++w) edges.emplace_back(v, w);  // lower-row order: no sort
  }
  return Graph(n, edges);
}

Graph star_graph(NodeId n) {
  DHC_REQUIRE(n >= 2, "star_graph needs n >= 2");
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (NodeId v = 1; v < n; ++v) edges.emplace_back(0, v);
  return Graph(n, edges);
}

Graph path_graph(NodeId n) {
  DHC_REQUIRE(n >= 2, "path_graph needs n >= 2");
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return Graph(n, edges);
}

Graph petersen_graph() {
  // Outer 5-cycle 0..4, inner pentagram 5..9, spokes i—i+5.
  std::vector<Edge> edges;
  for (NodeId i = 0; i < 5; ++i) {
    edges.emplace_back(i, (i + 1) % 5);
    edges.emplace_back(static_cast<NodeId>(i + 5), static_cast<NodeId>((i + 2) % 5 + 5));
    edges.emplace_back(i, static_cast<NodeId>(i + 5));
  }
  return Graph(10, edges);
}

Graph chung_lu(std::span<const double> weights, support::Rng& rng) {
  const auto n = static_cast<NodeId>(weights.size());
  double total = 0.0;
  for (const double w : weights) {
    DHC_REQUIRE(w >= 0.0, "chung_lu weights must be non-negative");
    total += w;
  }
  std::vector<Edge> edges;
  if (n < 2 || total <= 0.0) return Graph(n, edges);

  // Sort nodes by descending weight; then for each u, walk candidates v > u
  // with geometric skipping at rate p_max = w_u·w_v_first / total and thin
  // by the true probability — the standard O(n + m) Chung–Lu sampler
  // (Miller–Hagberg).
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  std::sort(order.begin(), order.end(),
            [&](NodeId a, NodeId b) { return weights[a] > weights[b]; });

  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    const double wu = weights[order[i]];
    if (wu <= 0.0) break;
    std::size_t j = i + 1;
    double p = std::min(1.0, wu * weights[order[j]] / total);
    while (j < order.size() && p > 0.0) {
      if (p < 1.0) {
        j += static_cast<std::size_t>(rng.geometric_skip(std::log1p(-p)));
      }
      if (j >= order.size()) break;
      const double q = std::min(1.0, wu * weights[order[j]] / total);
      if (rng.uniform01() < q / p) {
        edges.emplace_back(order[i], order[j]);
      }
      p = q;
      ++j;
    }
  }
  return Graph(n, edges);
}

std::vector<double> power_law_weights(NodeId n, double beta, double average_degree) {
  DHC_REQUIRE(beta > 2.0, "power_law_weights needs beta > 2 (finite mean)");
  DHC_REQUIRE(average_degree > 0.0, "average degree must be positive");
  std::vector<double> weights(n);
  const double exponent = -1.0 / (beta - 1.0);
  double sum = 0.0;
  for (NodeId i = 0; i < n; ++i) {
    weights[i] = std::pow(static_cast<double>(i) + 1.0, exponent);
    sum += weights[i];
  }
  const double scale = average_degree * static_cast<double>(n) / sum;
  for (auto& w : weights) w *= scale;
  return weights;
}

Graph complete_bipartite_graph(NodeId a, NodeId b) {
  DHC_REQUIRE(a >= 1 && b >= 1, "complete_bipartite_graph needs both sides non-empty");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(a) * b);
  for (NodeId u = 0; u < a; ++u) {
    for (NodeId v = 0; v < b; ++v) edges.emplace_back(u, static_cast<NodeId>(a + v));
  }
  return Graph(static_cast<NodeId>(a + b), edges);
}

}  // namespace dhc::graph
