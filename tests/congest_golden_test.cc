// Differential golden-seed test: the observable behavior of every CONGEST
// solver, pinned bit-for-bit.
//
// Each row of tests/golden/congest_golden.txt records one (algorithm, n,
// delta, c, seed) cell: success, every scalar in congest::Metrics, and an
// FNV-1a digest of all per-node metric vectors, the phase marks, and the
// returned cycle incidence.  The goldens were captured from the pre-arena
// simulator (std::map wake-ups, per-node vector inboxes), so any memory-
// layout refactor of graph/ or congest/ that changes *anything* observable —
// round counts, message order, RNG consumption, metrics, or the cycle
// itself — fails here with a field-level diff.
//
// Regenerate (only when an intentional semantic change is reviewed):
//   DHC_UPDATE_GOLDEN=1 ./congest_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dhc1.h"
#include "core/dhc2.h"
#include "core/dra.h"
#include "core/result.h"
#include "core/turau.h"
#include "core/upcast.h"
#include "graph/hamiltonian.h"
#include "runner/scenario.h"
#include "runner/trial_runner.h"

#ifndef DHC_GOLDEN_FILE
#define DHC_GOLDEN_FILE "tests/golden/congest_golden.txt"
#endif

namespace dhc {
namespace {

struct GoldenCell {
  runner::Algorithm algo;
  graph::NodeId n;
  double delta;
  double c;
  std::uint64_t trial;  // trial index within the cell (seed derivation input)
};

// The pinned grid: every CONGEST solver over two sizes, the paper's two
// density regimes, two seeded trials each.  Kept small enough that the whole
// sweep runs in a few seconds even under sanitizers.
std::vector<GoldenCell> golden_grid() {
  const std::vector<runner::Algorithm> algos = {
      runner::Algorithm::kDra,    runner::Algorithm::kDhc1,
      runner::Algorithm::kDhc2,   runner::Algorithm::kUpcast,
      runner::Algorithm::kTurau,
  };
  const std::vector<std::pair<double, double>> regimes = {{0.5, 2.5}, {1.0, 4.0}};
  std::vector<GoldenCell> grid;
  for (const auto algo : algos) {
    for (const graph::NodeId n : {48u, 96u}) {
      for (const auto& [delta, c] : regimes) {
        for (std::uint64_t trial = 0; trial < 2; ++trial) {
          grid.push_back({algo, n, delta, c, trial});
        }
      }
    }
  }
  return grid;
}

class Fnv1a {
 public:
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((x >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  }
  void mix_str(const std::string& s) {
    for (const char ch : s) h_ = (h_ ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
    mix(s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

// One observation line: every scalar metric in the clear (so diffs are
// readable) plus a digest covering the per-node vectors, phase marks, and
// the cycle itself.  `shards` is the simulator shard count (0 = the
// DHC_SHARDS environment default, which is how the CI shard matrix gates
// the pinned file against sharded execution).
std::string observe(const GoldenCell& cell, std::uint32_t shards = 0) {
  runner::TrialConfig tc;
  tc.algo = cell.algo;
  tc.family = runner::GraphFamily::kGnp;
  tc.n = cell.n;
  tc.delta = cell.delta;
  tc.c = cell.c;
  tc.trial_index = cell.trial;
  // Derive the seeds exactly like runner::expand() so the goldens also pin
  // the seed-derivation scheme (base_seed 7101 is this test's namespace).
  runner::Scenario s;
  s.algos = {cell.algo};
  s.sizes = {cell.n};
  s.deltas = {cell.delta};
  s.cs = {cell.c};
  s.seeds = cell.trial + 1;
  s.base_seed = 7101;
  const auto trials = runner::expand(s);
  const auto& expanded = trials.at(cell.trial);
  tc.graph_seed = expanded.graph_seed;
  tc.algo_seed = expanded.algo_seed;

  const graph::Graph g = runner::make_trial_instance(tc);

  core::Result r;
  switch (cell.algo) {
    case runner::Algorithm::kDra: {
      core::DraConfig cfg;
      cfg.shards = shards;
      r = core::run_dra(g, tc.algo_seed, cfg);
      break;
    }
    case runner::Algorithm::kDhc1: {
      core::Dhc1Config cfg;
      cfg.shards = shards;
      r = core::run_dhc1(g, tc.algo_seed, cfg);
      break;
    }
    case runner::Algorithm::kDhc2: {
      core::Dhc2Config cfg;
      cfg.delta = cell.delta;
      cfg.shards = shards;
      r = core::run_dhc2(g, tc.algo_seed, cfg);
      break;
    }
    case runner::Algorithm::kUpcast: {
      core::UpcastConfig cfg;
      cfg.shards = shards;
      r = core::run_upcast(g, tc.algo_seed, cfg);
      break;
    }
    case runner::Algorithm::kTurau: {
      core::TurauConfig cfg;
      cfg.shards = shards;
      r = core::run_turau(g, tc.algo_seed, cfg);
      break;
    }
    default:
      ADD_FAILURE() << "unsupported golden algorithm";
  }

  bool cycle_ok = false;
  if (r.success) {
    cycle_ok = graph::verify_cycle_incidence(g, r.cycle).ok();
  }

  Fnv1a digest;
  const auto& m = r.metrics;
  for (const auto x : m.node_messages_sent) digest.mix(x);
  for (const auto x : m.node_messages_received) digest.mix(x);
  for (const auto x : m.node_memory_words) digest.mix(static_cast<std::uint64_t>(x));
  for (const auto x : m.node_peak_memory_words) digest.mix(static_cast<std::uint64_t>(x));
  for (const auto x : m.node_compute_ops) digest.mix(x);
  digest.mix(m.phase_marks.size());
  for (const auto& [label, round] : m.phase_marks) {
    digest.mix_str(label);
    digest.mix(round);
  }
  if (r.success) {
    for (const auto& pair : r.cycle.neighbors_of) {
      digest.mix(pair[0]);
      digest.mix(pair[1]);
    }
  }
  digest.mix_str(r.failure_reason);
  for (const auto& [key, value] : r.stats) {
    digest.mix_str(key);
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    digest.mix(bits);
  }

  std::ostringstream os;
  os << runner::to_string(cell.algo) << ' ' << cell.n << ' ' << cell.delta << ' ' << cell.c
     << ' ' << cell.trial << " | success=" << (r.success ? 1 : 0)
     << " cycle_ok=" << (cycle_ok ? 1 : 0) << " rounds=" << m.rounds
     << " messages=" << m.messages << " bits=" << m.bits << " barriers=" << m.barrier_count
     << " barrier_cost=" << m.barrier_cost_rounds << " limit=" << (m.hit_round_limit ? 1 : 0)
     << " max_sent=" << m.max_node_messages_sent() << " peak_mem=" << m.max_node_peak_memory()
     << " max_compute=" << m.max_node_compute() << " digest=" << std::hex << digest.value();
  return os.str();
}

std::vector<std::string> observe_all() {
  std::vector<std::string> lines;
  for (const auto& cell : golden_grid()) lines.push_back(observe(cell));
  return lines;
}

TEST(CongestGolden, MatchesPinnedObservations) {
  const std::string path = DHC_GOLDEN_FILE;
  const auto lines = observe_all();

  if (std::getenv("DHC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write golden file " << path;
    out << "# congest golden observations — regenerate with DHC_UPDATE_GOLDEN=1\n"
        << "# (see tests/congest_golden_test.cc; regenerate only for reviewed semantic changes)\n";
    for (const auto& line : lines) out << line << '\n';
    GTEST_SKIP() << "golden file updated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run DHC_UPDATE_GOLDEN=1 ./congest_golden_test once";
  std::vector<std::string> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }

  ASSERT_EQ(expected.size(), lines.size())
      << "golden grid changed shape; regenerate deliberately";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(expected[i], lines[i]) << "golden row " << i << " diverged";
  }
}

// Shard invariance over the pinned grid: every solver, every regime, run at
// shards ∈ {2, 4, 8} with grain 1 (so even the 48-node cells actually shard)
// must reproduce the shards=1 observation line byte for byte — metrics,
// digests, stats, cycles, everything.
TEST(CongestGolden, ShardInvarianceAcrossTheGrid) {
  // Grain 1 via the environment (the config structs deliberately expose only
  // the shard count; the grain is a performance knob).
  const char* old_grain = std::getenv("DHC_SHARD_GRAIN");
  setenv("DHC_SHARD_GRAIN", "1", /*overwrite=*/1);

  const auto grid = golden_grid();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& cell = grid[i];
    const std::string base = observe(cell, /*shards=*/1);
    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      EXPECT_EQ(observe(cell, shards), base)
          << "golden cell " << i << " diverged at shards=" << shards;
    }
  }

  if (old_grain == nullptr) {
    unsetenv("DHC_SHARD_GRAIN");
  } else {
    setenv("DHC_SHARD_GRAIN", old_grain, 1);
  }
}

}  // namespace
}  // namespace dhc
