// The benchmark's workloads.  They are defined here, not taken from the
// library's bench presets, so that a change to the library cannot silently
// change what is measured.  Every trial is a pure function of
// (workload, seed, trial index).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runner/scenario.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// Trial template: solver, model, graph family, size and fault knobs.
  /// trial_config() fills in the index and the two seeds.
  dhc::runner::TrialConfig base;
  /// Simulator shards per trial (1 or 2; trials run one at a time).
  std::uint32_t shards = 1;
  /// Traced trials whose exact counters are reported (always the first
  /// ones, so the counters repeat bitwise for a given seed).
  std::size_t counter_window = 2;
  /// Seed used when --seed is not given, and a seed kept back for
  /// re-checking a claim on inputs it was not written against.
  std::uint64_t default_seed = 1;
  std::uint64_t holdout_seed = 2;
  /// When non-empty, trials come from this pool of trial indices under
  /// `pool_seed`: trial i of a run with seed s is entry (hash(s) + i) mod
  /// size.  Used where a share of raw trials fails deterministically and a
  /// workload must not fail trials; the pool lists the raw trials that
  /// succeed, in index order (see README.md).  The hold-out seed draws from
  /// `holdout_pool` instead, a disjoint screened range, so that its inputs
  /// stay unused by every other seed.
  std::vector<std::uint16_t> pool;
  std::vector<std::uint16_t> holdout_pool;
  std::uint64_t pool_seed = 0;
};

/// All workloads, in a fixed order.
const std::vector<Workload>& workloads();

/// The workload called `name`, or nullptr.
const Workload* find_workload(std::string_view name);

/// Trial `index` of `w` under workload seed `seed`.
dhc::runner::TrialConfig trial_config(const Workload& w, std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench
