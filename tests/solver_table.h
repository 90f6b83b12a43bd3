// Shared test helper: the five registered CONGEST solvers as a {name, run}
// table over congest::EngineOptions (async_backend_test, kmachine_test).
//
// Each entry calls the solver's `run_*` with its default config and the
// given engine options (observer, shards, faults, trace) — the call the
// runner makes, minus the scenario parameters: Dhc2Config::delta keeps its
// own default (0.5), where TrialConfig::delta would pass 0.0.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "congest/network.h"
#include "core/dhc1.h"
#include "core/dhc2.h"
#include "core/dra.h"
#include "core/result.h"
#include "core/turau.h"
#include "core/upcast.h"
#include "graph/graph.h"

namespace dhc::testutil {

using SolverRun = core::Result (*)(const graph::Graph& g, std::uint64_t seed,
                                   const congest::EngineOptions& engine);

struct Solver {
  const char* name;
  SolverRun run;
};

/// `run` with a default Config whose engine options are `engine`.
template <class Config, core::Result (*Run)(const graph::Graph&, std::uint64_t, const Config&)>
core::Result run_with_engine(const graph::Graph& g, std::uint64_t seed,
                             const congest::EngineOptions& engine) {
  Config cfg;
  static_cast<congest::EngineOptions&>(cfg) = engine;
  return Run(g, seed, cfg);
}

/// The five registered CONGEST solvers, by their runner names.
inline constexpr Solver kSolvers[] = {
    {"dra", run_with_engine<core::DraConfig, core::run_dra>},
    {"dhc1", run_with_engine<core::Dhc1Config, core::run_dhc1>},
    {"dhc2", run_with_engine<core::Dhc2Config, core::run_dhc2>},
    {"turau", run_with_engine<core::TurauConfig, core::run_turau>},
    {"upcast", run_with_engine<core::UpcastConfig, core::run_upcast>},
};

/// The kSolvers entry called `name`; throws on an unknown name.
inline const Solver& solver(std::string_view name) {
  for (const Solver& s : kSolvers) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("no solver named " + std::string(name));
}

}  // namespace dhc::testutil
