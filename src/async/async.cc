#include "async/async.h"

#include "support/require.h"

namespace dhc::async {

AsyncOutcome run_async(const kmachine::CongestAlgorithm& algo, const graph::Graph& g,
                       std::uint64_t seed, const AsyncConfig& cfg) {
  DHC_REQUIRE(algo != nullptr, "run_async needs an algorithm");
  congest::FaultPlan plan(cfg.delay, cfg.drop_prob, cfg.crash, congest::derive_fault_seed(seed),
                          cfg.max_rounds);
  plan.set_reliability(cfg.reliability, cfg.rto);

  AsyncOutcome out;
  out.result = algo(g, seed, nullptr, cfg.shards, &plan);
  const congest::Metrics& m = out.result.metrics;
  out.report.payload_messages = m.payload_messages();
  out.report.hit_round_limit = m.hit_round_limit;
  out.report.round_limit_live = m.round_limit_live;
  return out;
}

}  // namespace dhc::async
