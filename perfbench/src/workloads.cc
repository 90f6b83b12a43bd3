#include "workloads.h"

namespace perfbench {

namespace {

using dhc::runner::Algorithm;
using dhc::runner::ExecutionModel;
using dhc::runner::TrialConfig;

// splitmix64 finaliser; the benchmark's own, so library seed-derivation
// changes cannot move the inputs.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TrialConfig gnp(Algorithm algo, dhc::graph::NodeId n, double delta, double c) {
  TrialConfig t;
  t.algo = algo;
  t.family = dhc::runner::GraphFamily::kGnp;
  t.n = n;
  t.delta = delta;
  t.c = c;
  return t;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> ws;

  Workload dense;
  dense.name = "dense-dhc2";
  dense.base = gnp(Algorithm::kDhc2, 1024, 0.5, 3.5);
  dense.shards = 2;
  ws.push_back(dense);

  Workload sparse;
  sparse.name = "sparse-dra";
  sparse.base = gnp(Algorithm::kDra, 512, 1.0, 8.0);
  sparse.counter_window = 8;
  ws.push_back(sparse);

  Workload cre;
  cre.name = "cre-oracle";
  cre.base = gnp(Algorithm::kCre, 1u << 14, 1.0, 8.0);
  ws.push_back(cre);

  // dhc2 under 2% drops fails on about a third of raw trials (a Phase-1
  // partition gives up, or the final cycle is invalid; deterministically
  // per trial), so the workload draws from the raw trials of pool seed
  // 424242 that succeed.  Regenerate the lists if the async solver's
  // behaviour changes.
  Workload async_ack;
  async_ack.name = "async-ack";
  async_ack.base = gnp(Algorithm::kDhc2, 512, 0.5, 2.5);
  async_ack.base.model = ExecutionModel::kAsync;
  async_ack.base.delay_dist = "fixed:1";
  async_ack.base.drop_prob = 0.02;
  async_ack.base.reliability = "ack";
  async_ack.base.rto = "rto:4:2:16";
  async_ack.pool_seed = 424242;
  async_ack.pool = {2,   3,   4,   5,   7,   8,   10,  11,  12,  15,  16,  18,  20,  21,  23,
                    26,  27,  29,  31,  35,  36,  37,  39,  41,  42,  43,  44,  46,  47,  48,
                    49,  52,  53,  55,  56,  57,  59,  60,  61,  62,  63,  64,  65,  68,  69,
                    70,  71,  73,  75,  76,  77,  82,  84,  86,  87,  89,  90,  91,  92,  94,
                    95,  97,  100, 102, 103, 104, 105, 106, 107, 111, 112, 114, 116, 118, 119};
  // The hold-out seed's pool: the succeeding raw trials 120-239.
  async_ack.holdout_pool = {
      120, 121, 122, 123, 124, 125, 127, 128, 129, 130, 131, 132, 133, 135, 137,
      141, 142, 144, 145, 150, 151, 152, 153, 154, 155, 156, 158, 160, 161, 164,
      166, 167, 168, 169, 170, 171, 173, 174, 175, 176, 177, 178, 180, 181, 183,
      185, 186, 191, 194, 195, 196, 198, 199, 200, 202, 207, 209, 210, 215, 216,
      217, 219, 220, 223, 226, 228, 229, 231, 232, 233, 236, 237, 238, 239};
  ws.push_back(async_ack);

  for (std::size_t i = 0; i < ws.size(); ++i) {
    ws[i].base.config_index = i;
    ws[i].default_seed = 1;
    ws[i].holdout_seed = 1009;
  }
  return ws;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> ws = make_workloads();
  return ws;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

TrialConfig trial_config(const Workload& w, std::uint64_t seed, std::uint64_t index) {
  if (!w.pool.empty()) {
    const auto& pool = seed == w.holdout_seed ? w.holdout_pool : w.pool;
    Workload raw = w;
    raw.pool.clear();
    return trial_config(raw, w.pool_seed, pool[(mix(seed) + index) % pool.size()]);
  }
  TrialConfig t = w.base;
  t.trial_index = index;
  const std::uint64_t root = mix(mix(seed) ^ mix(w.base.config_index + 0x51ed));
  t.graph_seed = mix(root ^ (2 * index));
  t.algo_seed = mix(root ^ (2 * index + 1));
  return t;
}

}  // namespace perfbench
