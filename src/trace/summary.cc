#include "trace/summary.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "support/table.h"

namespace dhc::trace {

namespace {

using support::Table;

/// Spans aggregated by label, first-appearance order (DHC2 marks "merge"
/// once per level; the table shows one row per label).
struct PhaseAgg {
  std::string label;
  std::uint64_t spans = 0;
  std::uint64_t rounds = 0;
  std::uint64_t stepped = 0;
  std::uint64_t sent = 0;
  std::uint64_t bits = 0;
  std::uint64_t barriers = 0;
  std::uint64_t wall_ns = 0;
};

std::vector<PhaseAgg> aggregate_phases(const TraceData& data) {
  std::vector<PhaseAgg> out;
  for (const PhaseSpan& s : data.spans) {
    PhaseAgg* agg = nullptr;
    for (PhaseAgg& a : out) {
      if (a.label == s.label) {
        agg = &a;
        break;
      }
    }
    if (agg == nullptr) {
      out.push_back({});
      out.back().label = s.label;
      agg = &out.back();
    }
    agg->spans += 1;
    agg->rounds += s.rounds;
    agg->stepped += s.stepped;
    agg->sent += s.sent;
    agg->bits += s.bits;
    agg->barriers += s.barriers;
    agg->wall_ns += s.wall_ns;
  }
  return out;
}

std::string wall_ms(std::uint64_t ns) { return Table::num(static_cast<double>(ns) / 1e6, 3); }

/// "wall" in a counter name marks it nondeterministic; diffs report but do
/// not count those.
bool is_wall_key(const std::string& key) { return key.find("wall") != std::string::npos; }

}  // namespace

void print_summary(const TraceData& data, std::ostream& os) {
  os << "trace: algo=" << data.meta_str("algo") << " model=" << data.meta_str("model")
     << " family=" << data.meta_str("family");
  os << " n=" << data.meta_u64("n") << " m=" << data.meta_u64("m")
     << " graph_seed=" << data.meta_u64("graph_seed")
     << " algo_seed=" << data.meta_u64("algo_seed") << '\n';
  if (data.has_outcome) {
    os << "outcome: " << (data.success ? "success" : "FAILURE");
    if (!data.failure_reason.empty()) os << " (" << data.failure_reason << ')';
    os << '\n';
  }

  Table t({"phase", "spans", "rounds", "stepped", "messages", "bits", "barriers", "wall_ms"});
  PhaseAgg total;
  total.label = "TOTAL";
  for (const PhaseAgg& a : aggregate_phases(data)) {
    t.add_row({a.label, Table::num(a.spans), Table::num(a.rounds), Table::num(a.stepped),
               Table::num(a.sent), Table::num(a.bits), Table::num(a.barriers),
               wall_ms(a.wall_ns)});
    total.spans += a.spans;
    total.rounds += a.rounds;
    total.stepped += a.stepped;
    total.sent += a.sent;
    total.bits += a.bits;
    total.barriers += a.barriers;
    total.wall_ns += a.wall_ns;
  }
  t.add_row({total.label, Table::num(total.spans), Table::num(total.rounds),
             Table::num(total.stepped), Table::num(total.sent), Table::num(total.bits),
             Table::num(total.barriers), wall_ms(total.wall_ns)});
  t.print(os);

  os << "summary:";
  for (const auto& [key, value] : data.summary) os << ' ' << key << '=' << value;
  os << '\n';
  if (!data.krounds.empty()) {
    os << "kmachine: " << data.krounds.size() << " priced rounds\n";
  }
}

int print_diff(const TraceData& a, const TraceData& b, std::ostream& os) {
  int differing = 0;

  os << "diff: " << a.meta_str("algo") << " (A) vs " << b.meta_str("algo") << " (B)\n";

  const std::vector<PhaseAgg> pa = aggregate_phases(a);
  const std::vector<PhaseAgg> pb = aggregate_phases(b);
  std::vector<std::string> labels;
  for (const PhaseAgg& p : pa) labels.push_back(p.label);
  for (const PhaseAgg& p : pb) {
    if (std::find(labels.begin(), labels.end(), p.label) == labels.end()) {
      labels.push_back(p.label);
    }
  }
  const auto lookup = [](const std::vector<PhaseAgg>& v, const std::string& label) {
    for (const PhaseAgg& p : v) {
      if (p.label == label) return p;
    }
    return PhaseAgg{};
  };

  Table t({"phase", "rounds A", "rounds B", "d_rounds", "msgs A", "msgs B", "d_msgs", "bits A",
           "bits B", "d_bits"});
  const auto delta = [](std::uint64_t x, std::uint64_t y) {
    const auto d = static_cast<std::int64_t>(y) - static_cast<std::int64_t>(x);
    std::string s = std::to_string(d);
    if (d > 0) s.insert(s.begin(), '+');
    return s;
  };
  for (const std::string& label : labels) {
    const PhaseAgg x = lookup(pa, label);
    const PhaseAgg y = lookup(pb, label);
    t.add_row({label, Table::num(x.rounds), Table::num(y.rounds), delta(x.rounds, y.rounds),
               Table::num(x.sent), Table::num(y.sent), delta(x.sent, y.sent),
               Table::num(x.bits), Table::num(y.bits), delta(x.bits, y.bits)});
    if (x.rounds != y.rounds || x.sent != y.sent || x.bits != y.bits) ++differing;
  }
  t.print(os);

  std::vector<std::string> keys;
  for (const auto& [key, value] : a.summary) keys.push_back(key);
  for (const auto& [key, value] : b.summary) {
    if (a.summary.find(key) == a.summary.end()) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  for (const std::string& key : keys) {
    const std::uint64_t x = a.summary_u64(key);
    const std::uint64_t y = b.summary_u64(key);
    if (x == y) continue;
    os << "summary." << key << ": " << x << " -> " << y;
    if (is_wall_key(key)) {
      os << " (wall; not counted)";
    } else {
      ++differing;
    }
    os << '\n';
  }

  os << (differing == 0 ? "traces agree on every counter\n"
                        : "counters differ: " + std::to_string(differing) + "\n");
  return differing;
}

void print_imbalance(const TraceData& data, std::ostream& os) {
  std::vector<std::uint64_t> shard_wall;
  std::vector<std::uint64_t> shard_active;
  std::uint64_t sharded_rounds = 0;
  double worst_active_factor = 0.0;
  double worst_wall_factor = 0.0;
  for (const RoundRecord& r : data.rounds) {
    if (!r.sharded || r.shard_active.empty()) continue;
    ++sharded_rounds;
    if (shard_wall.size() < r.shard_active.size()) {
      shard_wall.resize(r.shard_active.size(), 0);
      shard_active.resize(r.shard_active.size(), 0);
    }
    std::uint64_t act_sum = 0, act_max = 0, wall_sum = 0, wall_max = 0;
    for (std::size_t s = 0; s < r.shard_active.size(); ++s) {
      shard_active[s] += r.shard_active[s];
      act_sum += r.shard_active[s];
      act_max = std::max(act_max, static_cast<std::uint64_t>(r.shard_active[s]));
      if (s < r.shard_wall_ns.size()) {
        shard_wall[s] += r.shard_wall_ns[s];
        wall_sum += r.shard_wall_ns[s];
        wall_max = std::max(wall_max, r.shard_wall_ns[s]);
      }
    }
    const double k = static_cast<double>(r.shard_active.size());
    if (act_sum > 0) {
      worst_active_factor =
          std::max(worst_active_factor,
                   static_cast<double>(act_max) * k / static_cast<double>(act_sum));
    }
    if (wall_sum > 0) {
      worst_wall_factor =
          std::max(worst_wall_factor,
                   static_cast<double>(wall_max) * k / static_cast<double>(wall_sum));
    }
  }

  if (sharded_rounds == 0) {
    os << "no sharded rounds in trace (run with DHC_SHARDS>1 or --shards to profile)\n";
    return;
  }

  os << "shard imbalance over " << sharded_rounds << " sharded rounds ("
     << shard_wall.size() << " shards)\n";
  Table t({"shard", "active_total", "wall_ms"});
  std::uint64_t act_sum = 0, wall_sum = 0;
  for (std::size_t s = 0; s < shard_wall.size(); ++s) {
    t.add_row({Table::num(static_cast<std::uint64_t>(s)), Table::num(shard_active[s]),
               wall_ms(shard_wall[s])});
    act_sum += shard_active[s];
    wall_sum += shard_wall[s];
  }
  t.print(os);
  const double k = static_cast<double>(shard_wall.size());
  if (act_sum > 0) {
    const std::uint64_t act_max = *std::max_element(shard_active.begin(), shard_active.end());
    os << "active imbalance (max/mean): overall "
       << Table::num(static_cast<double>(act_max) * k / static_cast<double>(act_sum), 3)
       << ", worst round " << Table::num(worst_active_factor, 3) << '\n';
  }
  if (wall_sum > 0) {
    const std::uint64_t wall_max = *std::max_element(shard_wall.begin(), shard_wall.end());
    os << "wall imbalance (max/mean):   overall "
       << Table::num(static_cast<double>(wall_max) * k / static_cast<double>(wall_sum), 3)
       << ", worst round " << Table::num(worst_wall_factor, 3) << '\n';
  }
}

}  // namespace dhc::trace
