#include "runner/aggregator.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>

#include "support/json.h"
#include "support/require.h"
#include "support/stats.h"

namespace dhc::runner {

using support::json_escape;

namespace {

MetricSummary summarize_metric(const std::vector<double>& values) {
  MetricSummary m;
  m.count = values.size();
  if (values.empty()) return m;
  const auto s = support::summarize(values);
  m.mean = s.mean;
  m.median = s.median;
  m.min = s.min;
  m.max = s.max;
  m.p95 = support::quantile(values, 0.95);
  return m;
}

/// Deterministic JSON/CSV number rendering: integers print without a
/// fraction, everything else round-trips through %.17g.
std::string fmt_num(double v) {
  if (std::isfinite(v) && std::floor(v) == v && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_metric_json(std::ostream& os, const char* name, const MetricSummary& m) {
  os << '"' << name << "\": {\"count\": " << m.count << ", \"mean\": " << fmt_num(m.mean)
     << ", \"median\": " << fmt_num(m.median) << ", \"p95\": " << fmt_num(m.p95)
     << ", \"min\": " << fmt_num(m.min) << ", \"max\": " << fmt_num(m.max) << '}';
}

}  // namespace

std::vector<ConfigSummary> aggregate(const std::vector<TrialConfig>& trials,
                                     const std::vector<TrialResult>& results) {
  DHC_REQUIRE(trials.size() == results.size(),
              "aggregate needs one result per trial, got " << results.size() << " results for "
                                                           << trials.size() << " trials");
  struct Group {
    TrialConfig config;
    std::vector<double> rounds, messages, bits, memory;
    std::map<std::string, double> stat_sums;
    std::vector<std::string> trace_files;
    std::uint64_t trials = 0;
    std::uint64_t successes = 0;
    double wall = 0.0;
  };
  // One counting pass so each cell's metric vectors are reserved exactly
  // once instead of growing geometrically while trials stream in.
  std::map<std::size_t, std::size_t> cell_sizes;
  for (const auto& t : trials) ++cell_sizes[t.config_index];

  std::map<std::size_t, Group> groups;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const auto& t = trials[i];
    const auto& r = results[i];
    auto& g = groups[t.config_index];
    if (g.trials == 0) {
      g.config = t;
      g.config.trial_index = 0;
      g.config.graph_seed = 0;
      g.config.algo_seed = 0;
      const std::size_t cell = cell_sizes[t.config_index];
      g.rounds.reserve(cell);
      g.messages.reserve(cell);
      g.bits.reserve(cell);
      g.memory.reserve(cell);
    }
    ++g.trials;
    g.wall += r.wall_seconds;
    if (!r.trace_file.empty()) g.trace_files.push_back(r.trace_file);
    for (const auto& [key, value] : r.stats) g.stat_sums[key] += value;
    if (!r.success) continue;
    ++g.successes;
    g.rounds.push_back(r.rounds);
    g.messages.push_back(r.messages);
    g.bits.push_back(r.bits);
    g.memory.push_back(r.peak_memory);
  }

  std::vector<ConfigSummary> out;
  out.reserve(groups.size());
  for (auto& [index, g] : groups) {
    (void)index;
    ConfigSummary s;
    s.config = g.config;
    s.trials = g.trials;
    s.successes = g.successes;
    s.success_rate = static_cast<double>(g.successes) / static_cast<double>(g.trials);
    s.rounds = summarize_metric(g.rounds);
    s.messages = summarize_metric(g.messages);
    s.bits = summarize_metric(g.bits);
    s.memory = summarize_metric(g.memory);
    for (const auto& [key, sum] : g.stat_sums) {
      s.stat_means[key] = sum / static_cast<double>(g.trials);
    }
    s.wall_seconds_total = g.wall;
    s.trace_files = std::move(g.trace_files);
    out.push_back(std::move(s));
  }
  return out;
}

support::Table summary_table(const std::vector<ConfigSummary>& summaries) {
  support::Table table({"algo", "model", "family", "n", "delta", "c", "merge", "k", "success",
                        "med rounds", "p95 rounds", "med msgs", "med mem"});
  for (const auto& s : summaries) {
    const auto& c = s.config;
    table.add_row({to_string(c.algo), to_string(c.model), to_string(c.family),
                   support::Table::num(static_cast<std::uint64_t>(c.n)),
                   support::Table::num(c.delta, 2), support::Table::num(c.c, 2),
                   to_string(c.merge),
                   c.machines == 0 ? "-" : support::Table::num(static_cast<std::uint64_t>(c.machines)),
                   std::to_string(s.successes) + "/" + std::to_string(s.trials),
                   s.successes == 0 ? "-" : support::Table::num(s.rounds.median, 0),
                   s.successes == 0 ? "-" : support::Table::num(s.rounds.p95, 0),
                   s.successes == 0 ? "-" : support::Table::num(s.messages.median, 0),
                   s.successes == 0 ? "-" : support::Table::num(s.memory.median, 0)});
  }
  return table;
}

void write_json(std::ostream& os, const std::string& scenario_name,
                const std::vector<ConfigSummary>& summaries) {
  os << "{\n  \"scenario\": \"" << json_escape(scenario_name) << "\",\n  \"configs\": [";
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const auto& s = summaries[i];
    const auto& c = s.config;
    os << (i == 0 ? "" : ",") << "\n    {\n";
    os << "      \"algo\": \"" << to_string(c.algo) << "\",\n";
    os << "      \"model\": \"" << to_string(c.model) << "\",\n";
    os << "      \"family\": \"" << to_string(c.family) << "\",\n";
    os << "      \"n\": " << c.n << ",\n";
    os << "      \"delta\": " << fmt_num(c.delta) << ",\n";
    os << "      \"c\": " << fmt_num(c.c) << ",\n";
    os << "      \"merge\": \"" << to_string(c.merge) << "\",\n";
    os << "      \"machines\": " << c.machines << ",\n";
    os << "      \"bandwidth\": " << c.bandwidth << ",\n";
    if (c.model == ExecutionModel::kAsync) {
      // Async-only fields, emitted conditionally so every pre-async artifact
      // stays byte-identical (same pattern as trace_files below).
      os << "      \"delay_dist\": \"" << json_escape(c.delay_dist) << "\",\n";
      os << "      \"drop_prob\": " << fmt_num(c.drop_prob) << ",\n";
      os << "      \"crash_schedule\": \"" << json_escape(c.crash_schedule) << "\",\n";
      os << "      \"reliability\": \"" << json_escape(c.reliability) << "\",\n";
      os << "      \"rto\": \"" << json_escape(c.rto) << "\",\n";
      os << "      \"max_rounds\": " << c.max_rounds << ",\n";
    }
    os << "      \"trials\": " << s.trials << ",\n";
    os << "      \"successes\": " << s.successes << ",\n";
    os << "      \"success_rate\": " << fmt_num(s.success_rate) << ",\n";
    os << "      ";
    write_metric_json(os, "rounds", s.rounds);
    os << ",\n      ";
    write_metric_json(os, "messages", s.messages);
    os << ",\n      ";
    write_metric_json(os, "bits", s.bits);
    os << ",\n      ";
    write_metric_json(os, "memory", s.memory);
    os << ",\n      \"stats\": {";
    bool first = true;
    for (const auto& [key, value] : s.stat_means) {
      os << (first ? "" : ", ") << '"' << json_escape(key) << "\": " << fmt_num(value);
      first = false;
    }
    os << '}';
    if (!s.trace_files.empty()) {
      os << ",\n      \"trace_files\": [";
      for (std::size_t j = 0; j < s.trace_files.size(); ++j) {
        os << (j == 0 ? "" : ", ") << '"' << json_escape(s.trace_files[j]) << '"';
      }
      os << ']';
    }
    os << "\n    }";
  }
  os << "\n  ]\n}\n";
}

void write_csv(std::ostream& os, const std::vector<ConfigSummary>& summaries) {
  // Fixed columns first, then one `stat_<key>` column per stat-mean key seen
  // in *any* summary (sorted union, so the header is deterministic and every
  // model-specific stat — kmachine_rounds, busiest_link_peak, ... — is
  // exported).  Cells without that stat stay empty.
  std::set<std::string> stat_columns;
  for (const auto& s : summaries) {
    for (const auto& [key, value] : s.stat_means) {
      (void)value;
      stat_columns.insert(key);
    }
  }
  os << "algo,model,family,n,delta,c,merge,machines,bandwidth,trials,successes,success_rate,"
        "rounds_mean,rounds_median,rounds_p95,messages_mean,messages_median,messages_p95,"
        "bits_median,memory_median";
  for (const auto& key : stat_columns) os << ",stat_" << key;
  os << '\n';
  for (const auto& s : summaries) {
    const auto& c = s.config;
    os << to_string(c.algo) << ',' << to_string(c.model) << ',' << to_string(c.family) << ','
       << c.n << ',' << fmt_num(c.delta) << ',' << fmt_num(c.c) << ',' << to_string(c.merge)
       << ',' << c.machines << ',' << c.bandwidth << ',' << s.trials << ',' << s.successes
       << ',' << fmt_num(s.success_rate) << ',' << fmt_num(s.rounds.mean) << ','
       << fmt_num(s.rounds.median) << ',' << fmt_num(s.rounds.p95) << ','
       << fmt_num(s.messages.mean) << ',' << fmt_num(s.messages.median) << ','
       << fmt_num(s.messages.p95) << ',' << fmt_num(s.bits.median) << ','
       << fmt_num(s.memory.median);
    for (const auto& key : stat_columns) {
      os << ',';
      const auto it = s.stat_means.find(key);
      if (it != s.stat_means.end()) os << fmt_num(it->second);
    }
    os << '\n';
  }
}

}  // namespace dhc::runner
