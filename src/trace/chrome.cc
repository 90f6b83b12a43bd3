#include "trace/chrome.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>

#include "support/json.h"

namespace dhc::trace {

using support::json_escape;

namespace {

std::string fmt_us(double us) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", us);
  return buf;
}

}  // namespace

void write_chrome_trace(const TraceData& data, std::ostream& os) {
  // Build the time axis: each executed round occupies [start, end) in
  // microseconds; idle (skipped) rounds take no time on the wall axis and
  // one tick on the fallback round axis.
  std::uint64_t total_wall = 0;
  for (const RoundRecord& r : data.rounds) total_wall += r.wall_ns;
  const bool use_walls = total_wall > 0;

  std::map<std::uint64_t, std::pair<double, double>> round_times;  // round -> {start, end} us
  double cursor = 0.0;
  std::uint64_t last_round = 0;
  for (const RoundRecord& r : data.rounds) {
    if (!use_walls && r.round > last_round + 1 && last_round != 0) {
      cursor += static_cast<double>(r.round - last_round - 1);  // idle gap ticks
    }
    const double dur = use_walls ? static_cast<double>(r.wall_ns) / 1000.0 : 1.0;
    round_times[r.round] = {cursor, cursor + dur};
    cursor += dur;
    last_round = r.round;
  }
  const double end_of_time = cursor;

  // Maps a round number to a point on the axis: the start of that round if
  // it executed, else the start of the next executed round (or the end).
  const auto time_at = [&](std::uint64_t round) {
    const auto it = round_times.lower_bound(round);
    return it == round_times.end() ? end_of_time : it->second.first;
  };

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  const std::string algo = data.meta_str("algo");
  sep();
  os << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\"args\":{\"name\":\""
     << json_escape(algo.empty() ? "dhc" : algo) << "\"}}";

  for (const PhaseSpan& s : data.spans) {
    const double ts = time_at(s.from_round);
    const double te = std::max(ts, time_at(s.to_round));
    sep();
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"" << json_escape(s.label)
       << "\",\"ts\":" << fmt_us(ts) << ",\"dur\":" << fmt_us(te - ts)
       << ",\"args\":{\"rounds\":" << s.rounds << ",\"stepped\":" << s.stepped
       << ",\"sent\":" << s.sent << ",\"bits\":" << s.bits << ",\"barriers\":" << s.barriers
       << "}}";
  }

  for (const RoundRecord& r : data.rounds) {
    const double ts = round_times[r.round].first;
    sep();
    os << "{\"ph\":\"C\",\"pid\":1,\"name\":\"round activity\",\"ts\":" << fmt_us(ts)
       << ",\"args\":{\"active\":" << r.active << ",\"sent\":" << r.sent
       << ",\"wake\":" << r.wakeups << "}}";
  }

  for (const BarrierRecord& b : data.barriers) {
    sep();
    os << "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"s\":\"g\",\"name\":\"barrier\",\"ts\":"
       << fmt_us(time_at(b.round + 1)) << ",\"args\":{\"round\":" << b.round
       << ",\"charge\":" << b.charge << "}}";
  }

  os << "\n]}\n";
}

}  // namespace dhc::trace
