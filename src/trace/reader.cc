#include "trace/reader.h"

#include <fstream>
#include <istream>
#include <stdexcept>

#include "support/json.h"

namespace dhc::trace {

namespace {

using support::JsonValue;

std::uint32_t phase_index_for(const std::vector<PhaseMark>& phases, const std::string& label) {
  if (label.empty()) return RoundRecord::kNoPhase;
  // Rounds reference the most recent mark, so search from the back.
  for (std::size_t i = phases.size(); i > 0; --i) {
    if (phases[i - 1].label == label) return static_cast<std::uint32_t>(i - 1);
  }
  return RoundRecord::kNoPhase;
}

}  // namespace

std::string TraceData::meta_str(const std::string& key) const {
  const auto it = meta_strings.find(key);
  return it == meta_strings.end() ? std::string() : it->second;
}

std::uint64_t TraceData::meta_u64(const std::string& key) const {
  const auto it = meta_ints.find(key);
  return it == meta_ints.end() ? 0 : it->second;
}

std::uint64_t TraceData::summary_u64(const std::string& key) const {
  const auto it = summary.find(key);
  return it == summary.end() ? 0 : it->second;
}

TraceData read_trace(std::istream& in) {
  TraceData data;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue v;
    try {
      v = support::parse_json(line);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("trace line " + std::to_string(lineno) + ": " + e.what());
    }
    const std::string& type = v.str("type");
    if (type == "meta") {
      for (const auto& [key, val] : v.as_object()) {
        if (key == "type") continue;
        if (val.is_string()) {
          data.meta_strings[key] = val.as_string();
        } else if (val.is_number()) {
          data.meta_numbers[key] = val.as_double();
          if (val.is_integral()) data.meta_ints[key] = val.as_u64();
        }
      }
      data.schema = v.u64("schema");
    } else if (type == "phase") {
      data.phases.push_back({v.str("label"), v.u64("from")});
    } else if (type == "round") {
      RoundRecord r;
      r.round = v.u64("r");
      r.phase = phase_index_for(data.phases, v.str("phase"));
      r.active = v.u64("active");
      r.sent = v.u64("sent");
      r.bits = v.u64("bits");
      r.wakeups = v.u64("wake");
      r.wall_ns = v.u64("wall_ns");
      if (const JsonValue* sa = v.find("shard_active"); sa != nullptr) {
        r.sharded = true;
        for (const JsonValue& e : sa->as_array()) {
          r.shard_active.push_back(static_cast<std::uint32_t>(e.as_u64()));
        }
        for (const JsonValue& e : v.get("shard_wall_ns").as_array()) {
          r.shard_wall_ns.push_back(e.as_u64());
        }
      }
      data.rounds.push_back(std::move(r));
    } else if (type == "barrier") {
      data.barriers.push_back({v.u64("r"), v.u64("charge")});
    } else if (type == "kround") {
      data.krounds.push_back({v.u64("r"), v.u64("busiest"), v.u64("charge")});
    } else if (type == "fault") {
      data.faults.push_back({v.u64("r"), v.u64("delayed"), v.u64("dropped"),
                             v.u64("crash_dropped"), v.u64("crashed_steps")});
    } else if (type == "retrans") {
      data.retrans.push_back(
          {v.u64("r"), v.u64("retransmits"), v.u64("dup_suppressed"), v.u64("acks_sent")});
    } else if (type == "rejoin") {
      data.rejoins.push_back({v.u64("r"), v.u64("nodes")});
    } else if (type == "span") {
      PhaseSpan s;
      s.label = v.str("label");
      s.from_round = v.u64("from");
      s.to_round = v.u64("to");
      s.rounds = v.u64("rounds");
      s.stepped = v.u64("stepped");
      s.sent = v.u64("sent");
      s.bits = v.u64("bits");
      s.barriers = v.u64("barriers");
      s.wall_ns = v.u64("wall_ns");
      data.spans.push_back(std::move(s));
    } else if (type == "summary") {
      for (const auto& [key, val] : v.as_object()) {
        if (key == "type" || !val.is_number()) continue;
        data.summary[key] = val.as_u64();
      }
    } else if (type == "outcome") {
      data.success = v.get("success").as_bool();
      data.failure_reason = v.str("failure_reason");
      data.has_outcome = true;
    } else {
      throw std::invalid_argument("trace line " + std::to_string(lineno) +
                                  ": unknown record type \"" + type + '"');
    }
  }
  if (data.schema != 4) {
    throw std::invalid_argument("trace stream missing a schema-4 meta line");
  }
  return data;
}

TraceData read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(in);
}

}  // namespace dhc::trace
