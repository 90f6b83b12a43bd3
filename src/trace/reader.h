// Reads a flight-recorder NDJSON trace (schema v4, see recorder.h)
// back into typed records for the dhc_trace tool and tests.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "trace/recorder.h"

namespace dhc::trace {

/// One parsed trace file.  Field names mirror the writer-side structs; the
/// meta and summary lines are kept as maps so the reader survives additive
/// schema growth (unknown keys pass through).
struct TraceData {
  std::uint64_t schema = 0;
  std::map<std::string, std::string> meta_strings;
  std::map<std::string, double> meta_numbers;
  /// Integral meta fields (seeds, n, m, ...) exactly — 64-bit seeds do not
  /// survive the double round-trip in meta_numbers.
  std::map<std::string, std::uint64_t> meta_ints;

  std::vector<PhaseMark> phases;
  std::vector<RoundRecord> rounds;        ///< phase index resolved vs `phases`
  std::vector<BarrierRecord> barriers;
  std::vector<KRoundRecord> krounds;
  std::vector<FaultRecord> faults;        ///< async runs only
  std::vector<RetransRecord> retrans;     ///< reliability=ack runs only
  std::vector<RejoinRecord> rejoins;      ///< crash-window runs only
  std::vector<PhaseSpan> spans;

  std::map<std::string, std::uint64_t> summary;
  bool success = false;
  std::string failure_reason;
  bool has_outcome = false;

  /// meta string field, or "" when absent.
  std::string meta_str(const std::string& key) const;
  /// integral meta field, or 0 when absent.
  std::uint64_t meta_u64(const std::string& key) const;
  /// summary counter, or 0 when absent.
  std::uint64_t summary_u64(const std::string& key) const;
};

/// Parses one NDJSON trace stream.  Throws std::invalid_argument on malformed
/// lines or unknown line types (the schema is closed per version).
TraceData read_trace(std::istream& in);

/// Convenience: opens and reads `path`; throws std::runtime_error when the
/// file cannot be opened.
TraceData read_trace_file(const std::string& path);

}  // namespace dhc::trace
