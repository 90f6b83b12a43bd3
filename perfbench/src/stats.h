// Small, dependency-free statistics and /proc helpers for the benchmark.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `xs` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty sample.
double median(std::vector<double> xs);

/// Nearest-rank `p`-th percentile (0 < p <= 100) of `xs`.  Throws
/// std::invalid_argument on an empty sample.
double percentile(std::vector<double> xs, double p);

/// The highest of the percentiles 90, 99, 99.9 that leaves at least ten of
/// `samples` beyond it, or nullopt when none does (fewer than 100 samples).
/// A tail percentile is only reported when this says it is eligible.
std::optional<double> eligible_tail_percentile(std::size_t samples);

/// Extracts VmHWM (peak resident set, kB) from the text of
/// /proc/<pid>/status; nullopt when the line is absent or malformed.
std::optional<long> parse_vmhwm_kb(std::string_view status_text);

/// VmHWM of this process, in kB (nullopt where /proc is unavailable).
std::optional<long> read_vmhwm_kb();

}  // namespace perfbench
