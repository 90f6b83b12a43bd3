#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("median of an empty sample");
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
  const double hi = xs[mid];
  if (xs.size() % 2 == 1) return hi;
  const double lo = *std::max_element(xs.begin(), xs.begin() + mid);
  return (lo + hi) / 2.0;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile of an empty sample");
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(xs.size()) / 100.0));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, xs.size()) - 1;
  std::nth_element(xs.begin(), xs.begin() + k, xs.end());
  return xs[k];
}

std::optional<double> eligible_tail_percentile(std::size_t samples) {
  // Samples strictly beyond the p-th percentile: n·(1 − p/100).  Integer
  // form (per mille) so 99.9 needs exactly 10000 samples, not 9999.something.
  for (const int per_mille : {999, 990, 900}) {
    if (samples * static_cast<std::size_t>(1000 - per_mille) >= 10 * 1000) {
      return per_mille / 10.0;
    }
  }
  return std::nullopt;
}

std::optional<long> parse_vmhwm_kb(std::string_view status_text) {
  constexpr std::string_view kKey = "VmHWM:";
  std::size_t pos = 0;
  while (pos < status_text.size()) {
    const std::size_t eol = std::min(status_text.find('\n', pos), status_text.size());
    std::string_view line = status_text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.starts_with(kKey)) continue;
    line.remove_prefix(kKey.size());
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) line.remove_prefix(1);
    long kb = 0;
    const auto [end, ec] = std::from_chars(line.data(), line.data() + line.size(), kb);
    if (ec != std::errc{} || kb < 0) return std::nullopt;
    const std::string_view unit(end, line.data() + line.size() - end);
    if (unit != " kB") return std::nullopt;
    return kb;
  }
  return std::nullopt;
}

std::optional<long> read_vmhwm_kb() {
  std::ifstream in("/proc/self/status");
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return parse_vmhwm_kb(text.str());
}

}  // namespace perfbench
