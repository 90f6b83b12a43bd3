// Minimal --key=value flag parser shared by dhc_run, dhc_trace and the
// examples, plus the strict value parsers that flags and scenario files
// share.
//
// Every binary accepts the same flag style (e.g. --n=4096 --seeds=5
// --c=4.0) so sweeps are scriptable without pulling in a full-blown CLI
// library.  A value parses only if the whole string does, and an integer
// only if it fits the type it lands in: `300x`, `2.9` for an integer, and
// `-1` for an unsigned field all throw.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dhc::support {

/// Strict value parsers.  `what` names the source in the error message
/// ("flag --n", "scenario key 'sizes'").  Each throws std::invalid_argument
/// unless the whole of `text` is one value: an integer in T's range
/// (defined for std::int64_t, std::uint64_t and std::uint32_t), or a
/// number.
template <class T>
T parse_integer(const std::string& what, const std::string& text);
double parse_number(const std::string& what, const std::string& text);

/// Splits a `sep`-separated list (comma by default; the fault and rto specs
/// use ':').  An empty value or an empty element throws: a trailing or
/// doubled separator is always a typo, never a request for the empty string.
std::vector<std::string> split_list(const std::string& what, const std::string& text,
                                    char sep = ',');

/// Parsed command line: flags of the form --key=value (or bare --key,
/// stored with value "true").  A positional argument or a repeated flag
/// throws.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  /// Throws std::invalid_argument("unknown flag --X") for the first flag
  /// whose key is not in `known`, so a typo fails instead of running the
  /// defaults.
  void reject_unknown(const std::set<std::string>& known) const;

  /// Typed getters; return `fallback` when the flag is absent and throw
  /// std::invalid_argument when present but malformed.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated string list (split_list), e.g. --diff=a.ndjson,b.ndjson.
  std::vector<std::string> get_string_list(const std::string& key,
                                           std::vector<std::string> fallback) const;

 private:
  std::map<std::string, std::string> flags_;
};

}  // namespace dhc::support
