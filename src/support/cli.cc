#include "support/cli.h"

#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <type_traits>

#include "support/require.h"

namespace dhc::support {

template <class T>
T parse_integer(const std::string& what, const std::string& text) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc{} && end == last) return value;
  // An integer that does not fit T (a sign on an unsigned field included)
  // names T's range; anything else is not an integer.
  std::string range;
  if (ec == std::errc::result_out_of_range ||
      (std::is_unsigned_v<T> && text.starts_with('-'))) {
    range = " in [" + std::to_string(std::numeric_limits<T>::min()) + ", " +
            std::to_string(std::numeric_limits<T>::max()) + "]";
  }
  throw std::invalid_argument(what + " expects an integer" + range + ", got '" + text + "'");
}

template std::int64_t parse_integer<std::int64_t>(const std::string&, const std::string&);
template std::uint64_t parse_integer<std::uint64_t>(const std::string&, const std::string&);
template std::uint32_t parse_integer<std::uint32_t>(const std::string&, const std::string&);

double parse_number(const std::string& what, const std::string& text) {
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last) {
    throw std::invalid_argument(what + " expects a number, got '" + text + "'");
  }
  return value;
}

std::vector<std::string> split_list(const std::string& what, const std::string& text, char sep) {
  if (text.empty()) throw std::invalid_argument(what + " has an empty value");
  std::vector<std::string> parts;
  std::istringstream is(text + sep);
  std::string part;
  while (std::getline(is, part, sep)) {
    if (part.empty()) {
      throw std::invalid_argument(what + " has an empty list element in '" + text + "'");
    }
    parts.push_back(part);
  }
  return parts;
}

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    DHC_REQUIRE(arg.rfind("--", 0) == 0, "unexpected positional argument: " << arg);
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const bool fresh =
        flags_.emplace(key, eq == std::string::npos ? "true" : arg.substr(eq + 1)).second;
    if (!fresh) throw std::invalid_argument("flag --" + key + " given more than once");
  }
}

bool Cli::has(const std::string& key) const { return flags_.contains(key); }

void Cli::reject_unknown(const std::set<std::string>& known) const {
  for (const auto& [key, value] : flags_) {
    if (!known.contains(key)) throw std::invalid_argument("unknown flag --" + key);
  }
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : parse_integer<std::int64_t>("flag --" + key, it->second);
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : parse_number("flag --" + key, it->second);
}

std::string Cli::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw std::invalid_argument("flag --" + key + " expects true/false, got '" + it->second + "'");
}

std::vector<std::string> Cli::get_string_list(const std::string& key,
                                              std::vector<std::string> fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : split_list("flag --" + key, it->second);
}

}  // namespace dhc::support
