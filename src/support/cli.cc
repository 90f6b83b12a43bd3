#include "support/cli.h"

#include <sstream>
#include <stdexcept>

#include "support/require.h"

namespace dhc::support {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    DHC_REQUIRE(arg.rfind("--", 0) == 0, "unexpected positional argument: " << arg);
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags_[arg.substr(2)] = "true";
    } else {
      flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
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
  if (it == flags_.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + key + " expects an integer, got '" + it->second + "'");
  }
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + key + " expects a number, got '" + it->second + "'");
  }
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

namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> parts;
  std::istringstream is(s);
  std::string part;
  while (std::getline(is, part, ',')) parts.push_back(part);
  return parts;
}

}  // namespace

std::vector<std::int64_t> Cli::get_int_list(const std::string& key,
                                            std::vector<std::int64_t> fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  std::vector<std::int64_t> out;
  for (const auto& part : split_commas(it->second)) {
    try {
      out.push_back(std::stoll(part));
    } catch (const std::exception&) {
      throw std::invalid_argument("flag --" + key + " expects integers, got '" + part + "'");
    }
  }
  return out;
}

std::vector<double> Cli::get_double_list(const std::string& key,
                                         std::vector<double> fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  std::vector<double> out;
  for (const auto& part : split_commas(it->second)) {
    try {
      out.push_back(std::stod(part));
    } catch (const std::exception&) {
      throw std::invalid_argument("flag --" + key + " expects numbers, got '" + part + "'");
    }
  }
  return out;
}

std::vector<std::string> Cli::get_string_list(const std::string& key,
                                              std::vector<std::string> fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const auto out = split_commas(it->second);
  if (out.empty()) {
    throw std::invalid_argument("flag --" + key + " has an empty value");
  }
  for (const auto& part : out) {
    if (part.empty()) {
      throw std::invalid_argument("flag --" + key + " has an empty list element in '" +
                                  it->second + "'");
    }
  }
  return out;
}

}  // namespace dhc::support
