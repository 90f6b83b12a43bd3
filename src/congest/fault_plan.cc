#include "congest/fault_plan.h"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "support/cli.h"
#include "support/rng.h"

namespace dhc::congest {

namespace {

// Salts keep the three fault questions statistically independent even though
// they share one fault seed.  Arbitrary odd constants, fixed forever (they
// are part of the golden-pinned behavior).
constexpr std::uint64_t kDelaySalt = 0xd31a7ull;
constexpr std::uint64_t kDropSalt = 0xd70b2ull;
constexpr std::uint64_t kCrashSalt = 0xc4a54ull;

/// splitmix64 word-absorption chain, same construction as the runner's
/// derive_seed(): absorb each argument into the state between draws so every
/// (seed, w0, w1, salt) tuple lands in an unrelated part of the stream.
std::uint64_t hash_words(std::uint64_t seed, std::uint64_t w0, std::uint64_t w1,
                         std::uint64_t salt) {
  std::uint64_t state = seed;
  std::uint64_t h = support::splitmix64(state);
  state ^= w0;
  h ^= support::splitmix64(state);
  state ^= w1;
  h ^= support::splitmix64(state);
  state ^= salt;
  h ^= support::splitmix64(state);
  return h;
}

/// Uniform [0, 1) from a hash, the same 53-bit construction as Rng::uniform01.
double u01(std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

/// Unbiased-enough bounded map: (h * span) >> 64.  Bias is < span / 2^64,
/// irrelevant at experiment scale, and unlike rejection sampling it stays a
/// pure function of the hash.
std::uint64_t bounded(std::uint64_t h, std::uint64_t span) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(h) * static_cast<unsigned __int128>(span)) >> 64);
}

// Spec fields go through the strict value parsers the scenario grammar
// uses, so a field parses only if all of it is one value in one spelling.
std::vector<std::string> split(const std::string& spec) {
  return support::split_list("fault spec '" + spec + "'", spec, ':');
}

std::uint64_t parse_u64(const std::string& s, const std::string& spec) {
  return support::parse_integer<std::uint64_t>("fault spec '" + spec + "'", s);
}

double parse_double(const std::string& s, const std::string& spec) {
  return support::parse_number("fault spec '" + spec + "'", s);
}

/// The shortest spelling that parses back to exactly `v` (0.5 → "0.5").
std::string shortest(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, end);
}

}  // namespace

DelaySpec DelaySpec::parse(const std::string& spec) {
  const auto parts = split(spec);
  DelaySpec d;
  if (parts[0] == "none") {
    if (parts.size() != 1) throw std::invalid_argument("delay spec 'none' takes no arguments");
    return d;
  }
  if (parts[0] == "fixed") {
    if (parts.size() != 2) throw std::invalid_argument("delay spec: expected fixed:K");
    d.kind = Kind::kFixed;
    d.a = parse_u64(parts[1], spec);
    if (d.a < 1) throw std::invalid_argument("fixed delay must be >= 1 in '" + spec + "'");
    return d;
  }
  if (parts[0] == "uniform") {
    if (parts.size() != 3) throw std::invalid_argument("delay spec: expected uniform:A:B");
    d.kind = Kind::kUniform;
    d.a = parse_u64(parts[1], spec);
    d.b = parse_u64(parts[2], spec);
    if (d.a < 1 || d.b < d.a) {
      throw std::invalid_argument("uniform delay needs 1 <= A <= B in '" + spec + "'");
    }
    return d;
  }
  if (parts[0] == "geometric") {
    if (parts.size() != 2) throw std::invalid_argument("delay spec: expected geometric:P");
    d.kind = Kind::kGeometric;
    d.p = parse_double(parts[1], spec);
    if (!(d.p > 0.0) || d.p > 1.0) {
      throw std::invalid_argument("geometric delay needs 0 < P <= 1 in '" + spec + "'");
    }
    return d;
  }
  throw std::invalid_argument("unknown delay distribution '" + spec +
                              "' (want none | fixed:K | uniform:A:B | geometric:P)");
}

std::string DelaySpec::to_string() const {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kFixed:
      return "fixed:" + std::to_string(a);
    case Kind::kUniform:
      return "uniform:" + std::to_string(a) + ":" + std::to_string(b);
    case Kind::kGeometric:
      return "geometric:" + shortest(p);
  }
  return "none";
}

CrashSpec CrashSpec::parse(const std::string& spec) {
  const auto parts = split(spec);
  CrashSpec c;
  if (parts[0] == "none") {
    if (parts.size() != 1) throw std::invalid_argument("crash spec 'none' takes no arguments");
    return c;
  }
  if (parts[0] == "random") {
    if (parts.size() != 4) {
      throw std::invalid_argument("crash spec: expected random:FRAC:START:DUR");
    }
    c.kind = Kind::kRandom;
    c.fraction = parse_double(parts[1], spec);
    c.start = parse_u64(parts[2], spec);
    c.duration = parse_u64(parts[3], spec);
    if (!(c.fraction >= 0.0) || c.fraction >= 1.0) {
      throw std::invalid_argument("crash fraction must be in [0, 1) in '" + spec + "'");
    }
    return c;
  }
  throw std::invalid_argument("unknown crash schedule '" + spec +
                              "' (want none | random:FRAC:START:DUR)");
}

std::string CrashSpec::to_string() const {
  if (kind == Kind::kNone) return "none";
  return "random:" + shortest(fraction) + ":" + std::to_string(start) + ":" +
         std::to_string(duration);
}

FaultPlan::FaultPlan(DelaySpec delay, double drop_prob, CrashSpec crash,
                     std::uint64_t fault_seed, std::uint64_t round_limit)
    : delay_(delay),
      drop_prob_(drop_prob),
      crash_(crash),
      fault_seed_(fault_seed),
      round_limit_(round_limit) {
  if (!(drop_prob_ >= 0.0) || drop_prob_ >= 1.0) {
    throw std::invalid_argument("drop_prob must be in [0, 1)");
  }
}

std::uint64_t FaultPlan::delay(NodeId from, NodeId to) const {
  switch (delay_.kind) {
    case DelaySpec::Kind::kNone:
      return 1;
    case DelaySpec::Kind::kFixed:
      return delay_.a;
    case DelaySpec::Kind::kUniform: {
      const std::uint64_t h = hash_words(fault_seed_, from, to, kDelaySalt);
      return delay_.a + bounded(h, delay_.b - delay_.a + 1);
    }
    case DelaySpec::Kind::kGeometric: {
      const std::uint64_t h = hash_words(fault_seed_, from, to, kDelaySalt);
      if (delay_.p >= 1.0) return 1;
      // 1 + Geometric(p) via inversion; clamp u away from 0 so log is finite.
      const double u = std::max(u01(h), 0x1.0p-53);
      const double extra = std::floor(std::log(u) / std::log(1.0 - delay_.p));
      // Cap at 2^20 rounds: far beyond any plausible schedule, keeps the
      // delivery wheel's far tier bounded even for absurd p.
      return 1 + static_cast<std::uint64_t>(std::min(extra, 1048576.0));
    }
  }
  return 1;
}

bool FaultPlan::drop(NodeId from, NodeId to, std::uint64_t round) const {
  if (drop_prob_ <= 0.0) return false;
  const std::uint64_t edge = (static_cast<std::uint64_t>(from) << 32) | to;
  return u01(hash_words(fault_seed_, edge, round, kDropSalt)) < drop_prob_;
}

bool FaultPlan::crash_scheduled(NodeId v) const {
  if (!crash_.active()) return false;
  return u01(hash_words(fault_seed_, v, 0, kCrashSalt)) < crash_.fraction;
}

bool FaultPlan::crashed(NodeId v, std::uint64_t round) const {
  if (!crash_.active()) return false;
  if (round < crash_.start || round >= crash_.start + crash_.duration) return false;
  return crash_scheduled(v);
}

std::uint64_t FaultPlan::crashed_node_count(NodeId n) const {
  if (!crash_.active()) return 0;
  std::uint64_t count = 0;
  for (NodeId v = 0; v < n; ++v) count += crash_scheduled(v) ? 1 : 0;
  return count;
}

std::uint64_t FaultPlan::crash_rejoin_round() const {
  // The crash window is [start, start + duration); the first round past it
  // is where crashed nodes silently resume stepping and receiving.
  return crash_.start + crash_.duration;
}

std::uint64_t derive_fault_seed(std::uint64_t algo_seed) {
  // Same word-absorption chain as the runner's derive_seed(): absorb a salt
  // so the fault stream never aliases the protocol's own seed.
  std::uint64_t state = algo_seed;
  std::uint64_t h = support::splitmix64(state);
  state ^= 0xfa5e17ull;
  h ^= support::splitmix64(state);
  return h;
}

}  // namespace dhc::congest
