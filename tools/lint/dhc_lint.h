// dhc_lint — determinism and shard-discipline linter for the dhc source tree.
//
// Every experimental claim in this repo rests on one invariant: a trial is
// bitwise identical across shard counts, thread counts, and reruns.  The
// worst bugs in the project's history were violations a source-level check
// would have caught at review time (a `static thread_local` scratch buffer
// that leaked state across trials on persistent WorkerPool threads; a
// flush-on-read pricing query that made k-machine costs depend on *when*
// they were read).  dhc_lint turns the prose rules of DESIGN.md §11 into a
// machine-checked gate:
//
//   R1  no `thread_local` — per-thread state outlives the trial on a
//       persistent worker pool and silently couples consecutive trials.
//   R2  no `std::unordered_map` / `std::unordered_set` (any flavour) —
//       hash-order iteration is libstdc++-version- and seed-dependent;
//       step-path files must use flat/ordered containers or sorted drains,
//       and membership-only uses elsewhere must carry a written rationale.
//   R3  no banned entropy or wall-clock sources (`rand(`, `srand(`,
//       `std::random_device`, `time(`, `system_clock`,
//       `high_resolution_clock`) — all randomness flows from seeded
//       splitmix64 streams; wall-clock measurement uses `steady_clock`,
//       which is deliberately NOT banned.
//   R4  no pointer-keyed `std::map` / `std::set` — comparison order of
//       unrelated pointers is ASLR, so iteration order changes per run.
//   R5  no bare mutable `static` data in step-path files — aggregate
//       counters on the sharded step path must go through ShardCounter or a
//       serial-merge path; function-local statics are shared across worker
//       threads and across trials.
//
// The scanner is a token/line-level pass (no libclang): comments and string
// literals are stripped before matching, so prose mentioning a banned token
// never trips a rule.  Suppressions are explicit and audited:
//
//   * inline: `// dhc-lint: allow(R2) -- membership-only, never iterated`
//     on the finding's line or the line directly above.  The reason after
//     `--` is mandatory; an allow() without one does not suppress.  The
//     marker must start its comment — a mid-sentence mention (like the one
//     above) is prose about the grammar, not a suppression.
//   * file-level: entries in tools/dhc_lint_allowlist.txt
//     (`<rule> <path-substring> -- <reason>`).
//
// The shipped allowlist plus the inline annotations ARE the audit: every
// hazard is either fixed or carries a written justification.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace dhc::lint {

/// One rule violation (or suppressed would-be violation) at a source line.
struct Finding {
  std::string file;     ///< path as given to the scanner (label, not canonical)
  int line = 0;         ///< 1-based line number
  std::string rule;     ///< "R1".."R5"
  std::string message;  ///< human-readable description of the hazard
  bool suppressed = false;
  std::string suppress_reason;  ///< the written rationale, when suppressed
};

/// An inline `dhc-lint: allow(...)` annotation discovered while scanning.
struct Annotation {
  int line = 0;                    ///< 1-based line the comment sits on
  std::vector<std::string> rules;  ///< rules it covers, e.g. {"R2"}
  std::string reason;              ///< text after `--` (may be empty = invalid)
  bool used = false;               ///< set when it suppresses at least one finding
};

/// One `<rule> <path-substring> -- <reason>` entry from the allowlist file.
struct AllowlistEntry {
  std::string rule;
  std::string path_substring;
  std::string reason;
  bool used = false;
};

struct Options {
  /// A file whose path contains any of these markers is on the "step path":
  /// code executed (or reachable) inside Protocol::step, which every round
  /// may run on several shards at once; R2 is a hard hazard and R5 applies.
  std::vector<std::string> step_path_markers = {
      "src/core/", "src/congest/", "src/kmachine/", "src/async/", "src/trace/"};
  std::vector<AllowlistEntry> allowlist;
};

/// Scan result for one translation unit.
struct FileReport {
  std::vector<Finding> findings;          ///< suppressed and unsuppressed
  std::vector<Annotation> annotations;    ///< all inline allow() comments seen
  int unsuppressed = 0;                   ///< count of findings with !suppressed
};

/// Scans one file's text.  `path_label` is used for step-path classification,
/// allowlist matching, and reporting; it is not opened.
FileReport scan_source(std::string_view path_label, std::string_view text, const Options& options);

/// Parses an allowlist file's text (see header comment for the grammar).
/// Malformed lines (missing rule, path, or reason) are returned in `errors`
/// as "line N: why" strings — the driver treats any as fatal, so an
/// allowlist entry can never silently fail to carry a reason.
std::vector<AllowlistEntry> parse_allowlist(std::string_view text, std::vector<std::string>* errors);

/// Runs the full lint: walks `paths` (files, or directories scanned
/// recursively for .h/.hpp/.cc/.cpp), scans each file, prints findings and
/// stale-suppression warnings to `out`, and returns the process exit code
/// (0 = clean, 1 = unsuppressed findings or I/O / allowlist errors).
/// Paths are visited in sorted order so output is deterministic.
int run_lint(const std::vector<std::string>& paths, const Options& options, std::ostream& out);

}  // namespace dhc::lint
