// The benchmark's own flight-recorder sink: per-layer spans and counts taken
// through libdhc's public congest::TraceSink interface, with no change to the
// library.  The engine calls on_round once per stepped round with that
// round's wall time and counts; the benchmark adds the phase clock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "congest/trace_sink.h"

namespace perfbench {

/// Steady-clock nanoseconds since an arbitrary epoch.
std::uint64_t now_ns();

/// Wall time and simulated rounds of one protocol phase label.
struct PhaseTotal {
  std::uint64_t wall_ns = 0;
  std::uint64_t rounds = 0;
};

/// Attributes a solve's wall time and rounds to the labels of the engine's
/// on_phase marks.  Rounds before the first mark belong to kUnmarked.
class PhaseLog {
 public:
  static constexpr const char* kUnmarked = "unmarked";

  /// Opens the kUnmarked span at round 1, time `t_ns`.
  void begin(std::uint64_t t_ns);

  /// A mark: rounds from `first_round` on, and wall time from `t_ns` on,
  /// belong to `label` until the next mark.
  void mark(const std::string& label, std::uint64_t first_round, std::uint64_t t_ns);

  /// Totals per label.  Each span runs to the next mark; the last one to
  /// `end_ns` and round `total_rounds + 1` (Metrics::phase_rounds' rule).
  /// Repeated labels (DHC2 re-marks "merge" every level) are summed.
  std::map<std::string, PhaseTotal> totals(std::uint64_t total_rounds,
                                           std::uint64_t end_ns) const;

 private:
  struct Span {
    std::string label;
    std::uint64_t first_round = 0;
    std::uint64_t start_ns = 0;
  };
  std::vector<Span> spans_;
};

/// Sums of the engine's per-round records over one solve.
struct EngineTally {
  std::uint64_t rounds_stepped = 0;
  std::uint64_t rounds_sharded = 0;
  std::uint64_t node_steps = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t barriers = 0;
  std::uint64_t round_wall_ns = 0;
  /// Σ over sharded rounds of the slowest shard's step wall, and of the
  /// mean shard's; their ratio is the shard imbalance.
  std::uint64_t shard_max_ns = 0;
  double shard_mean_ns = 0.0;
  std::uint64_t delayed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  std::uint64_t acks_sent = 0;
};

class LayerSink final : public dhc::congest::TraceSink {
 public:
  /// `start_ns` is the solve's start: the kUnmarked span opens there.
  explicit LayerSink(std::uint64_t start_ns) { phases_.begin(start_ns); }

  void on_phase(const std::string& label, std::uint64_t first_round) override;
  void on_round(const dhc::congest::RoundTrace& t) override;
  void on_barrier(std::uint64_t round, std::uint64_t charge_rounds) override;
  void on_faults(const dhc::congest::FaultTrace& t) override;
  void on_retrans(const dhc::congest::RetransTrace& t) override;

  const EngineTally& tally() const { return tally_; }
  const PhaseLog& phases() const { return phases_; }

 private:
  EngineTally tally_;
  PhaseLog phases_;
};

}  // namespace perfbench
