// Benchmark logic with no clock in it: the seeded arrival schedule, the
// percentile rule, the goodput rung rule and lane accounting over spans.
// Everything here is a pure function of its arguments, so
// tests/stats_test.cpp checks it on synthetic data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; p99 therefore needs 1000 samples and p50 needs 20.
inline constexpr std::size_t kMinBeyond = 10;

struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count the quantile was taken over
  std::size_t beyond = 0;   ///< samples strictly after it in rank order
};

/// Nearest-rank q-quantile (rank ceil(q*n)) of `samples`, which may hold
/// +inf for requests that failed. nullopt when fewer than kMinBeyond
/// samples lie beyond it.
[[nodiscard]] std::optional<Quantile> quantile(std::vector<double> samples,
                                               double q);

/// The highest quantile <= q_max that still has kMinBeyond samples beyond
/// it (the tail a short rung can support). nullopt when n <= kMinBeyond.
[[nodiscard]] std::optional<Quantile> supported_tail(
    std::vector<double> samples, double q_max);

/// Geometric mean of strictly positive finite values; NaN otherwise.
[[nodiscard]] double geomean(const std::vector<double>& values);

enum class Model : int { kSeg = 0, kEvit = 1 };

/// One step of the open-loop ladder: an absolute offered rate held for a
/// fixed time.
struct Rung {
  double rate_rps = 0.0;  ///< mixed requests per second, both models
  double seconds = 0.0;
};

struct Arrival {
  double due_s = 0.0;  ///< from the start of its rung
  int rung = 0;
  Model model = Model::kSeg;
  int scene = 0;
};

/// Poisson arrivals conditioned on their count: each rung gets exactly
/// round(rate * seconds) arrivals at sorted uniform times in its window
/// (the arrival times of a Poisson process given how many arrived), so
/// sample counts per rung are fixed while gaps stay exponential-like.
/// Rungs follow each other in order; models are interleaved 1:1 (even
/// positions SegFormer, odd EfficientViT); scenes are drawn uniformly from
/// [0, scene_count). A pure function of its arguments.
[[nodiscard]] std::vector<Arrival> poisson_schedule(
    const std::vector<Rung>& rungs, int scene_count, std::uint64_t seed);

/// Seed of a derived input stream (scenes, schedule, fits): distinct
/// streams of one benchmark seed never share a generator seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// Outcome of one rung as the goodput rule sees it.
struct RungResult {
  double rate_rps = 0.0;  ///< offered
  /// Requests of the rung that met the latency limit, per second of the
  /// rung's wall time (its start to its last completion).
  double goodput_rps = 0.0;
  /// Supported tail (<= p99) of each model's latency from due time; nullopt
  /// when the rung had too few samples to support any tail.
  std::optional<double> seg_tail_ms, evit_tail_ms;
  std::size_t failed = 0;  ///< failed plus refused requests
  /// How much latency grew across the rung (least-squares slope of latency
  /// against due time, times the rung's length): a growing backlog.
  double latency_growth_ms = 0.0;
};

/// A rung passes when both models' tails stay under the limit, nothing
/// failed, and latency did not grow by a full limit across the rung.
[[nodiscard]] bool rung_passes(const RungResult& rung, double limit_ms);

/// Index of the highest passing rung (its goodput_rps is the workload's
/// goodput), or nullopt when none passes.
[[nodiscard]] std::optional<std::size_t> goodput_rung(
    const std::vector<RungResult>& rungs, double limit_ms);

/// Least-squares slope of ys against xs times the span of xs: how much y
/// grew across the window. 0 for fewer than two points.
[[nodiscard]] double trend_growth(const std::vector<double>& xs,
                                  const std::vector<double>& ys);

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

struct LaneUse {
  double busy_frac = 0.0;  ///< busy lane-time / (lanes * window)
  /// Lane-time a lane sat idle while a request was waiting for one —
  /// integral of min(idle lanes, waiting requests) — over lanes * window.
  double idle_with_backlog_frac = 0.0;
};

/// Lane accounting over [t0, t1] from the forward spans (`busy`) and the
/// submit-to-start intervals (`waiting`); intervals are clipped to the
/// window.
[[nodiscard]] LaneUse lane_use(int lanes, double t0, double t1,
                               const std::vector<Interval>& busy,
                               const std::vector<Interval>& waiting);

}  // namespace perfbench
