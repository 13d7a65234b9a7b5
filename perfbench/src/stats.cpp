#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/rng.h"

namespace perfbench {

namespace {

Quantile at_rank(const std::vector<double>& sorted, std::size_t rank) {
  return Quantile{sorted[rank - 1], sorted.size(), sorted.size() - rank};
}

}  // namespace

std::optional<Quantile> quantile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
  if (n - std::min(rank, n) < kMinBeyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return at_rank(samples, rank);
}

std::optional<Quantile> supported_tail(std::vector<double> samples,
                                       double q_max) {
  const std::size_t n = samples.size();
  if (n <= kMinBeyond) return std::nullopt;
  const auto wanted = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q_max * static_cast<double>(n))));
  std::sort(samples.begin(), samples.end());
  return at_rank(samples, std::min(wanted, n - kMinBeyond));
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0) || !std::isfinite(v)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<Arrival> poisson_schedule(const std::vector<Rung>& rungs,
                                      int scene_count, std::uint64_t seed) {
  gqa::Rng rng(seed);
  std::vector<Arrival> out;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const auto count = static_cast<std::size_t>(
        std::llround(rungs[r].rate_rps * rungs[r].seconds));
    std::vector<double> times(count);
    for (double& t : times) t = rng.uniform(0.0, rungs[r].seconds);
    std::sort(times.begin(), times.end());
    for (const double t : times) {
      Arrival a;
      a.due_s = t;
      a.rung = static_cast<int>(r);
      a.model = out.size() % 2 == 0 ? Model::kSeg : Model::kEvit;
      a.scene = static_cast<int>(
          rng.index(static_cast<std::size_t>(scene_count)));
      out.push_back(a);
    }
  }
  return out;
}

bool rung_passes(const RungResult& rung, double limit_ms) {
  return rung.failed == 0 && rung.seg_tail_ms && rung.evit_tail_ms &&
         *rung.seg_tail_ms < limit_ms && *rung.evit_tail_ms < limit_ms &&
         rung.latency_growth_ms < limit_ms;
}

std::optional<std::size_t> goodput_rung(const std::vector<RungResult>& rungs,
                                        double limit_ms) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (rung_passes(rungs[i], limit_ms) &&
        (!best || rungs[i].rate_rps > rungs[*best].rate_rps)) {
      best = i;
    }
  }
  return best;
}

double trend_growth(const std::vector<double>& xs,
                    const std::vector<double>& ys) {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxx = 0.0, sxy = 0.0;
  double lo = xs[0], hi = xs[0];
  for (std::size_t i = 0; i < n; ++i) {
    sxx += (xs[i] - mx) * (xs[i] - mx);
    sxy += (xs[i] - mx) * (ys[i] - my);
    lo = std::min(lo, xs[i]);
    hi = std::max(hi, xs[i]);
  }
  if (sxx == 0.0) return 0.0;
  return sxy / sxx * (hi - lo);
}

LaneUse lane_use(int lanes, double t0, double t1,
                 const std::vector<Interval>& busy,
                 const std::vector<Interval>& waiting) {
  struct Event {
    double t;
    int d_busy;
    int d_wait;
  };
  std::vector<Event> events;
  const auto add = [&](const std::vector<Interval>& spans, bool is_busy) {
    for (const Interval& s : spans) {
      const double a = std::max(s.start, t0);
      const double b = std::min(s.end, t1);
      if (!(a < b)) continue;
      events.push_back({a, is_busy ? 1 : 0, is_busy ? 0 : 1});
      events.push_back({b, is_busy ? -1 : 0, is_busy ? 0 : -1});
    }
  };
  add(busy, true);
  add(waiting, false);
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) { return x.t < y.t; });
  LaneUse use;
  if (!(t1 > t0) || lanes <= 0) return use;
  double busy_time = 0.0, idle_backlog_time = 0.0, prev = t0;
  int n_busy = 0, n_wait = 0;
  for (const Event& e : events) {
    const double dt = e.t - prev;
    busy_time += std::min(n_busy, lanes) * dt;
    idle_backlog_time += std::min(std::max(lanes - n_busy, 0), n_wait) * dt;
    n_busy += e.d_busy;
    n_wait += e.d_wait;
    prev = e.t;
  }
  const double lane_time = static_cast<double>(lanes) * (t1 - t0);
  use.busy_frac = busy_time / lane_time;
  use.idle_with_backlog_frac = idle_backlog_time / lane_time;
  return use;
}

}  // namespace perfbench
