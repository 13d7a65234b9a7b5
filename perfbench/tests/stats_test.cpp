// Tests of the benchmark's own logic: seed determinism of its inputs, the
// percentile rule, the goodput rung rule and lane accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "eval/scene.h"
#include "stats.h"

namespace perfbench {
namespace {

const std::vector<Rung> kLadder = {{90.0, 4.0}, {150.0, 1.0}, {230.0, 1.0}};

TEST(Schedule, SameSeedSameSchedule) {
  const auto a = poisson_schedule(kLadder, 24, 7);
  const auto b = poisson_schedule(kLadder, 24, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].scene, b[i].scene);
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].rung, b[i].rung);
  }
}

TEST(Schedule, OtherSeedOtherSchedule) {
  const auto a = poisson_schedule(kLadder, 24, 7);
  const auto b = poisson_schedule(kLadder, 24, 8);
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].due_s != b[i].due_s;
  EXPECT_TRUE(differs);
}

TEST(Schedule, RatesInterleavingAndRungBounds) {
  const std::vector<Rung> ladder = {{100.0, 50.0}, {400.0, 25.0}};
  const auto s = poisson_schedule(ladder, 5, 11);
  std::size_t per_rung[2] = {0, 0};
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].model, i % 2 == 0 ? Model::kSeg : Model::kEvit);
    EXPECT_GE(s[i].scene, 0);
    EXPECT_LT(s[i].scene, 5);
    if (i > 0 && s[i].rung == s[i - 1].rung) {
      EXPECT_GE(s[i].due_s, s[i - 1].due_s);
    }
    if (i > 0) {
      EXPECT_GE(s[i].rung, s[i - 1].rung);
    }
    EXPECT_GE(s[i].due_s, 0.0);
    EXPECT_LT(s[i].due_s, ladder[static_cast<std::size_t>(s[i].rung)].seconds);
    ++per_rung[s[i].rung];
  }
  EXPECT_EQ(per_rung[0], 5000u);
  EXPECT_EQ(per_rung[1], 10000u);
}

TEST(Schedule, GapsLookExponential) {
  // Given the count, Poisson gaps have mean 1/rate and a coefficient of
  // variation near 1 (a fixed-period schedule would have 0).
  const auto s = poisson_schedule({{200.0, 100.0}}, 3, 5);
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = 1; i < s.size(); ++i) {
    const double gap = s[i].due_s - s[i - 1].due_s;
    sum += gap;
    sum_sq += gap * gap;
  }
  const double n = static_cast<double>(s.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sum_sq / n - mean * mean) / mean;
  EXPECT_NEAR(mean, 1.0 / 200.0, 1e-4);
  EXPECT_NEAR(cv, 1.0, 0.05);
}

TEST(Schedule, DerivedSeedsAreDistinctAndStable) {
  EXPECT_EQ(derive_seed(3, 1), derive_seed(3, 1));
  EXPECT_NE(derive_seed(3, 1), derive_seed(3, 2));
  EXPECT_NE(derive_seed(3, 1), derive_seed(4, 1));
}

TEST(Scenes, SameSeedSameScenes) {
  gqa::SceneOptions options;
  options.size = 16;
  const auto a = gqa::make_scene_set(options, 3, derive_seed(5, 1));
  const auto b = gqa::make_scene_set(options, 3, derive_seed(5, 1));
  const auto c = gqa::make_scene_set(options, 3, derive_seed(6, 1));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].image.data(), b[i].image.data());
    EXPECT_EQ(a[i].labels, b[i].labels);
  }
  EXPECT_NE(a[0].image.data(), c[0].image.data());
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(quantile(ramp(999), 0.99).has_value());  // 9 beyond
  const auto p99 = quantile(ramp(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->value, 990.0);
  EXPECT_EQ(p99->beyond, 10u);
  EXPECT_EQ(p99->samples, 1000u);
  EXPECT_FALSE(quantile(ramp(19), 0.5).has_value());
  const auto p50 = quantile(ramp(20), 0.5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->value, 10.0);
  EXPECT_FALSE(quantile({}, 0.5).has_value());
}

TEST(Percentile, FailuresStayInTheSamples) {
  std::vector<double> v = ramp(1000);
  for (std::size_t i = 0; i < 20; ++i) v[i] = std::numeric_limits<double>::infinity();
  const auto p99 = quantile(v, 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_TRUE(std::isinf(p99->value));
}

TEST(Percentile, SupportedTailBacksOffOnShortSamples) {
  const auto tail = supported_tail(ramp(200), 0.99);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->value, 190.0);
  EXPECT_EQ(tail->beyond, 10u);
  EXPECT_EQ(supported_tail(ramp(5000), 0.99)->value, 4950.0);
  EXPECT_FALSE(supported_tail(ramp(10), 0.99).has_value());
}

RungResult rung(double rate, double seg, double evit, std::size_t failed = 0,
                double growth = 0.0) {
  RungResult r;
  r.rate_rps = rate;
  r.goodput_rps = rate * 0.99;
  r.seg_tail_ms = seg;
  r.evit_tail_ms = evit;
  r.failed = failed;
  r.latency_growth_ms = growth;
  return r;
}

TEST(Goodput, HighestPassingRung) {
  const std::vector<RungResult> rungs = {rung(90, 30, 10), rung(150, 45, 20),
                                         rung(190, 80, 30), rung(230, 400, 300)};
  EXPECT_EQ(goodput_rung(rungs, 50.0), 1u);
}

TEST(Goodput, EachConditionFailsARung) {
  EXPECT_TRUE(rung_passes(rung(150, 49, 49), 50.0));
  EXPECT_FALSE(rung_passes(rung(150, 50, 10), 50.0));        // seg tail at limit
  EXPECT_FALSE(rung_passes(rung(150, 10, 51), 50.0));        // evit tail over
  EXPECT_FALSE(rung_passes(rung(150, 10, 10, 1), 50.0));     // a failure
  EXPECT_FALSE(rung_passes(rung(150, 10, 10, 0, 60), 50.0)); // growing backlog
  RungResult thin = rung(150, 10, 10);
  thin.evit_tail_ms.reset();  // too few samples to judge
  EXPECT_FALSE(rung_passes(thin, 50.0));
}

TEST(Goodput, NoneOrNonMonotone) {
  EXPECT_FALSE(goodput_rung({rung(90, 60, 10)}, 50.0).has_value());
  // A passing rung above a failing one still counts: goodput is the
  // highest rate that met the rule.
  EXPECT_EQ(goodput_rung({rung(90, 10, 10), rung(150, 90, 10), rung(190, 40, 10)}, 50.0), 2u);
}

TEST(Goodput, TrendGrowth) {
  EXPECT_DOUBLE_EQ(trend_growth({0, 1, 2, 3}, {5, 5, 5, 5}), 0.0);
  EXPECT_NEAR(trend_growth({0, 1, 2, 3}, {0, 10, 20, 30}), 30.0, 1e-9);
  EXPECT_DOUBLE_EQ(trend_growth({1}, {4}), 0.0);
}

TEST(LaneUse, IdleWithBacklogOnSyntheticSpans) {
  // Two lanes over [0, 10]. Lane work: [0, 4] and [0, 10]. One request
  // waits over [4, 8] although a lane is free from 4 on: 4 lane-seconds
  // idle with backlog. Busy lane-time 14 of 20.
  const LaneUse use = lane_use(2, 0.0, 10.0, {{0, 4}, {0, 10}}, {{4, 8}});
  EXPECT_NEAR(use.busy_frac, 14.0 / 20.0, 1e-12);
  EXPECT_NEAR(use.idle_with_backlog_frac, 4.0 / 20.0, 1e-12);
}

TEST(LaneUse, WaitingCappedByIdleLanes) {
  // One lane, busy [0, 5]; three requests wait over [0, 10]. Only the idle
  // lane-time [5, 10] counts, once, not three times.
  const LaneUse use = lane_use(1, 0.0, 10.0, {{0, 5}}, {{0, 10}, {0, 10}, {0, 10}});
  EXPECT_NEAR(use.busy_frac, 0.5, 1e-12);
  EXPECT_NEAR(use.idle_with_backlog_frac, 0.5, 1e-12);
}

TEST(LaneUse, BusyLanesWithBacklogAreNotIdle) {
  const LaneUse use = lane_use(2, 0.0, 4.0, {{0, 4}, {0, 4}}, {{0, 4}});
  EXPECT_NEAR(use.busy_frac, 1.0, 1e-12);
  EXPECT_NEAR(use.idle_with_backlog_frac, 0.0, 1e-12);
}

TEST(LaneUse, ClipsToWindow) {
  const LaneUse use = lane_use(1, 2.0, 4.0, {{0, 3}}, {{3, 10}});
  EXPECT_NEAR(use.busy_frac, 0.5, 1e-12);
  EXPECT_NEAR(use.idle_with_backlog_frac, 0.5, 1e-12);
}

TEST(Geomean, PositiveOnly) {
  EXPECT_NEAR(geomean({1e-4, 1e-2}), 1e-3, 1e-15);
  EXPECT_TRUE(std::isnan(geomean({1.0, 0.0})));
  EXPECT_TRUE(std::isnan(geomean({1.0, std::numeric_limits<double>::quiet_NaN()})));
  EXPECT_TRUE(std::isnan(geomean({})));
}

}  // namespace
}  // namespace perfbench
