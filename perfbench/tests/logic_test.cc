// Unit tests of the benchmark's own logic: the arrival schedule, the
// percentile rule and the median that max_qps takes over its probes.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "schedule.h"
#include "stats.h"

namespace perfbench {
namespace {

ScheduleSpec Poisson(double rate, double seconds, uint64_t seed) {
  ScheduleSpec s;
  s.mean_rate = rate;
  s.duration_s = seconds;
  s.tenants = 1000;
  s.seed = seed;
  return s;
}

ScheduleSpec Burst(double rate, double seconds, uint64_t seed) {
  ScheduleSpec s = Poisson(rate, seconds, seed);
  s.burst_factor = 4.0;
  s.burst_s = 0.025;
  s.period_s = 0.1;
  return s;
}

TEST(Schedule, PoissonMeanRate) {
  std::vector<Arrival> a;
  MakeSchedule(Poisson(20000.0, 5.0, 7), &a);
  // 100k expected arrivals; Poisson sd ~316.
  EXPECT_NEAR(static_cast<double>(a.size()), 100000.0, 1500.0);
  for (size_t i = 1; i < a.size(); ++i) ASSERT_LE(a[i - 1].t, a[i].t);
  EXPECT_LT(a.back().t, 5.0);
}

TEST(Schedule, SameSeedSameSchedule) {
  std::vector<Arrival> a, b, c;
  MakeSchedule(Burst(10000.0, 1.0, 3), &a);
  MakeSchedule(Burst(10000.0, 1.0, 4), &c);
  MakeSchedule(Burst(20000.0, 1.0, 5), &b);
  MakeSchedule(Burst(10000.0, 1.0, 3), &b);  // a reused buffer.
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
  }
  EXPECT_FALSE(a.size() == c.size() && a.front().t == c.front().t);
}

TEST(Schedule, TenantsAreUniform) {
  ScheduleSpec s = Poisson(50000.0, 2.0, 11);
  s.tenants = 10;
  std::vector<size_t> count(10, 0);
  std::vector<Arrival> a;
  MakeSchedule(s, &a);
  for (const Arrival& x : a) {
    ASSERT_LT(x.tenant, 10u);
    ++count[x.tenant];
  }
  for (size_t c : count) {
    EXPECT_NEAR(static_cast<double>(c), static_cast<double>(a.size()) / 10.0,
                600.0);
  }
}

TEST(Schedule, BurstShape) {
  // 4x the mean for 25 ms of every 100 ms carries the whole mean: nothing
  // arrives between bursts, and the mean rate is kept.
  const ScheduleSpec spec = Burst(20000.0, 5.0, 5);
  EXPECT_DOUBLE_EQ(RateAt(spec, 0.010), 80000.0);
  EXPECT_DOUBLE_EQ(RateAt(spec, 0.050), 0.0);
  EXPECT_DOUBLE_EQ(RateAt(spec, 1.124), 80000.0);
  std::vector<Arrival> a;
  MakeSchedule(spec, &a);
  EXPECT_NEAR(static_cast<double>(a.size()), 100000.0, 1500.0);
  for (const Arrival& x : a) {
    const double phase = std::fmod(x.t, 0.1);
    ASSERT_LT(phase, 0.025 + 1e-9) << "arrival at " << x.t;
  }
}

TEST(Schedule, BurstWithBackgroundRate) {
  // 2x for 25 ms of 100 ms leaves (100 - 50) / 75 of the mean in between.
  ScheduleSpec spec = Burst(30000.0, 10.0, 9);
  spec.burst_factor = 2.0;
  EXPECT_NEAR(RateAt(spec, 0.05), 30000.0 * 50.0 / 75.0, 1e-6);
  size_t in_burst = 0;
  std::vector<Arrival> a;
  MakeSchedule(spec, &a);
  for (const Arrival& x : a) in_burst += std::fmod(x.t, 0.1) < 0.025;
  EXPECT_NEAR(static_cast<double>(a.size()), 300000.0, 3000.0);
  EXPECT_NEAR(static_cast<double>(in_burst) / static_cast<double>(a.size()),
              0.5, 0.01);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  Quantile q = TailQuantile(&v, 0.99);
  EXPECT_FALSE(q.supported);  // only 9 samples lie beyond rank 990.
  v.push_back(1000);
  q = TailQuantile(&v, 0.99);
  EXPECT_TRUE(q.supported);
  EXPECT_EQ(q.value, 990.0);
  EXPECT_EQ(q.samples, 1000u);
  std::vector<double> few = {3, 1, 2};
  EXPECT_FALSE(TailQuantile(&few, 0.5).supported);
  EXPECT_EQ(TailQuantile(&few, 0.5).value, 2.0);
}

TEST(Percentile, WindowedMedianIgnoresOneStalledWindow) {
  std::vector<std::vector<double>> windows(5);
  for (auto& w : windows) {
    for (int i = 0; i < 2000; ++i) w.push_back(100.0 + i % 50);
  }
  for (double& x : windows[2]) x = 50000.0;  // a stalled window.
  const Quantile q = WindowedQuantile(windows, 0.99);
  EXPECT_TRUE(q.supported);
  EXPECT_LT(q.value, 200.0);
  EXPECT_EQ(q.samples, 10000u);
  // Too few samples in most windows: not supported.
  std::vector<std::vector<double>> sparse(5, std::vector<double>(500, 1.0));
  sparse[0].assign(2000, 1.0);
  EXPECT_FALSE(WindowedQuantile(sparse, 0.99).supported);
}

TEST(Median, OneStalledProbeDoesNotMoveIt) {
  // max_qps is the median of the run's capacity probes.
  const std::vector<double> probes = {61000.0, 60000.0, 12000.0, 59000.0,
                                      60500.0};
  EXPECT_EQ(Median(probes), 60000.0);
  EXPECT_EQ(Median({1.0, 3.0}), 2.0);
  EXPECT_EQ(Median({}), 0.0);
}

}  // namespace
}  // namespace perfbench
