// Tests of perfbench's own measurement helpers.
#include <gtest/gtest.h>

#include "harness.h"
#include "metric_names.h"

namespace perfbench {
namespace {

TEST(TimeToTarget, InterpolatesBetweenTheBracketingPoints) {
  const std::vector<EvalPoint> curve = {
      {0.0, 0.0}, {1.0, 0.5}, {2.0, 0.7}, {3.0, 0.9}, {4.0, 0.85}};
  const auto t = time_to_target(curve, 0.8);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 2.5, 1e-12);
}

TEST(TimeToTarget, FirstCrossingWinsEvenIfTheCurveDipsAfterwards) {
  const std::vector<EvalPoint> curve = {
      {0.0, 0.0}, {1.0, 0.9}, {2.0, 0.6}, {3.0, 0.95}};
  EXPECT_NEAR(*time_to_target(curve, 0.8), 8.0 / 9.0, 1e-12);
}

TEST(TimeToTarget, ExactHitAndFirstPointAlreadyAtTarget) {
  const std::vector<EvalPoint> curve = {{0.5, 0.2}, {1.5, 0.8}};
  EXPECT_NEAR(*time_to_target(curve, 0.8), 1.5, 1e-12);
  EXPECT_NEAR(*time_to_target(curve, 0.1), 0.5, 1e-12);
}

TEST(TimeToTarget, NeverReachedIsNullopt) {
  const std::vector<EvalPoint> curve = {{0.0, 0.0}, {1.0, 0.5}, {2.0, 0.79}};
  EXPECT_FALSE(time_to_target(curve, 0.8).has_value());
  EXPECT_FALSE(time_to_target({}, 0.8).has_value());
}

TEST(Quantile, ReportsValueSampleCountAndObservationsBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Quantile p50 = quantile(v, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 500.5);
  EXPECT_EQ(p50.samples, 1000u);
  EXPECT_EQ(p50.beyond, 500u);
  const Quantile p99 = quantile(v, 0.99);
  EXPECT_NEAR(p99.value, 990.01, 1e-9);
  EXPECT_EQ(p99.beyond, 10u);
  const Quantile p999 = quantile(v, 0.999);
  EXPECT_EQ(p999.beyond, 1u);  // too few beyond to trust: callers can tell
}

TEST(Quantile, EmptyAndSingleSamples) {
  const Quantile empty = quantile({}, 0.5);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(empty.value, 0.0);
  const Quantile one = quantile({7.0}, 0.99);
  EXPECT_EQ(one.value, 7.0);
  EXPECT_EQ(one.samples, 1u);
  EXPECT_EQ(one.beyond, 0u);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(PoissonSchedule, SameSeedSameScheduleOtherSeedOtherSchedule) {
  const auto a = poisson_schedule(42, 5000.0, 2.0);
  const auto b = poisson_schedule(42, 5000.0, 2.0);
  const auto c = poisson_schedule(43, 5000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PoissonSchedule, IncreasingWithinTheWindowAtTheRequestedRate) {
  const auto s = poisson_schedule(7, 5000.0, 4.0);
  ASSERT_FALSE(s.empty());
  EXPECT_GT(s.front(), 0.0);
  EXPECT_LT(s.back(), 4.0);
  for (std::size_t i = 1; i < s.size(); ++i) ASSERT_GT(s[i], s[i - 1]);
  // 20000 expected arrivals; a Poisson count is within 5 sigma (~707).
  EXPECT_NEAR(static_cast<double>(s.size()), 20000.0, 707.0);
  EXPECT_TRUE(poisson_schedule(7, 0.0, 4.0).empty());
}

TEST(Tracer, SelfTimeSubtractsTheUnionOfChildIntervals) {
  Tracer tracer(true);
  const auto t0 = Clock::now();
  auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };
  const std::uint64_t parent = tracer.next_id();
  // Two overlapping children cover [10, 60) and one more covers [70, 80):
  // 60 us of the parent's 100.
  tracer.record("child", at(10), at(50), tracer.next_id(), parent, 1);
  tracer.record("child", at(30), at(60), tracer.next_id(), parent, 1);
  tracer.record("child", at(70), at(80), tracer.next_id(), parent, 1);
  tracer.record("parent", at(0), at(100), parent, 0, 1);
  const auto totals = tracer.totals();
  EXPECT_EQ(totals.at("parent").spans, 1u);
  EXPECT_NEAR(totals.at("parent").total_us, 100.0, 1e-6);
  EXPECT_NEAR(totals.at("parent").self_us, 40.0, 1e-6);
  EXPECT_EQ(totals.at("child").spans, 3u);
  EXPECT_NEAR(totals.at("child").self_us, 80.0, 1e-6);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { ScopedSpan span(tracer, "x", 1); }
  tracer.record("y", Clock::now(), Clock::now(), 1, 0, 1);
  EXPECT_TRUE(tracer.totals().empty());
}

TEST(Result, EveryEndToEndMetricMustBeSetAndNonzero) {
  Result result(false);
  result.attempt();
  for (const MetricName& m : kEndToEnd) result.set(m.name, 1.5, 3);
  EXPECT_TRUE(result.correct());
  result.set("p50_us", 0.0);
  EXPECT_FALSE(result.correct());
  result.set("p50_us", 2.0);
  result.fail("boom");
  EXPECT_FALSE(result.correct());
  EXPECT_THROW(result.set("core.topk_us", 1.0), std::logic_error);
}

TEST(Result, JsonHasTheFourKeysAndEveryMetricWithItsUnit) {
  Result result(true);
  result.attempt(5);
  for (const MetricName& m : kPerLayer) result.layer(m.name, 0.25);
  ASSERT_TRUE(result.correct());
  const std::string json = result.json();
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 5, \"failed\": 0, "
                       "\"metrics\": {",
                       0),
            0u);
  EXPECT_NE(json.find("}, \"throughput_per_s\": 0}"), std::string::npos);
  for (const MetricName& m : kPerLayer) {
    const std::string entry = std::string("\"") + m.name +
                              "\": {\"value\": 0.25, \"unit\": \"" + m.unit +
                              "\"}";
    EXPECT_NE(json.find(entry), std::string::npos) << entry;
  }
}

TEST(HostProbe, MeasuresWakeTailAndComputeRate) {
  const HostNoise noise = probe_host();
  // Pings the ponger slept through coalesce into one wake.
  EXPECT_GT(noise.wake_p99_us.samples, 1000u);
  EXPECT_LE(noise.wake_p99_us.samples, 2500u);
  EXPECT_GT(noise.wake_p99_us.value, 0.0);
  EXPECT_GT(noise.compute_rate, 0.0);
  EXPECT_NE(host_build_class().find("nproc="), std::string::npos);
}

}  // namespace
}  // namespace perfbench
