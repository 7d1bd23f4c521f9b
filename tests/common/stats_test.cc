#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace genealog {
namespace {

TEST(RunStatsTest, EmptyIsZero) {
  RunStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.ci95(), 0.0);
}

TEST(RunStatsTest, SingleValue) {
  RunStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunStatsTest, MeanAndVariance) {
  RunStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-9);
}

TEST(RunStatsTest, Ci95ShrinksWithSamples) {
  RunStats small;
  RunStats large;
  for (int i = 0; i < 10; ++i) small.Add(i % 2 == 0 ? 1.0 : 3.0);
  for (int i = 0; i < 1000; ++i) large.Add(i % 2 == 0 ? 1.0 : 3.0);
  EXPECT_GT(small.ci95(), large.ci95());
  EXPECT_GT(large.ci95(), 0.0);
}

TEST(RunStatsTest, TracksMinMax) {
  RunStats s;
  s.Add(-3);
  s.Add(10);
  s.Add(2);
  EXPECT_EQ(s.min(), -3);
  EXPECT_EQ(s.max(), 10);
}

TEST(RunStatsTest, ConstantSeriesHasZeroVariance) {
  RunStats s;
  for (int i = 0; i < 100; ++i) s.Add(7.5);
  EXPECT_NEAR(s.variance(), 0.0, 1e-12);
  EXPECT_NEAR(s.ci95(), 0.0, 1e-12);
}

TEST(PercentileTest, EmptyReturnsZero) {
  EXPECT_EQ(Percentile({}, 50), 0.0);
}

TEST(PercentileTest, MedianOfOddSet) {
  EXPECT_DOUBLE_EQ(Percentile({3, 1, 2}, 50), 2.0);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(Percentile({0, 10}, 50), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({0, 10}, 25), 2.5);
}

TEST(PercentileTest, ExtremesAreMinMax) {
  std::vector<double> v{5, 1, 9, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 9.0);
}

TEST(SampleStatsTest, MeanOverAllSamplesNotJustReservoir) {
  SampleStats s(/*reservoir_capacity=*/10);
  for (int i = 0; i < 1000; ++i) s.Add(static_cast<double>(i));
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 999.0 / 2.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 999.0);
}

TEST(SampleStatsTest, PercentileFromReservoirIsPlausible) {
  SampleStats s(4096);
  for (int i = 0; i < 100000; ++i) s.Add(static_cast<double>(i % 1000));
  const double p50 = s.percentile(50);
  EXPECT_GT(p50, 350.0);
  EXPECT_LT(p50, 650.0);
}

TEST(SampleStatsTest, SmallSampleExactPercentiles) {
  SampleStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
}

TEST(SampleStatsTest, MergeIsExactWhileNoReservoirOverflowed) {
  // Two sinks with very different latency profiles: the fleet p99 is a
  // percentile of all samples, not the mean of the two p99s.
  SampleStats fast(1000);
  SampleStats slow(1000);
  std::vector<double> all;
  for (int i = 0; i < 900; ++i) {
    fast.Add(1.0 + i % 10);
    all.push_back(1.0 + i % 10);
  }
  for (int i = 0; i < 100; ++i) {
    slow.Add(100.0 + i);
    all.push_back(100.0 + i);
  }
  SampleStats fleet(1000);
  fleet.Merge(fast);
  fleet.Merge(slow);
  EXPECT_EQ(fleet.count(), 1000u);
  EXPECT_DOUBLE_EQ(fleet.min(), 1.0);
  EXPECT_DOUBLE_EQ(fleet.max(), 199.0);
  EXPECT_DOUBLE_EQ(fleet.mean(),
                   (fast.mean() * 900 + slow.mean() * 100) / 1000);
  for (double pct : {50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(fleet.percentile(pct), Percentile(all, pct)) << pct;
  }
  EXPECT_NE(fleet.percentile(99),
            (fast.percentile(99) + slow.percentile(99)) / 2);
}

TEST(SampleStatsTest, MergeAfterOverflowWeighsSidesBySampleCount) {
  // The big side saw 100x the samples but kept no more of them: the merged
  // reservoir must still be ~99% big-side values, not half.
  SampleStats big(200);
  SampleStats small(200);
  for (int i = 0; i < 20000; ++i) big.Add(1.0);
  for (int i = 0; i < 200; ++i) small.Add(1000.0);
  SampleStats merged(200);
  merged.Merge(big);
  merged.Merge(small);
  EXPECT_EQ(merged.count(), 20200u);
  EXPECT_DOUBLE_EQ(merged.max(), 1000.0);
  EXPECT_DOUBLE_EQ(merged.percentile(50), 1.0);
  EXPECT_DOUBLE_EQ(merged.percentile(95), 1.0);
  EXPECT_DOUBLE_EQ(merged.percentile(100), 1000.0);
}

TEST(SampleStatsTest, MergeWithEmptyIsIdentity) {
  SampleStats s;
  for (double x : {3.0, 1.0, 2.0}) s.Add(x);
  s.Merge(SampleStats());
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.percentile(50), 2.0);
  SampleStats empty;
  empty.Merge(s);
  EXPECT_EQ(empty.count(), 3u);
  EXPECT_DOUBLE_EQ(empty.min(), 1.0);
  EXPECT_DOUBLE_EQ(empty.percentile(50), 2.0);
}

}  // namespace
}  // namespace genealog
