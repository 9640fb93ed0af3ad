// The benchmark's metric math: percentile selection and the sample count a
// tail needs, verdict-lag interpolation from (time, count) samples, and
// span self-time subtraction.
#include <gtest/gtest.h>

#include <vector>

#include "metrics.hpp"

namespace e2e {
namespace {

TEST(Percentile, NearestRankOnHundredSamples) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.5), 1.0);
  EXPECT_EQ(v.front(), 100.0);  // the caller's order is untouched
}

TEST(Percentile, SmallAndEmptySamples) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({7.0}, 99.0), 7.0);
  EXPECT_EQ(percentile({1.0, 2.0}, 50.0), 1.0);
  EXPECT_EQ(percentile({1.0, 2.0, 3.0}, 50.0), 2.0);
  EXPECT_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(tail_supported(999, 99.0));
  EXPECT_TRUE(tail_supported(1000, 99.0));
  EXPECT_FALSE(tail_supported(19, 50.0));
  EXPECT_TRUE(tail_supported(20, 50.0));
  EXPECT_TRUE(tail_supported(10000, 99.9));
  EXPECT_FALSE(tail_supported(9999, 99.9));
}

TEST(Lag, EntryTimeInterpolatesBetweenSamples) {
  // 0 events at t=0, 100 by t=1, 300 by t=2.
  const std::vector<CountSample> s{{0.0, 0}, {1.0, 100}, {2.0, 300}};
  EXPECT_DOUBLE_EQ(entered_at(s, 0), 0.01);   // the 1st event: 1/100 of the way
  EXPECT_DOUBLE_EQ(entered_at(s, 99), 1.0);   // the 100th: at the covering sample
  EXPECT_DOUBLE_EQ(entered_at(s, 100), 1.005);
  EXPECT_DOUBLE_EQ(entered_at(s, 299), 2.0);
  EXPECT_DOUBLE_EQ(entered_at(s, 500), 2.0);  // past the last sample
}

TEST(Lag, EntryTimeWithRepeatedCounts) {
  // A sample that adds nothing must not divide by zero or pull times back.
  const std::vector<CountSample> s{{0.0, 0}, {1.0, 10}, {1.5, 10}, {2.0, 20}};
  EXPECT_DOUBLE_EQ(entered_at(s, 9), 1.0);
  EXPECT_DOUBLE_EQ(entered_at(s, 10), 1.55);
  EXPECT_DOUBLE_EQ(entered_at(s, 19), 2.0);
}

TEST(Lag, JudgedAtIsTheFirstCoveringMark) {
  const std::vector<CountSample> marks{{1.0, 10}, {3.0, 30}};
  EXPECT_EQ(judged_at(marks, 0), 1.0);
  EXPECT_EQ(judged_at(marks, 9), 1.0);
  EXPECT_EQ(judged_at(marks, 10), 3.0);
  EXPECT_EQ(judged_at(marks, 29), 3.0);
}

TEST(Lag, TwoBatchStallShowsInTheLags) {
  // Events 0..9 entered over [0, 1] and were judged at 1.5; events 10..19
  // entered over [1, 2] and waited for a verdict at 4.
  const std::vector<CountSample> entries{{0.0, 0}, {1.0, 10}, {2.0, 20}};
  const std::vector<CountSample> marks{{1.5, 10}, {4.0, 20}};
  const auto lags = lag_samples(entries, marks, 20, 1);
  ASSERT_EQ(lags.size(), 20u);
  EXPECT_DOUBLE_EQ(lags[0], 1.5 - 0.1);
  EXPECT_DOUBLE_EQ(lags[9], 0.5);
  EXPECT_DOUBLE_EQ(lags[10], 4.0 - 1.1);
  EXPECT_DOUBLE_EQ(lags[19], 2.0);
  EXPECT_DOUBLE_EQ(percentile(lags, 100.0), 2.9);
  // A stride keeps every stride-th event, starting with the first.
  const auto strided = lag_samples(entries, marks, 20, 5);
  ASSERT_EQ(strided.size(), 4u);
  EXPECT_DOUBLE_EQ(strided[2], lags[10]);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  EXPECT_DOUBLE_EQ(self_time({0.0, 10.0}, {}), 10.0);
  EXPECT_DOUBLE_EQ(self_time({0.0, 10.0}, {{1.0, 3.0}, {5.0, 6.0}}), 7.0);
  // Overlapping children (two threads) count their union once.
  EXPECT_DOUBLE_EQ(self_time({0.0, 10.0}, {{1.0, 4.0}, {2.0, 5.0}, {4.5, 6.0}}), 5.0);
  // Children are clipped to the parent.
  EXPECT_DOUBLE_EQ(self_time({2.0, 6.0}, {{0.0, 3.0}, {5.0, 9.0}}), 2.0);
  // A child nested inside another adds nothing.
  EXPECT_DOUBLE_EQ(self_time({0.0, 10.0}, {{1.0, 9.0}, {2.0, 3.0}}), 2.0);
}

TEST(Tracer, SelfTimeAndTotalsFromSpans) {
  Tracer t(true);
  const std::size_t pump = t.open("drain.pump", 0.0, kNoSpan, 0);
  t.add("certify.accept", {1.0, 2.0}, pump, 0);
  t.add("certify.accept", {3.0, 3.5}, pump, 0);
  t.close(pump, 5.0);
  EXPECT_DOUBLE_EQ(t.total("certify.accept"), 1.5);
  EXPECT_DOUBLE_EQ(t.self(pump), 3.5);
  EXPECT_EQ(t.spans().size(), 3u);

  Tracer off(false);
  EXPECT_EQ(off.open("x", 0.0, kNoSpan, 0), kNoSpan);
  off.close(kNoSpan, 1.0);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace e2e
