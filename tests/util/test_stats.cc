/**
 * @file
 * Unit tests for the statistics helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/logging.hh"
#include "util/stats.hh"

namespace afsb {
namespace {

TEST(RunningStats, BasicMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, CvMatchesDefinition)
{
    RunningStats s;
    s.add(10.0);
    s.add(12.0);
    s.add(8.0);
    EXPECT_NEAR(s.cv(), s.stddev() / s.mean(), 1e-12);
}

TEST(RunningStats, EmptyIsSafe)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(RunningStats, MergeEqualsCombinedStream)
{
    RunningStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = 0.37 * i - 3.0;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, MeanMedianGeomean)
{
    EXPECT_DOUBLE_EQ(meanOf({1, 2, 3, 4}), 2.5);
    EXPECT_DOUBLE_EQ(medianOf({5, 1, 3}), 3.0);
    EXPECT_DOUBLE_EQ(medianOf({4, 1, 3, 2}), 2.5);
    EXPECT_NEAR(geomean({1.0, 8.0}), std::sqrt(8.0), 1e-12);
    EXPECT_THROW(geomean({1.0, 0.0}), FatalError);
}

TEST(Percentile, LinearInterpolationMatchesHandValues)
{
    std::vector<double> xs;
    for (int i = 1; i <= 100; ++i)
        xs.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 100.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 50.5);
    EXPECT_NEAR(percentile(xs, 95.0), 95.05, 1e-12);
    EXPECT_NEAR(percentile(xs, 99.0), 99.01, 1e-12);
}

TEST(Percentile, InputOrderDoesNotMatter)
{
    const std::vector<double> shuffled = {7, 1, 9, 3, 5};
    const std::vector<double> sorted = {1, 3, 5, 7, 9};
    for (double p : {0.0, 25.0, 50.0, 90.0, 100.0})
        EXPECT_DOUBLE_EQ(percentile(shuffled, p),
                         percentile(sorted, p));
}

TEST(Percentile, EdgeCases)
{
    const std::vector<double> empty;
    const std::vector<double> one = {42.0};
    EXPECT_DOUBLE_EQ(percentile(empty, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile(one, 1.0), 42.0);
    EXPECT_DOUBLE_EQ(percentile(one, 99.0), 42.0);
    EXPECT_THROW(percentile(one, -1.0), FatalError);
    EXPECT_THROW(percentile(one, 100.5), FatalError);
}

TEST(Percentile, PercentilesOfBundlesAllThree)
{
    std::vector<double> xs;
    for (int i = 1; i <= 1000; ++i)
        xs.push_back(static_cast<double>(i));
    const auto p = percentilesOf(xs);
    EXPECT_DOUBLE_EQ(p.p50, percentile(xs, 50.0));
    EXPECT_DOUBLE_EQ(p.p95, percentile(xs, 95.0));
    EXPECT_DOUBLE_EQ(p.p99, percentile(xs, 99.0));
    EXPECT_LT(p.p50, p.p95);
    EXPECT_LT(p.p95, p.p99);
}

TEST(Stats, SpeedupSeries)
{
    const auto s = speedupSeries({100.0, 50.0, 25.0, 30.0});
    ASSERT_EQ(s.size(), 4u);
    EXPECT_DOUBLE_EQ(s[0], 1.0);
    EXPECT_DOUBLE_EQ(s[1], 2.0);
    EXPECT_DOUBLE_EQ(s[2], 4.0);
    EXPECT_NEAR(s[3], 100.0 / 30.0, 1e-12);
}

TEST(Stats, EfficiencySeries)
{
    const auto e = efficiencySeries({100.0, 55.0, 30.0},
                                    {1, 2, 4});
    ASSERT_EQ(e.size(), 3u);
    EXPECT_DOUBLE_EQ(e[0], 1.0);
    EXPECT_NEAR(e[1], (100.0 / 55.0) / 2.0, 1e-12);
    EXPECT_NEAR(e[2], (100.0 / 30.0) / 4.0, 1e-12);
    EXPECT_THROW(efficiencySeries({1.0}, {1, 2}), FatalError);
}

} // namespace
} // namespace afsb
