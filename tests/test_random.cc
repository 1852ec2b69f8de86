/** @file Unit tests for the deterministic Pcg32 generator. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.hh"

using namespace gals;

TEST(Random, DeterministicForSameSeed)
{
    Pcg32 a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Random, StreamsAreIndependent)
{
    Pcg32 a(42, 1), b(42, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Random, BoundedStaysInBounds)
{
    Pcg32 rng(7);
    for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u, 1u << 30}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Random, BoundedIsRoughlyUniform)
{
    Pcg32 rng(11);
    int counts[8] = {0};
    const int n = 80'000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.nextBounded(8)];
    for (int c : counts) {
        EXPECT_GT(c, n / 8 - n / 80);
        EXPECT_LT(c, n / 8 + n / 80);
    }
}

TEST(Random, RangeInclusive)
{
    Pcg32 rng(3);
    bool lo_seen = false, hi_seen = false;
    for (int i = 0; i < 2000; ++i) {
        int v = rng.nextRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        lo_seen |= v == -2;
        hi_seen |= v == 2;
    }
    EXPECT_TRUE(lo_seen);
    EXPECT_TRUE(hi_seen);
}

TEST(Random, DoubleInUnitInterval)
{
    Pcg32 rng(5);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Random, ChanceExtremes)
{
    Pcg32 rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-0.5));
        EXPECT_TRUE(rng.chance(1.5));
    }
}

TEST(Random, ChanceMatchesProbability)
{
    Pcg32 rng(13);
    int hits = 0;
    const int n = 50'000;
    for (int i = 0; i < n; ++i) {
        if (rng.chance(0.3))
            ++hits;
    }
    EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.02);
}

TEST(Random, GaussianMoments)
{
    Pcg32 rng(17);
    double sum = 0.0, sq = 0.0;
    const int n = 50'000;
    for (int i = 0; i < n; ++i) {
        double v = rng.nextGaussian(10.0, 2.0);
        sum += v;
        sq += v * v;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Random, ThresholdDrawsMatchDoubleDraws)
{
    // chanceAt(chanceThreshold(p)) must be chance(p), and
    // next() < rollThreshold(p) must be nextDouble() < p: the same
    // answer and the same generator state after every call, for
    // every double (edge values, then seeded random ones).
    const double two32 = 4294967296.0;
    std::vector<double> ps = {
        0.0, -0.0, -0.25, -1e-300, 1.0, 1.5, 1e300,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        std::ldexp(1.0, -40), std::ldexp(1.0, -32),
        std::ldexp(1.0, -33), 1.0 - std::ldexp(1.0, -53),
        1.0 - std::ldexp(1.0, -32), 0.5, 0.85, 0.3};
    for (std::uint64_t k : {1ULL, 2ULL, 3ULL, 12345ULL, 1ULL << 31,
                            (1ULL << 32) - 1, (1ULL << 32) - 2}) {
        double p = static_cast<double>(k) / two32;
        ps.push_back(p);
        ps.push_back(std::nextafter(p, 0.0));
        ps.push_back(std::nextafter(p, 1.0));
    }
    Pcg32 pick(77, 5);
    for (int i = 0; i < 10'000; ++i)
        ps.push_back(pick.nextDouble() * 1.2 - 0.1);

    Pcg32 a(31, 9);
    Pcg32 b(31, 9);
    for (double p : ps) {
        SCOPED_TRACE(p);
        // The threshold is the exact boundary: the draws on either
        // side of it answer as nextDouble() would.
        std::uint64_t t = Pcg32::rollThreshold(p);
        ASSERT_LE(t, 1ULL << 32);
        for (std::uint64_t u : {t - 1, t}) {
            if (u >= (1ULL << 32))
                continue; // t - 1 wrapped, or t = 2^32.
            ASSERT_EQ(static_cast<double>(u) / two32 < p, u < t) << u;
        }
        for (int rep = 0; rep < 4; ++rep) {
            ASSERT_EQ(a.chance(p), b.chanceAt(Pcg32::chanceThreshold(p)));
            ASSERT_TRUE(a == b);
            ASSERT_EQ(a.nextDouble() < p,
                      b.next() < Pcg32::rollThreshold(p));
            ASSERT_TRUE(a == b);
        }
    }
}
