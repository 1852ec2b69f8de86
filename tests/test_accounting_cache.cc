/**
 * @file
 * Tests for the Accounting Cache, including the property at the heart
 * of the paper's controller: one interval of MRU-position counters
 * reconstructs exactly the A/B hit counts that *every* partitioning
 * would have produced on the same access stream.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cache/accounting_cache.hh"
#include "common/random.hh"
#include "timing/frequency_model.hh"

using namespace gals;

namespace
{
constexpr std::uint64_t KB = 1024;

/** Synthesize a mixed stream: strided sweeps plus random pool. */
std::vector<Addr>
mixedStream(std::uint64_t seed, size_t n, std::uint64_t pool_bytes,
            double rand_frac)
{
    Pcg32 rng(seed);
    std::vector<Addr> out;
    out.reserve(n);
    Addr stream_pos = 0;
    std::uint64_t lines = pool_bytes / 64;
    for (size_t i = 0; i < n; ++i) {
        if (rng.chance(rand_frac)) {
            out.push_back(0x4000'0000 +
                          rng.nextBounded(static_cast<std::uint32_t>(
                              lines)) * 64);
        } else {
            stream_pos = (stream_pos + 64) % pool_bytes;
            out.push_back(0x1000'0000 + stream_pos);
        }
    }
    return out;
}
} // namespace

TEST(AccountingCache, Geometry)
{
    AccountingCache c("c", 256 * KB, 8);
    EXPECT_EQ(c.numSets(), 512);
    EXPECT_EQ(c.ways(), 8);
    EXPECT_EQ(c.lineBytes(), 64);
    EXPECT_EQ(c.aWays(), 8);
}

TEST(AccountingCache, HitsAfterFill)
{
    AccountingCache c("c", 8 * KB, 4);
    c.setPartition(4, true);
    Addr a = 0x1000;
    EXPECT_EQ(c.access(a).where, HitWhere::Miss);
    EXPECT_EQ(c.access(a).where, HitWhere::APartition);
    EXPECT_EQ(c.access(a).where, HitWhere::APartition);
    EXPECT_EQ(c.totalMisses(), 1u);
    EXPECT_EQ(c.totalAHits(), 2u);
}

TEST(AccountingCache, BPartitionHitAndSwap)
{
    AccountingCache c("c", 8 * KB, 4);
    c.setPartition(1, true);
    // Four lines mapping to the same set (set stride = 32 lines).
    Addr set_stride = 32 * 64;
    Addr a0 = 0, a1 = set_stride, a2 = 2 * set_stride;
    c.access(a0);
    c.access(a1); // a0 pushed to MRU pos 1 (B partition).
    EXPECT_EQ(c.access(a0).where, HitWhere::BPartition);
    // The swap made a0 MRU again.
    EXPECT_EQ(c.access(a0).where, HitWhere::APartition);
    EXPECT_EQ(c.access(a1).where, HitWhere::BPartition);
    c.access(a2);
    EXPECT_EQ(c.totalBHits(), 2u);
}

TEST(AccountingCache, NoBHitsWhenDisabled)
{
    AccountingCache c("c", 8 * KB, 4);
    c.setPartition(1, false);
    Addr set_stride = 32 * 64;
    c.access(0);
    c.access(set_stride);          // evicts line 0 (A is 1 way).
    EXPECT_EQ(c.access(0).where, HitWhere::Miss);
    EXPECT_EQ(c.totalBHits(), 0u);
}

TEST(AccountingCache, DisablingBInvalidatesRetainedBlocks)
{
    AccountingCache c("c", 8 * KB, 4);
    c.setPartition(4, true);
    Addr set_stride = 32 * 64;
    for (int i = 0; i < 4; ++i)
        c.access(static_cast<Addr>(i) * set_stride);
    // All four resident; now shrink A to 1 without B.
    c.setPartition(1, false);
    // Only the MRU block (i=3) survives.
    EXPECT_EQ(c.access(3 * set_stride).where, HitWhere::APartition);
    EXPECT_EQ(c.access(0 * set_stride).where, HitWhere::Miss);
}

TEST(AccountingCache, IntervalCountersResettable)
{
    AccountingCache c("c", 8 * KB, 4);
    c.access(0);
    c.access(0);
    EXPECT_EQ(c.interval().accesses, 2u);
    EXPECT_EQ(c.interval().misses, 1u);
    EXPECT_EQ(c.interval().mru_hits[0], 1u);
    c.resetInterval();
    EXPECT_EQ(c.interval().accesses, 0u);
    EXPECT_EQ(c.interval().misses, 0u);
    // Lifetime totals survive the interval reset.
    EXPECT_EQ(c.totalAccesses(), 2u);
}

TEST(AccountingCache, ReconstructSplitsByPosition)
{
    IntervalCounts counts;
    counts.mru_hits = {10, 20, 30, 40};
    counts.misses = 5;
    auto [a1, b1] = AccountingCache::reconstruct(counts, 1);
    EXPECT_EQ(a1, 10u);
    EXPECT_EQ(b1, 90u);
    auto [a3, b3] = AccountingCache::reconstruct(counts, 3);
    EXPECT_EQ(a3, 60u);
    EXPECT_EQ(b3, 40u);
    auto [a4, b4] = AccountingCache::reconstruct(counts, 4);
    EXPECT_EQ(a4, 100u);
    EXPECT_EQ(b4, 0u);
}

/**
 * Every machine builds the largest Table 1 row's arrays and sets A to
 * its row's associativity. With B off, that partition must be the
 * row's own k-way cache on every access: the same outcomes and the
 * same totals, coherence invalidations included. The equivalence
 * needs every row to keep the arrays' way size (so the set count),
 * which is pinned too.
 */
TEST(AccountingCache, BOffPartitionOfTheArrayIsTheRowsKWayCache)
{
    const SramOrg &l1 = l1dArray();
    const SramOrg &l2 = l2Array();
    EXPECT_EQ(l1.size_bytes / static_cast<unsigned>(l1.assoc), 32 * KB);
    EXPECT_EQ(l2.size_bytes / static_cast<unsigned>(l2.assoc), 256 * KB);
    for (int row = 0; row < kNumAdaptiveConfigs; ++row) {
        const DCachePairConfig &dc = dcachePairConfig(row);
        // Machines partition by the adaptive column's associativity.
        EXPECT_EQ(dc.l1_adapt.assoc, dc.l1_opt.assoc);
        EXPECT_EQ(dc.l2_adapt.assoc, dc.l2_opt.assoc);
        for (const auto &[opt, array] :
             {std::pair{dc.l1_opt, l1}, std::pair{dc.l2_opt, l2}}) {
            SCOPED_TRACE(dc.name + " " + std::to_string(opt.size_bytes));
            EXPECT_EQ(opt.size_bytes / static_cast<unsigned>(opt.assoc),
                      array.size_bytes /
                          static_cast<unsigned>(array.assoc));
            AccountingCache kway("kway", opt.size_bytes, opt.assoc);
            kway.setPartition(opt.assoc, false);
            AccountingCache part("part", array.size_bytes, array.assoc);
            part.setPartition(opt.assoc, false);
            ASSERT_EQ(kway.numSets(), part.numSets());

            // Pool 1.5x the row's capacity: hits, conflict misses and
            // capacity misses all occur.
            std::uint64_t pool = opt.size_bytes * 3 / 2;
            auto stream = mixedStream(
                static_cast<std::uint64_t>(row) * 7 + opt.size_bytes,
                4 * pool / 64, pool, 0.5);
            Pcg32 inv(static_cast<std::uint64_t>(row) + 99);
            for (size_t i = 0; i < stream.size(); ++i) {
                ASSERT_EQ(kway.access(stream[i]).where,
                          part.access(stream[i]).where)
                    << "access " << i;
                if (inv.chance(0.05)) {
                    Addr victim = stream[inv.nextBounded(
                        static_cast<std::uint32_t>(i + 1))];
                    ASSERT_EQ(kway.invalidate(victim),
                              part.invalidate(victim))
                        << "invalidation after access " << i;
                }
            }
            EXPECT_EQ(kway.totalAHits(), part.totalAHits());
            EXPECT_EQ(kway.totalMisses(), part.totalMisses());
            EXPECT_EQ(part.totalBHits(), 0u);
            EXPECT_GT(part.totalAHits(), 0u);
            EXPECT_GT(part.totalMisses(), 0u);
        }
    }
}

/**
 * The central Accounting Cache property (paper §3.1): run the same
 * stream through (a) one fully-enabled cache collecting MRU counters
 * and (b) reference caches fixed at each candidate A size with B
 * enabled; the reconstruction from (a) must match the actual A/B/miss
 * counts of every (b) exactly.
 */
class AccountingReconstruction
    : public ::testing::TestWithParam<
          std::tuple<int, std::uint64_t, double>>
{};

TEST_P(AccountingReconstruction, MatchesReferenceCaches)
{
    auto [ways, pool_kb, rand_frac] = GetParam();
    const std::uint64_t size = 64 * KB;
    auto stream = mixedStream(ways * 1000 + pool_kb, 30'000,
                              pool_kb * KB, rand_frac);

    AccountingCache observer("obs", size, ways);
    observer.setPartition(ways, true);
    for (Addr a : stream)
        observer.access(a);

    for (int a_ways = 1; a_ways <= ways; ++a_ways) {
        AccountingCache ref("ref", size, ways);
        ref.setPartition(a_ways, true);
        std::uint64_t a_hits = 0, b_hits = 0, misses = 0;
        for (Addr a : stream) {
            switch (ref.access(a).where) {
              case HitWhere::APartition: ++a_hits; break;
              case HitWhere::BPartition: ++b_hits; break;
              default: ++misses; break;
            }
        }
        auto [ra, rb] = AccountingCache::reconstruct(
            observer.interval(), a_ways);
        EXPECT_EQ(ra, a_hits) << "A hits at a_ways=" << a_ways;
        EXPECT_EQ(rb, b_hits) << "B hits at a_ways=" << a_ways;
        EXPECT_EQ(observer.interval().misses, misses)
            << "misses at a_ways=" << a_ways;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, AccountingReconstruction,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(16u, 96u, 512u),
                       ::testing::Values(0.1, 0.5, 0.9)));
