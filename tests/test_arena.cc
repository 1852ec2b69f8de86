/**
 * @file
 * Tests for the thread-local recycling arena: block reuse across
 * allocations and container instances, pass-through of oversized
 * requests, and stability of repeated simulate() construct/run/destroy
 * cycles (the design-space-sweep pattern the arena exists for).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/arena.hh"
#include "sim/simulation.hh"
#include "workload/suite.hh"

using namespace gals;

TEST(Arena, RecyclesBlocksBySizeClass)
{
    ThreadArena &arena = ThreadArena::local();
    // Same power-of-two bucket (128 B) regardless of exact size: the
    // freed block must come back on the very next allocation (LIFO
    // free list).
    void *a = arena.allocate(100);
    arena.deallocate(a, 100);
    void *b = arena.allocate(120);
    EXPECT_EQ(a, b);
    arena.deallocate(b, 120);

    // Different bucket: not the same block.
    void *c = arena.allocate(1000);
    EXPECT_NE(b, c);
    arena.deallocate(c, 1000);
}

TEST(Arena, PassThroughOversizedBlocks)
{
    // Above the largest bucket (1 MiB) the arena delegates to the
    // system allocator; allocation and free must still work.
    ThreadArena &arena = ThreadArena::local();
    const std::size_t big = (std::size_t{1} << 20) + 64;
    void *p = arena.allocate(big);
    ASSERT_NE(p, nullptr);
    static_cast<char *>(p)[0] = 1;
    static_cast<char *>(p)[big - 1] = 2;
    arena.deallocate(p, big);
}

TEST(Arena, VectorsRecycleAcrossInstances)
{
    // A destroyed ArenaVector's storage is adopted by the next
    // same-bucket vector — the mechanism that makes the second and
    // later Chip constructions on a thread allocation-free.
    const std::uint64_t *data0 = nullptr;
    {
        ArenaVector<std::uint64_t> v;
        v.reserve(64); // one 512 B block.
        v.assign(64, 7);
        data0 = v.data();
    }
    ArenaVector<std::uint64_t> w;
    w.reserve(64);
    EXPECT_EQ(w.data(), data0);
}

TEST(Arena, RepeatedSweepsRecycleAndStayIdentical)
{
    // The sweep pattern: many simulate() lifetimes on one thread. From
    // the second run on, storage is recycled; results must be
    // bit-identical every time (recycled memory must never leak state
    // between runs).
    WorkloadParams wl = findBenchmark("gzip");
    wl.sim_instrs = 2'000;
    wl.warmup_instrs = 500;
    MachineConfig m = MachineConfig::mcdPhaseAdaptive();

    RunStats first = simulate(m, wl);
    for (int i = 0; i < 5; ++i) {
        RunStats again = simulate(m, wl);
        EXPECT_EQ(again.committed, first.committed) << i;
        EXPECT_EQ(again.time_ps, first.time_ps) << i;
        EXPECT_EQ(again.l1i_misses, first.l1i_misses) << i;
        EXPECT_EQ(again.l1d_misses, first.l1d_misses) << i;
        EXPECT_EQ(again.mispredicts, first.mispredicts) << i;
        EXPECT_EQ(again.relocks, first.relocks) << i;
    }
}

TEST(Arena, MixedSizeChurnSurvives)
{
    // Alternating containers of different size classes across many
    // rounds: every block is either recycled or fresh, never corrupt.
    for (int round = 0; round < 50; ++round) {
        ArenaVector<int> small(static_cast<size_t>(8 + round), round);
        ArenaVector<double> mid(static_cast<size_t>(100 + round),
                                1.5 * round);
        ArenaDeque<int> dq;
        for (int i = 0; i < 64; ++i)
            dq.push_back(i);
        EXPECT_EQ(small.back(), round);
        EXPECT_DOUBLE_EQ(mid.front(), 1.5 * round);
        EXPECT_EQ(dq.front(), 0);
        EXPECT_EQ(dq.back(), 63);
    }
}
