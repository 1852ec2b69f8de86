/**
 * @file
 * Determinism and kernel-equivalence regression tests.
 *
 * The event-driven kernel must be *bit-identical* to the step-every-
 * edge reference kernel: every paper table depends on exact RunStats.
 * Three layers of protection:
 *
 *  1. Golden values captured from the seed simulator (before the
 *     event kernel existed) — any divergence from the original
 *     modeled behavior fails here, even if both kernels agree. All
 *     three paper machine types are pinned across four workloads.
 *  2. Event kernel vs. reference kernel on the same machine
 *     configuration, including jitter and phase-adaptive relocks
 *     (the hard cases for idle-edge skipping). The randomized
 *     differential sweep in test_differential.cc extends this layer.
 *  3. Sweeps under GALS_THREADS=1 vs. multi-threaded: host thread
 *     count must never leak into results.
 *
 * Golden-update policy: see docs/testing.md. Rows change only for an
 * intentional, documented modeling change — never to make an
 * optimization pass.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "workload/suite.hh"

using namespace gals;
using harness::expectSameStats;
using harness::goldenMachine;
using harness::goldenWorkload;

namespace
{

/** One golden row captured from the seed simulator. */
struct Golden
{
    const char *config;
    const char *bench;
    std::uint64_t committed, time_ps;
    std::uint64_t l1i_misses, l1d_misses, l2_misses;
    std::uint64_t branches, mispredicts, flushes, relocks;
    std::uint64_t l1d_accesses;
};

// Captured from the seed simulator (commit "v0", original kernel),
// 12k measured + 2k warmup instructions. The sync/art, sync/mst and
// phase/mst rows were captured at PR 2 from the PR 1 kernel, which
// this table pins as bit-identical to the seed, so all rows share one
// provenance. Every paper machine type is covered on ≥3 workloads.
const Golden kGolden[] = {
    {"sync", "gzip", 12000u, 32315696u, 101u, 1191u, 946u, 750u, 186u,
     186u, 0u, 3473u},
    {"mcd", "gzip", 12000u, 31636656u, 101u, 1191u, 946u, 751u, 170u,
     170u, 0u, 3460u},
    {"mcd1230", "gzip", 12000u, 32794728u, 100u, 818u, 918u, 751u,
     178u, 178u, 0u, 3471u},
    {"phase", "gzip", 12000u, 34694927u, 100u, 818u, 918u, 751u, 189u,
     189u, 3u, 3463u},
    {"sync", "apsi", 12000u, 31219664u, 202u, 392u, 550u, 749u, 250u,
     250u, 0u, 3475u},
    {"mcd", "apsi", 12000u, 30426612u, 202u, 392u, 550u, 749u, 240u,
     240u, 0u, 3473u},
    {"phase", "apsi", 12000u, 33049404u, 202u, 348u, 550u, 749u, 240u,
     240u, 1u, 3473u},
    {"sync", "art", 12000u, 69097840u, 82u, 1446u, 1440u, 756u, 198u,
     198u, 0u, 3750u},
    {"mcd", "art", 12000u, 67903986u, 82u, 1446u, 1440u, 756u, 187u,
     187u, 0u, 3745u},
    {"phase", "art", 12000u, 73995612u, 82u, 1352u, 1434u, 756u, 187u,
     187u, 1u, 3709u},
    {"sync", "mst", 12000u, 27875904u, 31u, 1092u, 545u, 754u, 111u,
     111u, 0u, 4067u},
    {"mcd", "mst", 12000u, 27195708u, 31u, 1093u, 545u, 759u, 106u,
     106u, 0u, 4062u},
    {"phase", "mst", 12000u, 30169524u, 31u, 514u, 545u, 759u, 106u,
     106u, 1u, 4066u},
};

} // namespace

TEST(Determinism, MatchesSeedGoldenValues)
{
    for (const Golden &g : kGolden) {
        SCOPED_TRACE(std::string(g.config) + "/" + g.bench);
        RunStats s =
            simulate(goldenMachine(g.config), goldenWorkload(g.bench));
        EXPECT_EQ(s.committed, g.committed);
        EXPECT_EQ(s.time_ps, g.time_ps);
        EXPECT_EQ(s.l1i_misses, g.l1i_misses);
        EXPECT_EQ(s.l1d_misses, g.l1d_misses);
        EXPECT_EQ(s.l2_misses, g.l2_misses);
        EXPECT_EQ(s.branches, g.branches);
        EXPECT_EQ(s.mispredicts, g.mispredicts);
        EXPECT_EQ(s.flushes, g.flushes);
        EXPECT_EQ(s.relocks, g.relocks);
        EXPECT_EQ(s.l1d_accesses, g.l1d_accesses);
    }
}

TEST(Determinism, EventKernelMatchesReferenceKernel)
{
    const char *benches[] = {"gzip", "apsi", "art", "mst"};
    for (const char *b : benches) {
        WorkloadParams wl = goldenWorkload(b);
        for (const char *cfg : {"sync", "mcd", "mcd1230", "phase"}) {
            SCOPED_TRACE(std::string(cfg) + "/" + b);
            MachineConfig m = goldenMachine(cfg);
            expectSameStats(
                simulate(m, wl, Kernel::EventDriven),
                simulate(m, wl, Kernel::Reference));
        }
    }
}

TEST(Determinism, EventKernelMatchesReferenceWithJitter)
{
    // Jitter forces edge-by-edge skipping in advanceWhileBelow; the
    // RNG draw sequence must survive idle-edge skipping exactly.
    WorkloadParams wl = goldenWorkload("gzip");
    MachineConfig m = MachineConfig::mcdProgram({});
    m.jitter_sigma_ps = 20.0;
    expectSameStats(
        simulate(m, wl, Kernel::EventDriven),
        simulate(m, wl, Kernel::Reference));
}

TEST(Determinism, RepeatRunsAreIdentical)
{
    WorkloadParams wl = goldenWorkload("gzip");
    MachineConfig m = MachineConfig::mcdPhaseAdaptive();
    expectSameStats(simulate(m, wl), simulate(m, wl));
}

TEST(Determinism, SweepIndependentOfThreadCount)
{
    WorkloadParams wl = findBenchmark("gzip");
    wl.sim_instrs = 4'000;
    wl.warmup_instrs = 1'000;

    setenv("GALS_THREADS", "1", 1);
    ProgramAdaptiveResult serial =
        findBestAdaptive(wl, SweepMode::Staged);
    setenv("GALS_THREADS", "4", 1);
    ProgramAdaptiveResult threaded =
        findBestAdaptive(wl, SweepMode::Staged);
    unsetenv("GALS_THREADS");

    EXPECT_EQ(serial.best, threaded.best);
    EXPECT_EQ(serial.runs_performed, threaded.runs_performed);
    expectSameStats(serial.best_stats, threaded.best_stats);
}

TEST(Determinism, EventKernelMatchesReferenceUnderFrequentRelocks)
{
    // Aggressive controller settings force many PLL re-locks across
    // all four domains, including domains that are parked when their
    // period change lands — the hard case for lazily-advanced clocks
    // and epoch-tagged memos.
    for (const char *bench : {"gzip", "apsi"}) {
        SCOPED_TRACE(bench);
        WorkloadParams wl = goldenWorkload(bench);
        MachineConfig m = MachineConfig::mcdPhaseAdaptive();
        m.cache_interval_instrs = 500;
        m.cache_persistence = 1;
        m.queue_persistence = 1;
        m.cache_hysteresis = 0.0;
        m.icache_hysteresis = 0.0;
        m.queue_hysteresis = 0.0;
        expectSameStats(
            simulate(m, wl, Kernel::EventDriven),
            simulate(m, wl, Kernel::Reference));
    }
}
