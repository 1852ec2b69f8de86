/**
 * @file
 * Integration tests: whole-pipeline behavior of the synchronous and
 * MCD machines on controlled synthetic workloads.
 */

#include <gtest/gtest.h>

#include "cmp/chip.hh"
#include "harness.hh"
#include "sim/simulation.hh"
#include "workload/suite.hh"

using namespace gals;

namespace
{

/** A small single-phase workload with controllable knobs. */
WorkloadParams
controlled(std::uint64_t instrs = 30'000)
{
    WorkloadParams w;
    w.name = "controlled";
    w.suite = "test";
    w.seed = 4242;
    w.sim_instrs = instrs;
    w.warmup_instrs = 5'000;
    w.phases = {PhaseParams{}};
    return w;
}

} // namespace

TEST(Processor, CommitsExactlyTheWindow)
{
    WorkloadParams w = controlled(10'000);
    RunStats s = simulate(MachineConfig::bestSynchronous(), w);
    EXPECT_EQ(s.committed, 10'000u);
    EXPECT_GT(s.time_ps, 0u);
}

TEST(Processor, DeterministicRuns)
{
    WorkloadParams w = controlled(10'000);
    MachineConfig m = MachineConfig::mcdProgram({});
    harness::expectSameStats(simulate(m, w), simulate(m, w));
}

TEST(Processor, ThroughputBoundedByMachineWidth)
{
    WorkloadParams w = controlled(20'000);
    RunStats s = simulate(MachineConfig::bestSynchronous(), w);
    // Retire width 11 at 1.275GHz bounds throughput; realistic IPC
    // lands far below that but must be positive.
    EXPECT_GT(s.instrsPerNs(), 0.2);
    EXPECT_LT(s.instrsPerNs(), 11.0 * 1.275);
}

TEST(Processor, SerialChainsBoundIpc)
{
    // One chain, every op dependent on the previous: IPC cannot
    // exceed ~1 per integer cycle.
    WorkloadParams w = controlled(20'000);
    w.phases[0].num_chains = 1;
    w.phases[0].chain_segment_len = 16;
    w.phases[0].load_frac = 0.0;
    w.phases[0].store_frac = 0.0;
    w.phases[0].cross_chain_frac = 0.0;
    w.phases[0].branch_dep_frac = 0.0;
    RunStats s = simulate(MachineConfig::bestSynchronous(), w);
    // 1.275 instr/ns would be IPC 1.0; allow the branch fraction
    // (1/16 of ops, independent) a little slack.
    EXPECT_LT(s.instrsPerNs(), 1.275 * 1.15);
    EXPECT_GT(s.instrsPerNs(), 1.275 * 0.55);
}

TEST(Processor, ParallelChainsRaiseIpc)
{
    WorkloadParams serial = controlled(20'000);
    serial.phases[0].num_chains = 1;
    serial.phases[0].chain_segment_len = 16;
    serial.phases[0].cross_chain_frac = 0.0;
    WorkloadParams parallel = serial;
    parallel.phases[0].num_chains = 6;
    parallel.phases[0].chain_segment_len = 2;
    MachineConfig m = MachineConfig::bestSynchronous();
    RunStats a = simulate(m, serial);
    RunStats b = simulate(m, parallel);
    EXPECT_GT(b.instrsPerNs(), a.instrsPerNs() * 1.5);
}

TEST(Processor, MispredictsCostTime)
{
    WorkloadParams clean = controlled(20'000);
    clean.phases[0].branch_noise = 0.0;
    WorkloadParams noisy = clean;
    noisy.phases[0].branch_noise = 0.4;
    MachineConfig m = MachineConfig::bestSynchronous();
    RunStats a = simulate(m, clean);
    RunStats b = simulate(m, noisy);
    EXPECT_GT(b.mispredicts, a.mispredicts * 5);
    EXPECT_GT(b.time_ps, a.time_ps);
    EXPECT_GT(b.flushes, a.flushes);
}

TEST(Processor, CacheCapacityReducesMisses)
{
    // Random pool of 96KB: thrashes the 32KB minimal D-cache, fits
    // the 128KB configuration.
    WorkloadParams w = controlled(30'000);
    w.phases[0].rand_bytes = 96 * 1024;
    w.phases[0].rand_frac = 0.8;
    w.phases[0].load_frac = 0.3;
    RunStats small = simulate(MachineConfig::mcdProgram({0, 0, 0, 0}),
                              w);
    RunStats large = simulate(MachineConfig::mcdProgram({0, 2, 0, 0}),
                              w);
    ASSERT_GT(small.l1d_accesses, 0u);
    double small_rate = static_cast<double>(small.l1d_misses) /
                        small.l1d_accesses;
    double large_rate = static_cast<double>(large.l1d_misses) /
                        large.l1d_accesses;
    EXPECT_GT(small_rate, 3.0 * large_rate);
    // And it pays off in time despite the slower clock.
    EXPECT_LT(runtimeNs(large), runtimeNs(small));
}

TEST(Processor, MemoryBoundWorkloadPrefersBigL2)
{
    // 400KB pool: misses the 256KB minimal L2, fits the 2MB one. The
    // window must touch the pool several times for capacity reuse.
    WorkloadParams w = controlled(90'000);
    w.warmup_instrs = 10'000;
    w.phases[0].rand_bytes = 400 * 1024;
    w.phases[0].rand_frac = 0.9;
    w.phases[0].load_frac = 0.4;
    w.phases[0].load_chain_frac = 0.9;
    RunStats d0 = simulate(MachineConfig::mcdProgram({0, 0, 0, 0}), w);
    RunStats d3 = simulate(MachineConfig::mcdProgram({0, 3, 0, 0}), w);
    EXPECT_LT(runtimeNs(d3), runtimeNs(d0) * 0.8);
}

TEST(Processor, InstructionFootprintPrefersBigICache)
{
    // 24KB of hot code: thrashes the 16KB configuration, fits 32KB.
    // The window covers several laps of the loop.
    WorkloadParams w = controlled(80'000);
    w.warmup_instrs = 15'000;
    w.phases[0].code_hot_bytes = 24 * 1024;
    w.phases[0].code_total_bytes = 28 * 1024;
    RunStats i0 = simulate(MachineConfig::mcdProgram({0, 0, 0, 0}), w);
    RunStats i1 = simulate(MachineConfig::mcdProgram({1, 0, 0, 0}), w);
    ASSERT_GT(i0.l1i_accesses, 0u);
    double r0 = static_cast<double>(i0.l1i_misses) / i0.l1i_accesses;
    double r1 = static_cast<double>(i1.l1i_misses) / i1.l1i_accesses;
    EXPECT_GT(r0, 3.0 * r1);
}

TEST(Processor, DistantIlpRewardsBigIssueQueue)
{
    // Four pointer-chasing chains in 16-op segments over a large
    // pool: a miss blocks one chain's segment, and only a window
    // larger than the segment reaches the other chains' loads
    // (memory-level parallelism). The address-generation uops issue
    // from the integer queue, so its size gates MLP.
    WorkloadParams w = controlled(60'000);
    w.warmup_instrs = 8'000;
    w.phases[0].num_chains = 4;
    w.phases[0].chain_segment_len = 16;
    w.phases[0].load_frac = 0.25;
    w.phases[0].load_chain_frac = 1.0;
    w.phases[0].rand_bytes = 500 * 1024;
    w.phases[0].rand_frac = 0.9;
    w.phases[0].cross_chain_frac = 0.0;
    w.phases[0].branch_dep_frac = 0.0;
    RunStats q0 = simulate(MachineConfig::mcdProgram({0, 0, 0, 0}), w);
    RunStats q1 = simulate(MachineConfig::mcdProgram({0, 0, 1, 0}), w);
    // The extra memory parallelism must beat the ~31% frequency loss.
    EXPECT_LT(runtimeNs(q1), runtimeNs(q0));
}

TEST(Processor, McdBaseBeatsSyncOnSmallKernels)
{
    // Tiny footprints: the MCD base configuration's faster domain
    // clocks should win despite synchronization overheads.
    WorkloadParams w = controlled(30'000);
    w.phases[0].code_hot_bytes = 2 * 1024;
    w.phases[0].stream_bytes = 4 * 1024;
    w.phases[0].rand_bytes = 4 * 1024;
    w.phases[0].num_chains = 6;
    w.phases[0].chain_segment_len = 2;
    w.phases[0].branch_noise = 0.01;
    RunStats sync = simulate(MachineConfig::bestSynchronous(), w);
    RunStats mcd = simulate(MachineConfig::mcdProgram({}), w);
    EXPECT_LT(runtimeNs(mcd), runtimeNs(sync));
}

TEST(Processor, PhaseAdaptiveRunsControllersAndConverges)
{
    // Stable memory-hungry behavior: the controller should move the
    // D-cache pair up and mostly stay there.
    WorkloadParams w = controlled(60'000);
    w.phases[0].rand_bytes = 200 * 1024;
    w.phases[0].rand_frac = 0.8;
    w.phases[0].load_frac = 0.3;
    ChipConfig cc;
    cc.machine = MachineConfig::mcdPhaseAdaptive();
    Chip chip(cc, {w});
    RunStats s = chip.run().cores[0];
    EXPECT_GT(chip.core(0).currentConfig().dcache, 0);
    // It settles: few reconfigurations relative to intervals.
    EXPECT_LT(s.trace.countFor(Structure::DCachePair), 8u);
    // Residency concentrates off the minimal configuration.
    const auto &res =
        s.residency[static_cast<size_t>(Structure::DCachePair)];
    EXPECT_GT(res[1] + res[2] + res[3], res[0]);
}

TEST(Processor, PhaseAdaptiveTracksWorkingSetPhases)
{
    // Alternate small/large data phases (apsi-style): residency must
    // spread across at least two D-cache configurations.
    WorkloadParams w = controlled(80'000);
    PhaseParams small;
    small.length_instrs = 20'000;
    small.stream_bytes = 16 * 1024;
    small.rand_bytes = 8 * 1024;
    PhaseParams large = small;
    large.rand_bytes = 160 * 1024;
    large.rand_frac = 0.8;
    large.load_frac = 0.3;
    w.phases = {small, large};
    RunStats s = simulate(MachineConfig::mcdPhaseAdaptive(), w);
    int used = 0;
    for (auto r :
         s.residency[static_cast<size_t>(Structure::DCachePair)]) {
        if (r > 4'000)
            ++used;
    }
    EXPECT_GE(used, 2);
    EXPECT_GE(s.trace.countFor(Structure::DCachePair), 2u);
}

TEST(Processor, SyncCostIsModestAtEqualFrequency)
{
    // MCD with all domains forced to the synchronous frequency
    // (slightly detuned so relative phases rotate) isolates the cost
    // of synchronization + deeper pipe; it must be a modest slowdown.
    WorkloadParams w = controlled(30'000);
    MachineConfig sync = MachineConfig::bestSynchronous();
    RunStats s = simulate(sync, w);

    MachineConfig mcd = MachineConfig::mcdProgram({});
    mcd.force_freq_ghz = sync.synchronousFreqGHz() * 0.999;
    RunStats m = simulate(mcd, w);
    double slowdown = runtimeNs(m) / runtimeNs(s) - 1.0;
    EXPECT_GT(slowdown, 0.0);
    EXPECT_LT(slowdown, 0.25);
}

TEST(Processor, SuiteBenchmarksRunEndToEnd)
{
    // Smoke: one benchmark from each suite family completes with
    // coherent statistics on all three machines.
    for (const char *name : {"adpcm encode", "em3d", "gcc", "apsi"}) {
        WorkloadParams w = findBenchmark(name);
        w.sim_instrs = 15'000;
        w.warmup_instrs = 3'000;
        for (auto mk : {MachineConfig::bestSynchronous(),
                        MachineConfig::mcdProgram({}),
                        MachineConfig::mcdPhaseAdaptive()}) {
            RunStats s = simulate(mk, w);
            EXPECT_EQ(s.committed, 15'000u) << name;
            EXPECT_GT(s.branches, 0u) << name;
            EXPECT_GT(s.l1d_accesses, 0u) << name;
            EXPECT_GT(s.instrsPerNs(), 0.05) << name;
        }
    }
}
