/**
 * @file
 * Shared differential-test harness.
 *
 * The event-driven kernel's contract is bit-identity with the
 * step-every-edge reference oracle (Kernel::Reference): every
 * paper table is a deterministic function of RunStats, so "close" is
 * a bug. This header provides the pieces the test suite composes:
 *
 *  - expectSameStats / expectSameChipStats: field-by-field equality
 *    over every member the stats structs' forEachField visitors list;
 *  - goldenMachine / goldenWorkload: the pinned golden-row setups;
 *  - randomMachine / randomWorkload: a seeded generator over the
 *    MachineConfig × workload × jitter space, biased toward the hard
 *    cases (phase-adaptive control with aggressive re-lock settings,
 *    jittered MCD grids, zero-warmup windows);
 *  - expectKernelsAgree: run both kernels on one case, with optional
 *    per-stage invariant checking, and assert identical RunStats.
 *
 * See docs/testing.md for the golden-update policy and how the
 * randomized sweep is meant to grow with the simulator.
 */

#ifndef GALS_TESTS_HARNESS_HH
#define GALS_TESTS_HARNESS_HH

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "cmp/chip.hh"
#include "common/random.hh"
#include "core/machine_config.hh"
#include "core/run_stats.hh"
#include "sim/simulation.hh"
#include "workload/suite.hh"

namespace gals::harness
{

/** Field-by-field equality of two RunStats (or ChipRunStats) over the
 * struct's forEachField visitor: every member is compared, and a
 * failure names the field. */
template <class S>
void
expectSameStats(const S &a, const S &b)
{
    forEachFieldPair(a, b, [](const char *name, const auto &va,
                              const auto &vb) {
        using T = std::remove_cvref_t<decltype(va)>;
        if constexpr (std::is_same_v<T, std::vector<RunStats>>) {
            ASSERT_EQ(va.size(), vb.size()) << name;
            for (std::size_t c = 0; c < va.size(); ++c) {
                SCOPED_TRACE(name + ("[" + std::to_string(c) + "]"));
                expectSameStats(va[c], vb[c]);
            }
        } else {
            EXPECT_EQ(va, vb) << name;
        }
    });
}

/** Equality of two chip runs: every core's stats plus the totals. */
inline constexpr auto expectSameChipStats = expectSameStats<ChipRunStats>;

/** The golden-row window: 12k measured + 2k warmup instructions. */
inline WorkloadParams
goldenWorkload(const std::string &name)
{
    WorkloadParams wl = findBenchmark(name);
    wl.sim_instrs = 12'000;
    wl.warmup_instrs = 2'000;
    return wl;
}

/** The golden-row machines, by tag. */
inline MachineConfig
goldenMachine(const std::string &tag)
{
    if (tag == "sync")
        return MachineConfig::bestSynchronous();
    if (tag == "mcd")
        return MachineConfig::mcdProgram({});
    if (tag == "mcd1230")
        return MachineConfig::mcdProgram({1, 2, 3, 0});
    return MachineConfig::mcdPhaseAdaptive();
}

/**
 * A random machine over all three paper machine types. Phase-adaptive
 * draws are usually given aggressive controller settings so PLL
 * re-locks — the hard case for idle-edge skipping — actually happen
 * inside the short differential windows.
 */
inline MachineConfig
randomMachine(Pcg32 &rng)
{
    MachineConfig m;
    switch (rng.nextRange(0, 2)) {
      case 0:
        m = MachineConfig::synchronous(
            rng.nextRange(0, 15), rng.nextRange(0, 3),
            rng.nextRange(0, 3), rng.nextRange(0, 3));
        break;
      case 1:
        m = MachineConfig::mcdProgram(
            {rng.nextRange(0, 3), rng.nextRange(0, 3),
             rng.nextRange(0, 3), rng.nextRange(0, 3)});
        break;
      default:
        m = MachineConfig::mcdPhaseAdaptive();
        m.adaptive = {rng.nextRange(0, 3), rng.nextRange(0, 3),
                      rng.nextRange(0, 3), rng.nextRange(0, 3)};
        if (rng.chance(0.7)) {
            m.cache_interval_instrs =
                static_cast<std::uint64_t>(rng.nextRange(300, 1500));
            m.cache_persistence = rng.nextRange(1, 2);
            m.queue_persistence = rng.nextRange(1, 4);
            m.cache_hysteresis = 0.0;
            m.icache_hysteresis = 0.0;
            m.queue_hysteresis = 0.0;
        }
        break;
    }
    if (m.mode == ClockingMode::MCD && rng.chance(0.4))
        m.jitter_sigma_ps = static_cast<double>(rng.nextRange(1, 25));
    // Back-end shape knobs: the ready-list select engine's hard
    // cases are narrow issue widths (age-ordered width cutoff),
    // scarce FUs (ready ops deferred in place across edges), few
    // memory ports, and narrow retire groups (chunked commit path).
    if (rng.chance(0.5)) {
        m.issue_width = rng.nextRange(2, 8);
        m.int_alus = rng.nextRange(1, 4);
        m.fp_alus = rng.nextRange(1, 4);
        m.mem_ports = rng.nextRange(1, 3);
        m.retire_width = rng.nextRange(2, 12);
    }
    // Port-pressure shape knobs: small dispatch FIFOs exercise the
    // pop-from-full producer wakes of the dispatch ports, small
    // store buffers the drain port's full transition, few MSHRs the
    // LSQ walk's MSHR-busy and blocked-load retries and their sleep
    // bounds, and narrow fetch/decode the group-boundary gates. These
    // stack with the phase-adaptive controller draws above, so the
    // domain/port wiring is exercised under re-locks too.
    if (rng.chance(0.5)) {
        m.fetch_width = rng.nextRange(2, 8);
        m.decode_width = rng.nextRange(2, 8);
        m.fetch_queue_entries = rng.nextRange(4, 16);
        m.dispatch_fifo_entries = rng.nextRange(2, 16);
        m.rob_entries = rng.nextRange(48, 256);
        m.lsq_entries = rng.nextRange(8, 64);
        m.store_buffer_entries = rng.nextRange(2, 16);
        m.mshrs = rng.nextRange(1, 8);
    }
    m.seed = rng.next();
    return m;
}

/** A random suite benchmark over a short differential window. */
inline WorkloadParams
randomWorkload(Pcg32 &rng)
{
    const std::vector<WorkloadParams> &suite = benchmarkSuite();
    WorkloadParams wl = suite[rng.nextBounded(
        static_cast<std::uint32_t>(suite.size()))];
    wl.sim_instrs = 2'000 + rng.nextBounded(4'000);
    wl.warmup_instrs = rng.nextBounded(1'500); // 0 = measure from t=0.
    return wl;
}

/**
 * A random chip over the full machine space plus the shared-L2
 * pressure shapes: few banks concentrate cross-core conflicts, tiny
 * per-bank fill slots force bank-MSHR waits, and a fat occupancy
 * window stretches every conflict — the hard cases for the
 * cross-core interconnect arbitration and its publication-order
 * bookkeeping.
 */
inline ChipConfig
randomChipConfig(Pcg32 &rng, int cores)
{
    ChipConfig cc;
    cc.machine = randomMachine(rng);
    cc.cores = cores;
    cc.l2_banks = 1 << rng.nextRange(0, 3); // 1..8 banks.
    cc.l2_bank_mshrs = rng.nextRange(1, 4);
    cc.l2_bank_occupancy_ps =
        static_cast<Tick>(rng.nextRange(100, 1200));
    // Coherence latency draw: short delays pack invalidation delivery
    // tight against the publishing store (many short parallel rounds),
    // long ones stretch the stale-sharer window.
    cc.coh_delay_ps = static_cast<Tick>(rng.nextRange(20'000, 40'000));
    return cc;
}

/**
 * Core-count draw over the full 2..kMaxCores range, weighted toward
 * small chips: small-N runs are cheap enough to dominate the iteration
 * budget (more machine/workload shapes per suite run) while the tail
 * still lands on big chips — including kMaxCores itself — often
 * enough to keep the wide-mask and many-worker paths exercised.
 */
inline int
randomCoreCount(Pcg32 &rng)
{
    int roll = rng.nextRange(0, 9);
    if (roll < 6)
        return rng.nextRange(2, 4); // 60%: the pre-scale-up range.
    if (roll < 8)
        return rng.nextRange(5, 8);
    return rng.nextRange(9, static_cast<int>(kMaxCores));
}

/** Random chip with the core count drawn too (weighted small-N). */
inline ChipConfig
randomChipConfig(Pcg32 &rng)
{
    int cores = randomCoreCount(rng);
    return randomChipConfig(rng, cores);
}

/**
 * A multiprogrammed workload mix over short differential windows,
 * occasionally reshaped toward shared-L2 pressure (large random
 * pools and high random-access fractions drive cross-core misses
 * into the same banks). Multi-core draws are routed through a
 * sharing mix half the time, with the shared window and access
 * fraction re-randomized, so the differential gate covers
 * invalidation and ownership-transfer traffic too.
 */
inline std::vector<WorkloadParams>
randomChipWorkloads(Pcg32 &rng, int cores)
{
    if (cores > 1 && rng.chance(0.5)) {
        static const char *kKinds[] = {"producer-consumer",
                                       "migratory", "lock"};
        std::vector<WorkloadParams> mix = sharingMix(
            randomWorkload(rng), cores,
            kKinds[rng.nextRange(0, 2)]);
        // Stress both extremes: a near-lock window of a few lines up
        // to one spanning many directory entries, under access
        // fractions from occasional to dominant.
        std::uint64_t shared_bytes =
            64ULL << rng.nextRange(2, 9); // 256B..32KB.
        double shared_frac = 0.1 + 0.4 * rng.nextDouble();
        for (WorkloadParams &wl : mix) {
            wl.shared_bytes = shared_bytes;
            for (PhaseParams &p : wl.phases)
                p.shared_frac = shared_frac;
        }
        return mix;
    }
    std::vector<WorkloadParams> mix;
    mix.reserve(static_cast<size_t>(cores));
    for (int c = 0; c < cores; ++c) {
        WorkloadParams wl = perCoreWorkload(randomWorkload(rng), c);
        if (rng.chance(0.4)) {
            for (PhaseParams &p : wl.phases) {
                p.rand_bytes = 256 * 1024
                               << rng.nextRange(0, 3); // up to 2MB.
                p.rand_frac = 0.5 + 0.4 * rng.nextDouble();
            }
        }
        mix.push_back(wl);
    }
    return mix;
}

/** One-line description of a case for SCOPED_TRACE. */
inline std::string
describe(const MachineConfig &m, const WorkloadParams &wl)
{
    std::string mode =
        m.mode == ClockingMode::Synchronous
            ? "sync"
            : m.phase_adaptive ? "phase" : "mcd";
    return mode + "(" + m.adaptive.str() + ") jitter=" +
           std::to_string(m.jitter_sigma_ps) + " seed=" +
           std::to_string(m.seed) + " " + wl.name + " sim=" +
           std::to_string(wl.sim_instrs) + "+" +
           std::to_string(wl.warmup_instrs);
}

/**
 * Run one case under both kernels and assert bit-identical RunStats;
 * a non-zero `invariant_interval` additionally runs the per-stage
 * structural invariant checks every that many front-end steps in both
 * runs.
 */
inline void
expectKernelsAgree(const MachineConfig &m, const WorkloadParams &wl,
                   std::uint32_t invariant_interval = 0)
{
    RunStats event = simulate(m, wl, Kernel::EventDriven, invariant_interval);
    RunStats oracle = simulate(m, wl, Kernel::Reference, invariant_interval);
    expectSameStats(event, oracle);
}

} // namespace gals::harness

#endif // GALS_TESTS_HARNESS_HH
