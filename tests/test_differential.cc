/**
 * @file
 * The differential sweep: the batched front end (and every other
 * event-kernel optimization) must be bit-identical to the
 * step-every-edge reference oracle across a randomized
 * MachineConfig × workload space, while the per-stage
 * structural invariants (rename map ⊆ free-list complement, ROB age
 * order, LSQ index consistency, issue-queue wakeup structures) hold
 * throughout. This suite is the gate that lets performance PRs land
 * safely; see docs/testing.md.
 */

#include <gtest/gtest.h>

#include "harness.hh"
#include "obs/metrics.hh"

using namespace gals;

TEST(Differential, RandomizedSweepIsBitIdentical)
{
    // ≥100 randomized configurations (fixed seed: the sweep is
    // reproducible; bump kCases to widen it). Invariants are checked
    // every 256 front-end steps on both kernels.
    Pcg32 rng(0xD1FFE8EB, 7);
    const int kCases = 120;
    for (int i = 0; i < kCases; ++i) {
        MachineConfig m = harness::randomMachine(rng);
        WorkloadParams wl = harness::randomWorkload(rng);
        SCOPED_TRACE("case " + std::to_string(i) + ": " +
                     harness::describe(m, wl));
        harness::expectKernelsAgree(m, wl, 256);
    }
}

TEST(Differential, PaperConfigsWithDenseInvariantChecks)
{
    // The three paper machines with a much denser invariant cadence:
    // any structural corruption the sweep's cadence could step over
    // is caught here on the configurations the tables use.
    for (const char *cfg : {"sync", "mcd", "phase"}) {
        for (const char *bench : {"gzip", "apsi"}) {
            SCOPED_TRACE(std::string(cfg) + "/" + bench);
            harness::expectKernelsAgree(harness::goldenMachine(cfg),
                                        harness::goldenWorkload(bench),
                                        16);
        }
    }
}

TEST(Differential, ForcedFrequencyQueueGrowthIsBitIdentical)
{
    // With force_freq_ghz set every domain keeps one frequency, so
    // every structure change takes the apply-at-once side of the
    // re-lock rule, growth included. A full issue queue does not poll
    // its dispatch FIFO, so a queue that grows must be woken through
    // the reconfiguration port. Eager queue controllers (one vote, no
    // hysteresis) resize the queues many times per window. Over the
    // whole suite this setting reaches a full queue with a visible
    // FIFO head at the growth (galgel does): without the port's wake
    // the kernels diverge.
    const std::vector<WorkloadParams> &suite = benchmarkSuite();
    ASSERT_GE(suite.size(), 20u);
    std::uint64_t growths = 0;
    for (const WorkloadParams &entry : suite) {
        MachineConfig m = MachineConfig::mcdPhaseAdaptive();
        m.force_freq_ghz = 1.0;
        m.adaptive.iq_int = 1;
        m.adaptive.iq_fp = 1;
        m.queue_persistence = 1;
        m.queue_hysteresis = 0.0;
        m.cache_interval_instrs = 600;
        WorkloadParams wl = entry;
        wl.sim_instrs = 4'000;
        wl.warmup_instrs = 500;
        SCOPED_TRACE(wl.name);
        RunStats event = simulate(m, wl, Kernel::EventDriven, 0);
        harness::expectSameStats(event,
                                 simulate(m, wl, Kernel::Reference, 0));
        for (const ReconfigEvent &e : event.trace.events()) {
            bool queue = e.structure == Structure::IntIssueQueue ||
                         e.structure == Structure::FpIssueQueue;
            if (queue && e.to_index > e.from_index)
                ++growths;
        }
    }
    EXPECT_GT(growths, 0u);
}

TEST(Differential, MidFillRelockRegression)
{
    // Regression for the fetch_line_ready_ / fetch_resume_ epoch
    // fix: both memos extrapolate clock grids, so a PLL re-lock
    // landing while an I-cache line fill (or redirect halt) is
    // pending must invalidate them like every other visibility memo.
    // gcc's large code footprint keeps line fills in flight
    // continuously and the aggressive controller settings re-lock all
    // four domains, so re-locks land mid-fill throughout the run; the
    // two kernels must still agree bit-for-bit.
    WorkloadParams wl = findBenchmark("gcc");
    wl.sim_instrs = 10'000;
    wl.warmup_instrs = 1'000;
    MachineConfig m = MachineConfig::mcdPhaseAdaptive();
    m.cache_interval_instrs = 400;
    m.cache_persistence = 1;
    m.queue_persistence = 1;
    m.cache_hysteresis = 0.0;
    m.icache_hysteresis = 0.0;
    m.queue_hysteresis = 0.0;

    RunStats event = simulate(m, wl, Kernel::EventDriven, 64);
    RunStats oracle = simulate(m, wl, Kernel::Reference, 64);
    harness::expectSameStats(event, oracle);

    // The scenario must actually exercise the fix: re-locks and
    // I-cache misses both present in the measured window.
    EXPECT_GT(event.relocks, 0u);
    EXPECT_GT(event.l1i_misses, 0u);
    EXPECT_GT(event.flushes, 0u); // redirect halts exercised too.
}

TEST(Differential, ReadyListEpochBumpRegression)
{
    // Regression for the push-based ready list's epoch rule: PLL
    // re-locks must drain the timer ring and re-fold every candidate
    // at the first new-epoch edge (chained waiters keep their lazily
    // epoch-tagged memos), exactly where the reference scan
    // recomputes its per-slot memos. apsi keeps both issue queues and
    // the timer rings populated (fp latencies put most ops on exact
    // future ready times); the aggressive controller settings re-lock
    // all four domains throughout the run; the narrow width and
    // single mult/div unit exercise the width cutoff and the
    // kept-in-place FU-stall path across bumps.
    WorkloadParams wl = findBenchmark("apsi");
    wl.sim_instrs = 10'000;
    wl.warmup_instrs = 1'000;
    MachineConfig m = MachineConfig::mcdPhaseAdaptive();
    m.cache_interval_instrs = 400;
    m.cache_persistence = 1;
    m.queue_persistence = 1;
    m.cache_hysteresis = 0.0;
    m.icache_hysteresis = 0.0;
    m.queue_hysteresis = 0.0;
    m.issue_width = 2;
    m.int_alus = 1;
    m.fp_alus = 1;

    RunStats event = simulate(m, wl, Kernel::EventDriven, 64);
    RunStats oracle = simulate(m, wl, Kernel::Reference, 64);
    harness::expectSameStats(event, oracle);
    EXPECT_GT(event.relocks, 0u); // bumps actually happened.
}

TEST(Differential, LsqPerEntryBoundsRegression)
{
    // Regression for the LSQ walk's sleep bounds: a single MSHR, a
    // lone memory port and a two-entry store buffer keep loads
    // retrying on busy MSHRs and on older same-line stores without
    // data throughout the run, while stores continuously retire
    // through the full store buffer. A retried load must issue at
    // exactly the reference kernel's tick; a late wake (a store-
    // buffer push that makes a line forwardable, an MSHR free time,
    // a store's data capture) shows up as a one-tick commit
    // divergence. The `lsu.retry.*` counters prove the event run
    // really exercised both retry kinds: a 2 KiB random pool makes
    // cross-chain same-line store/load pairs common enough to block
    // loads (mst's own 16 KiB pool blocks none in this window).
    WorkloadParams wl = findBenchmark("mst");
    wl.sim_instrs = 8'000;
    wl.warmup_instrs = 500;
    for (PhaseParams &ph : wl.phases) {
        ph.rand_bytes = 2 * 1024;
        ph.rand_frac = 0.5;
    }
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    auto check = [&](const MachineConfig &m) {
        reg.clear();
        RunStats event = simulate(m, wl, Kernel::EventDriven, 64);
        EXPECT_GT(reg.value("lsu.retry.mshr_busy"), 0u);
        EXPECT_GT(reg.value("lsu.retry.blocked"), 0u);
        reg.clear();
        harness::expectSameStats(event,
                                 simulate(m, wl, Kernel::Reference, 64));
    };

    MachineConfig m = MachineConfig::mcdProgram({1, 0, 2, 0});
    m.mshrs = 1;
    m.mem_ports = 1;
    m.store_buffer_entries = 2;
    m.lsq_entries = 16;
    check(m);

    // The same pressure under phase-adaptive re-locks: the retry
    // bounds must survive epoch bumps.
    MachineConfig p = MachineConfig::mcdPhaseAdaptive();
    p.mshrs = 1;
    p.mem_ports = 1;
    p.store_buffer_entries = 2;
    p.lsq_entries = 16;
    p.cache_interval_instrs = 400;
    p.cache_persistence = 1;
    p.queue_persistence = 1;
    p.cache_hysteresis = 0.0;
    p.icache_hysteresis = 0.0;
    p.queue_hysteresis = 0.0;
    SCOPED_TRACE("phase-adaptive");
    check(p);
}

TEST(Differential, InvariantCheckerAcceptsLongRun)
{
    // The invariant checker itself must not fire on a healthy long
    // run that exercises every structure (stores, fp, phase control).
    WorkloadParams wl = findBenchmark("apsi");
    wl.sim_instrs = 20'000;
    wl.warmup_instrs = 2'000;
    ChipConfig cc;
    cc.machine = MachineConfig::mcdPhaseAdaptive();
    Chip chip(cc, {wl});
    chip.setInvariantCheckInterval(8);
    RunStats s = chip.run().cores[0];
    EXPECT_EQ(s.committed, 20'000u);
}
