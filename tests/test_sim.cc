/** @file Tests for the sweep, study and report layers. */

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <thread>

#include "cmp/chip.hh"
#include "core/scheduler.hh"
#include "obs/metrics.hh"
#include "sim/parallel.hh"
#include "sim/report.hh"
#include "sim/simulation.hh"
#include "sim/study.hh"
#include "sim/sweep.hh"
#include "workload/suite.hh"

using namespace gals;

namespace
{
WorkloadParams
shrunk(const char *name, std::uint64_t instrs = 12'000)
{
    WorkloadParams w = findBenchmark(name);
    w.sim_instrs = instrs;
    w.warmup_instrs = 3'000;
    return w;
}

/** The distinct threads that ran the indices of one parallelFor. */
std::set<std::thread::id>
threadsUsed(unsigned max_threads)
{
    std::vector<std::thread::id> ids(256);
    parallelFor(
        ids.size(),
        [&](size_t i) { ids[i] = std::this_thread::get_id(); },
        max_threads);
    return {ids.begin(), ids.end()};
}
} // namespace

TEST(Parallel, CoversAllIndicesOnce)
{
    std::vector<int> hits(500, 0);
    parallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(Parallel, SingleThreadFallback)
{
    int sum = 0;
    parallelFor(10, [&](size_t i) { sum += static_cast<int>(i); }, 1);
    EXPECT_EQ(sum, 45);
}

TEST(Parallel, NestedCallRunsOnTheBodysThread)
{
    std::vector<std::thread::id> outer(8);
    std::vector<std::vector<std::thread::id>> inner(
        outer.size(), std::vector<std::thread::id>(16));
    parallelFor(
        outer.size(),
        [&](size_t i) {
            outer[i] = std::this_thread::get_id();
            parallelFor(inner[i].size(), [&](size_t j) {
                inner[i][j] = std::this_thread::get_id();
            });
        },
        4);
    for (size_t i = 0; i < outer.size(); ++i) {
        for (std::thread::id id : inner[i])
            EXPECT_EQ(id, outer[i]);
    }
}

TEST(Parallel, ThreadCapsBoundTheWorkers)
{
    EXPECT_LE(threadsUsed(2).size(), 2u);
    setenv("GALS_THREADS", "2", 1);
    EXPECT_LE(threadsUsed(0).size(), 2u);
    setenv("GALS_THREADS", "1", 1);
    EXPECT_EQ(threadsUsed(0),
              std::set<std::thread::id>{std::this_thread::get_id()});
    unsetenv("GALS_THREADS");
}

TEST(Parallel, WorkerFlagClearsAfterTopLevelCall)
{
    std::vector<char> flagged(64, 0);
    parallelFor(
        flagged.size(),
        [&](size_t i) { flagged[i] = detail::onWorker(); }, 4);
    EXPECT_FALSE(detail::onWorker());
    // Bodies run flagged whenever the call actually went parallel.
    if (std::min(4u, sweepThreads()) > 1) {
        for (char f : flagged)
            EXPECT_TRUE(f);
    }
}

TEST(Parallel, ThreadCountEnvParsingFallsBackAndClamps)
{
    // Strict full-string parsing: garbage falls back (with a logged
    // warning) instead of silently half-parsing — an unchecked strtol
    // would read "8x" as 8 and treat "-3" as unset.
    EXPECT_EQ(threadCountFromEnv("T", "3", 1, 16), 3u);
    EXPECT_EQ(threadCountFromEnv("T", "banana", 1, 16), 1u);
    EXPECT_EQ(threadCountFromEnv("T", "8x", 1, 16), 1u);
    EXPECT_EQ(threadCountFromEnv("T", "-3", 1, 16), 1u);
    EXPECT_EQ(threadCountFromEnv("T", "0", 1, 16), 1u);
    EXPECT_EQ(threadCountFromEnv("T", "", 1, 16), 1u);
    EXPECT_EQ(threadCountFromEnv("T", "99999999999999999999", 1, 16),
              1u);
    EXPECT_EQ(threadCountFromEnv("T", "64", 1, 16), 16u);

    // Sweep workers are independent: garbage falls back to hardware
    // concurrency, and oversized requests clamp there.
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    setenv("GALS_THREADS", "not-a-number", 1);
    EXPECT_EQ(sweepThreads(), hw);
    setenv("GALS_THREADS", "1000000", 1);
    EXPECT_EQ(sweepThreads(), hw);
    setenv("GALS_THREADS", "1", 1);
    EXPECT_EQ(sweepThreads(), 1u);
    unsetenv("GALS_THREADS");
    EXPECT_EQ(sweepThreads(), hw);
}

TEST(Sweep, All256AdaptiveConfigsUnique)
{
    auto configs = allAdaptiveConfigs();
    EXPECT_EQ(configs.size(), 256u);
    std::set<std::string> seen;
    for (const AdaptiveConfig &c : configs)
        EXPECT_TRUE(seen.insert(c.str()).second);
}

TEST(Sweep, ModeFromEnv)
{
    unsetenv("GALS_SWEEP");
    EXPECT_EQ(sweepModeFromEnv(), SweepMode::Staged);
    setenv("GALS_SWEEP", "exhaustive", 1);
    EXPECT_EQ(sweepModeFromEnv(), SweepMode::Exhaustive);
    setenv("GALS_SWEEP", "staged", 1);
    EXPECT_EQ(sweepModeFromEnv(), SweepMode::Staged);

    // Anything but the two documented values warns, naming the
    // variable and the value, and falls back to staged.
    for (const char *bad : {"exhaustve", "Exhaustive", "exhaustive "}) {
        setenv("GALS_SWEEP", bad, 1);
        testing::internal::CaptureStderr();
        EXPECT_EQ(sweepModeFromEnv(), SweepMode::Staged);
        std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("warn: GALS_SWEEP=\"" + std::string(bad) +
                           "\""),
                  std::string::npos)
            << err;
    }
    unsetenv("GALS_SWEEP");
}

TEST(Kernel, FromEnv)
{
    unsetenv("GALS_KERNEL");
    EXPECT_EQ(kernelFromEnv(), Kernel::EventDriven);
    setenv("GALS_KERNEL", "reference", 1);
    EXPECT_EQ(kernelFromEnv(), Kernel::Reference);

    // The documented values and an empty string log nothing.
    for (const char *ok : {"event", ""}) {
        setenv("GALS_KERNEL", ok, 1);
        testing::internal::CaptureStderr();
        EXPECT_EQ(kernelFromEnv(), Kernel::EventDriven);
        EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    }

    // A user who asked for the oracle with a near miss is told so
    // instead of silently getting the event kernel.
    for (const char *bad : {"Reference", "ref", "oracle"}) {
        setenv("GALS_KERNEL", bad, 1);
        testing::internal::CaptureStderr();
        EXPECT_EQ(kernelFromEnv(), Kernel::EventDriven);
        std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("warn: GALS_KERNEL=\"" + std::string(bad) +
                           "\""),
                  std::string::npos)
            << err;
    }
    unsetenv("GALS_KERNEL");
}

TEST(Kernel, BadEnvWarnsOncePerRun)
{
    // simulate() reads GALS_KERNEL once and hands the choice to its
    // chip, so a bad value costs one warning per run, not one per
    // reader.
    setenv("GALS_KERNEL", "bogus", 1);
    testing::internal::CaptureStderr();
    RunStats s = simulate(MachineConfig::bestSynchronous(),
                          shrunk("gzip", 2'000));
    std::string err = testing::internal::GetCapturedStderr();
    unsetenv("GALS_KERNEL");
    EXPECT_GT(s.committed, 0u);
    const std::string warning = "warn: GALS_KERNEL=\"bogus\"";
    size_t first = err.find(warning);
    ASSERT_NE(first, std::string::npos) << err;
    EXPECT_EQ(err.find(warning, first + 1), std::string::npos) << err;
}

TEST(Kernel, BadEnvWarnsOncePerProcess)
{
    // Every run reads GALS_KERNEL (its per-run meaning stays), but a
    // value already reported is not reported again: two runs under
    // one unknown value print one warning between them.
    setenv("GALS_KERNEL", "bogus-twice", 1);
    testing::internal::CaptureStderr();
    for (int i = 0; i < 2; ++i) {
        RunStats s = simulate(MachineConfig::bestSynchronous(),
                              shrunk("gzip", 2'000));
        EXPECT_GT(s.committed, 0u);
    }
    std::string err = testing::internal::GetCapturedStderr();
    unsetenv("GALS_KERNEL");
    const std::string warning = "warn: GALS_KERNEL=\"bogus-twice\"";
    size_t first = err.find(warning);
    ASSERT_NE(first, std::string::npos) << err;
    EXPECT_EQ(err.find(warning, first + 1), std::string::npos) << err;
}

/**
 * The event kernel's sleep schedule, pinned exactly. A wasted step or
 * a missed skip changes no simulated byte, so no digest or golden can
 * see it; only these counts can. gzip and art run 20k-instruction
 * windows on the three paper machines, plus one 4-core
 * producer-consumer gzip chip (coherence wakes). A kernel or domain
 * change that moves a count re-pins it under the golden-update
 * policy (docs/testing.md) and says which count moved and why.
 */
TEST(KernelCounters, PinnedSleepSchedule)
{
    struct Pin
    {
        const char *label;
        std::array<std::uint64_t, kNumDomains> steps;
        std::array<std::uint64_t, kNumDomains> skipped;
    };
    // Order: fe, int, fp, ls (DomainId).
    const Pin pins[] = {
        {"gzip/sync", {7299, 11285, 1, 8247}, {60536, 56549, 0, 59587}},
        {"gzip/mcd", {7458, 11925, 1, 8498}, {76405, 66839, 0, 73377}},
        {"gzip/phase", {7506, 11756, 4, 7486},
         {74178, 75169, 61113, 63223}},
        {"art/sync", {12957, 19618, 1, 10828},
         {149567, 142829, 0, 151618}},
        {"art/mcd", {13113, 19728, 1, 10856},
         {189567, 170540, 0, 186926}},
        {"art/phase", {12915, 19733, 2, 9966},
         {207340, 187039, 53995, 148636}},
        {"gzip/pc4", {31302, 55901, 4, 36761},
         {574949, 513491, 0, 555117}},
    };

    obs::MetricsRegistry &m = obs::MetricsRegistry::instance();
    auto expectPinned = [&](const Pin &pin) {
        SCOPED_TRACE(pin.label);
        std::array<std::uint64_t, kNumDomains> steps{}, skipped{};
        for (int d = 0; d < kNumDomains; ++d) {
            const std::string kind = domainTag(static_cast<DomainId>(d));
            steps[static_cast<size_t>(d)] =
                m.value("kernel.steps." + kind);
            skipped[static_cast<size_t>(d)] =
                m.value("kernel.skipped_edges." + kind);
        }
        EXPECT_EQ(steps, pin.steps);
        EXPECT_EQ(skipped, pin.skipped);
        m.clear();
    };

    WorkloadParams gzip = findBenchmark("gzip");
    gzip.sim_instrs = 20'000;
    gzip.warmup_instrs = 2'000;
    WorkloadParams art = findBenchmark("art");
    art.sim_instrs = 20'000;
    art.warmup_instrs = 2'000;
    const MachineConfig machines[] = {MachineConfig::bestSynchronous(),
                                      MachineConfig::mcdProgram({}),
                                      MachineConfig::mcdPhaseAdaptive()};
    m.clear();
    size_t next = 0;
    for (const WorkloadParams *wl : {&gzip, &art}) {
        for (const MachineConfig &mc : machines) {
            simulateWithKernel(mc, *wl, Kernel::EventDriven);
            expectPinned(pins[next++]);
        }
    }

    ChipConfig cc;
    cc.machine = MachineConfig::mcdProgram({});
    cc.cores = 4;
    Chip chip(cc, sharingMix(gzip, 4, "producer-consumer"),
              Kernel::EventDriven);
    chip.run();
    expectPinned(pins[next]);
}

TEST(Sweep, StagedSearchImprovesOnBase)
{
    WorkloadParams w = shrunk("em3d");
    RunStats base = simulate(MachineConfig::mcdProgram({}), w);
    ProgramAdaptiveResult r = findBestAdaptive(w, SweepMode::Staged);
    EXPECT_LE(runtimeNs(r.best_stats), runtimeNs(base) + 1.0);
    EXPECT_GE(r.runs_performed, 13u);
    // em3d is memory-bound: the search must upsize the cache pair.
    EXPECT_GT(r.best.dcache, 0);
}

TEST(Sweep, AdaptiveSweepArgminMatchesExhaustiveSearch)
{
    // The raw rows are the whole search: their argmin (lowest index
    // on ties) must be exactly what findBestAdaptive's exhaustive
    // mode picks.
    WorkloadParams wl = benchmarkSuite().front();
    wl.sim_instrs = 400;
    wl.warmup_instrs = 100;

    std::vector<AdaptivePointRuntime> rows = sweepAdaptiveRaw(wl);
    ASSERT_EQ(rows.size(), 256u);
    size_t best = 0;
    for (size_t i = 1; i < rows.size(); ++i) {
        if (rows[i].runtime_ns < rows[best].runtime_ns)
            best = i;
    }
    ProgramAdaptiveResult search =
        findBestAdaptive(wl, SweepMode::Exhaustive);
    EXPECT_EQ(search.best, rows[best].cfg);
    EXPECT_EQ(runtimeNs(search.best_stats), rows[best].runtime_ns);
}

TEST(Sweep, SynchronousSweepRanksAndNormalizes)
{
    std::vector<WorkloadParams> suite = {shrunk("adpcm encode"),
                                         shrunk("gsm decode")};
    auto points = sweepSynchronous(suite, false);
    EXPECT_EQ(points.size(), 64u);
    EXPECT_DOUBLE_EQ(points.front().norm_runtime, 1.0);
    for (size_t i = 1; i < points.size(); ++i)
        EXPECT_GE(points[i].norm_runtime, points[i - 1].norm_runtime);
}

TEST(Study, TwoBenchmarkStudyIsCoherent)
{
    // em3d keeps its full (auto-scaled) window: its memory-bound
    // character needs several passes over the data pool.
    std::vector<WorkloadParams> suite = {findBenchmark("em3d"),
                                         shrunk("adpcm encode")};
    StudyResult r = runStudy(suite, SweepMode::Staged, false);
    ASSERT_EQ(r.benchmarks.size(), 2u);
    for (const BenchmarkResult &b : r.benchmarks) {
        EXPECT_GT(b.sync_ns, 0.0);
        EXPECT_GT(b.program_ns, 0.0);
        EXPECT_GT(b.phase_ns, 0.0);
        // Improvement formulae are consistent with the times.
        EXPECT_NEAR(b.programImprovement(),
                    b.sync_ns / b.program_ns - 1.0, 1e-12);
    }
    // em3d (memory-bound) must show a large Program-Adaptive gain.
    EXPECT_GT(r.benchmarks[0].programImprovement(), 0.2);
    // Averages are the arithmetic mean.
    EXPECT_NEAR(r.avgProgramImprovement(),
                (r.benchmarks[0].programImprovement() +
                 r.benchmarks[1].programImprovement()) / 2.0,
                1e-12);
    // Table 9 distributions count all benchmarks.
    auto d = r.distribution(Structure::DCachePair);
    EXPECT_EQ(d[0] + d[1] + d[2] + d[3], 2);
}

TEST(Report, Figure6Rendering)
{
    std::vector<WorkloadParams> suite = {shrunk("adpcm encode", 8000)};
    StudyResult r = runStudy(suite, SweepMode::Staged, false);
    std::string fig = renderFigure6(r);
    EXPECT_NE(fig.find("Figure 6"), std::string::npos);
    EXPECT_NE(fig.find("adpcm encode"), std::string::npos);
    EXPECT_NE(fig.find("AVERAGE"), std::string::npos);
    std::string t9 = renderTable9(r);
    EXPECT_NE(t9.find("Table 9"), std::string::npos);
    EXPECT_NE(t9.find("32k1W/256k1W"), std::string::npos);
    EXPECT_NE(t9.find("100%"), std::string::npos);
}

TEST(Report, ReconfigTraceRendering)
{
    ReconfigTrace trace;
    trace.record(10'000, Structure::DCachePair, 0, 2);
    trace.record(50'000, Structure::DCachePair, 2, 0);
    std::string s = renderReconfigTrace(
        "apsi D/L2 cache configurations", trace,
        Structure::DCachePair, 0, 100'000);
    EXPECT_NE(s.find("apsi"), std::string::npos);
    EXPECT_NE(s.find("128k4W/1024k4W"), std::string::npos);
    EXPECT_NE(s.find("2 reconfigurations"), std::string::npos);
    // Both levels appear as drawn rows.
    EXPECT_NE(s.find('#'), std::string::npos);
}

TEST(Report, SweepJsonFormatsArePinned)
{
    // Hand-made rows, no simulation: every sweep writer's bytes are
    // pinned literally (doubles print with %.17g, so 0.1 shows its
    // full expansion). Golden policy: docs/testing.md.
    StudyResult study;
    study.mode = SweepMode::Staged;
    BenchmarkResult b;
    b.name = "gzip";
    b.suite = "SPEC2000 Int";
    b.sync_ns = 1234.5;
    b.program_ns = 0.1;
    b.phase_ns = 1e21;
    b.program_cfg = AdaptiveConfig{1, 2, 3, 0};
    b.phase_stats.committed = 99; // carried, never written.
    b.runs = 14;
    study.benchmarks = {b, BenchmarkResult{}};
    EXPECT_EQ(studyJson(study), R"({
  "sweep": "study",
  "mode": "staged",
  "benchmarks": 2,
  "rows": [
    {"index": 0, "name": "gzip", "suite": "SPEC2000 Int", "sync_ns": 1234.5, "program_ns": 0.10000000000000001, "phase_ns": 1e+21, "cfg": "I1 D2 Qi3 Qf0", "runs": 14},
    {"index": 1, "name": "", "suite": "", "sync_ns": 0, "program_ns": 0, "phase_ns": 0, "cfg": "I0 D0 Qi0 Qf0", "runs": 0}
  ]
}
)");

    std::vector<SyncPointRuntimes> sync = {
        SyncPointRuntimes{3, 1, 0, 2, {1.5, 2.25}},
        SyncPointRuntimes{15, 3, 3, 3, {}}};
    EXPECT_EQ(syncSweepJson(sync, 2, true), R"({
  "sweep": "synchronous",
  "full": true,
  "benchmarks": 2,
  "rows": [
    {"index": 0, "icache_opt": 3, "dcache": 1, "iq_int": 0, "iq_fp": 2, "runtime_ns": [1.5, 2.25]},
    {"index": 1, "icache_opt": 15, "dcache": 3, "iq_int": 3, "iq_fp": 3, "runtime_ns": []}
  ]
}
)");

    std::vector<AdaptivePointRuntime> adaptive = {
        AdaptivePointRuntime{AdaptiveConfig{0, 1, 2, 3}, 7.0 / 3.0},
        AdaptivePointRuntime{AdaptiveConfig{3, 3, 3, 3}, 0.0}};
    EXPECT_EQ(adaptiveSweepJson(adaptive, "art"), R"({
  "sweep": "adaptive",
  "benchmark": "art",
  "points": 256,
  "rows": [
    {"index": 0, "cfg": "I0 D1 Qi2 Qf3", "runtime_ns": 2.3333333333333335},
    {"index": 1, "cfg": "I3 D3 Qi3 Qf3", "runtime_ns": 0}
  ]
}
)");

    CmpPointResult c;
    c.cores = 2;
    c.rotation = 1;
    c.chip_ns = 5e-324;
    c.core_ns = {4.0, 4.5};
    c.l2_misses = 18446744073709551615ULL;
    c.bank_conflicts = 7;
    EXPECT_EQ(cmpSweepJson({c, CmpPointResult{}}, 4, {2, 16}), R"({
  "sweep": "cmp",
  "benchmarks": 4,
  "core_counts": [2, 16],
  "rows": [
    {"index": 0, "cores": 2, "rotation": 1, "chip_ns": 4.9406564584124654e-324, "l2_misses": 18446744073709551615, "bank_conflicts": 7, "core_ns": [4, 4.5]},
    {"index": 1, "cores": 1, "rotation": 0, "chip_ns": 0, "l2_misses": 0, "bank_conflicts": 0, "core_ns": []}
  ]
}
)");
    EXPECT_EQ(cmpSweepJson({}, 0, {}), R"({
  "sweep": "cmp",
  "benchmarks": 0,
  "core_counts": [],
  "rows": [
  ]
}
)");
}
