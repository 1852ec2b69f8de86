/** @file Tests for the sweep, study and report layers. */

#include <gtest/gtest.h>

#include <set>
#include <thread>

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
    unsetenv("GALS_SWEEP");
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
    auto d = r.distDcache();
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
        Structure::DCachePair, 0, 100'000,
        {"32k1W/256k1W", "64k2W/512k2W", "128k4W/1024k4W",
         "256k8W/2048k8W"});
    EXPECT_NE(s.find("apsi"), std::string::npos);
    EXPECT_NE(s.find("128k4W/1024k4W"), std::string::npos);
    EXPECT_NE(s.find("2 reconfigurations"), std::string::npos);
    // Both levels appear as drawn rows.
    EXPECT_NE(s.find('#'), std::string::npos);
}
