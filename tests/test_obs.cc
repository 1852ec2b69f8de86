/**
 * @file
 * Observability-layer tests (src/obs/, docs/observability.md).
 *
 * The tracer's contract has three legs, each pinned here:
 *
 *  - *Zero perturbation*: a traced run is bit-identical to an
 *    untraced run — differentially checked over randomized machines
 *    and randomized chips, the same spirit as the kernel-equivalence
 *    gates.
 *  - *Logged fallback*: GALS_TRACE / configure() follow the
 *    threadCountFromEnv contract — an unusable path is one warn()
 *    and tracing stays off, never a crash.
 *  - *Publication order*: every track's timestamps are nondecreasing
 *    in record order, asserted at record time (death test) and
 *    verified over every recorded track of a real traced run.
 *
 * The metrics registry side covers the counter surface, the JSON
 * document, and the folds from chip telemetry and the result store.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "harness.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/result_store.hh"
#include "sim/simulation.hh"
#include "workload/suite.hh"

using namespace gals;
using namespace gals::harness;
namespace fs = std::filesystem;

namespace
{

/** Fresh trace target per test; tracer disarmed on exit so the rest
 * of the suite (and the process-exit exporter) stays trace-off. */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("gals_obs_test_" + std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        trace_path_ = dir_ + "/trace.json";
    }

    void
    TearDown() override
    {
        obs::Tracer::instance().disable();
        ::unsetenv("GALS_TRACE");
        fs::remove_all(dir_);
    }

    std::string dir_;
    std::string trace_path_;
};

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Nondecreasing timestamps on every recorded track. */
void
expectTracksMonotonic(const obs::Tracer &tracer)
{
    for (const obs::Tracer::TrackView &tv : tracer.trackViews()) {
        SCOPED_TRACE("run " + std::to_string(tv.run) + " track " +
                     tv.name);
        Tick last = 0;
        for (const obs::TraceRecord &e : *tv.events) {
            EXPECT_GE(e.ts, last);
            last = e.ts;
        }
    }
}

// ---------------------------------------------------------------------
// Satellite 1: strict logged-fallback GALS_TRACE parsing.
// ---------------------------------------------------------------------

TEST_F(ObsTest, ConfigureAcceptsWritablePath)
{
    obs::Tracer &tr = obs::Tracer::instance();
    EXPECT_TRUE(tr.configure(trace_path_));
    EXPECT_TRUE(tr.enabled());
    EXPECT_EQ(tr.path(), trace_path_);
}

TEST_F(ObsTest, ConfigureUnwritablePathWarnsAndDisables)
{
    obs::Tracer &tr = obs::Tracer::instance();
    // A path under a nonexistent directory cannot be opened: the
    // logged-fallback contract says one warn(), disabled, no crash.
    EXPECT_FALSE(tr.configure(dir_ + "/no_such_dir/trace.json"));
    EXPECT_FALSE(tr.enabled());
    // A directory is not a writable file either.
    EXPECT_FALSE(tr.configure(dir_));
    EXPECT_FALSE(tr.enabled());
    // Empty path: explicitly disabled with a warning.
    EXPECT_FALSE(tr.configure(""));
    EXPECT_FALSE(tr.enabled());
}

TEST_F(ObsTest, ConfigureFromEnvFollowsEnvContract)
{
    obs::Tracer &tr = obs::Tracer::instance();
    ::unsetenv("GALS_TRACE");
    EXPECT_FALSE(tr.configureFromEnv()); // unset: silently off.
    ::setenv("GALS_TRACE", "", 1);
    EXPECT_FALSE(tr.configureFromEnv()); // empty: silently off.
    ::setenv("GALS_TRACE", (dir_ + "/missing/t.json").c_str(), 1);
    EXPECT_FALSE(tr.configureFromEnv()); // unusable: warn + off.
    EXPECT_FALSE(tr.enabled());
    ::setenv("GALS_TRACE", trace_path_.c_str(), 1);
    EXPECT_TRUE(tr.configureFromEnv());
    EXPECT_TRUE(tr.enabled());
}

TEST_F(ObsTest, DisabledTracerRecordsNothing)
{
    obs::Tracer &tr = obs::Tracer::instance();
    tr.disable();
    EXPECT_FALSE(obs::tracing());
    EXPECT_FALSE(tr.beginRun("nope", 2));
    tr.sim(0, obs::Ev::EpochBump, 1'000); // defensively a no-op.
    EXPECT_EQ(tr.eventsRecorded(), 0u);
    EXPECT_EQ(tr.runsRecorded(), 0u);
}

// ---------------------------------------------------------------------
// Tentpole: traced runs are bit-identical to untraced runs.
// ---------------------------------------------------------------------

TEST_F(ObsTest, TracedProcessorRunsBitIdentical)
{
    Pcg32 rng(0x0B5E0B5E, 11);
    obs::Tracer &tr = obs::Tracer::instance();
    for (int i = 0; i < 10; ++i) {
        MachineConfig m = randomMachine(rng);
        WorkloadParams wl = randomWorkload(rng);
        SCOPED_TRACE("case " + std::to_string(i) + ": " +
                     describe(m, wl));
        tr.disable();
        RunStats plain = simulate(m, wl);
        ASSERT_TRUE(tr.configure(trace_path_)); // resets prior runs.
        RunStats traced = simulate(m, wl);
        EXPECT_EQ(tr.runsRecorded(), 1u);
        EXPECT_GT(tr.eventsRecorded(), 0u);
        expectSameStats(plain, traced);
    }
}

TEST_F(ObsTest, TracedChipRunsBitIdentical)
{
    Pcg32 rng(0xC41B0B5E, 13);
    obs::Tracer &tr = obs::Tracer::instance();
    for (int i = 0; i < 5; ++i) {
        int cores = rng.nextRange(2, 4);
        ChipConfig cc = randomChipConfig(rng, cores);
        std::vector<WorkloadParams> mix =
            randomChipWorkloads(rng, cores);
        SCOPED_TRACE("case " + std::to_string(i) + " cores=" +
                     std::to_string(cores));
        tr.disable();
        Chip plain_chip(cc, mix);
        ChipRunStats plain = plain_chip.run();
        ASSERT_TRUE(tr.configure(trace_path_));
        Chip traced_chip(cc, mix);
        ChipRunStats traced = traced_chip.run();
        EXPECT_EQ(tr.runsRecorded(), 1u);
        expectSameChipStats(plain, traced);
        expectTracksMonotonic(tr);
    }
}

// ---------------------------------------------------------------------
// The acceptance configuration: a traced 2-core sharing mix on the
// phase-adaptive machine carries every domain track and the
// coherence and reconfiguration event families.
// ---------------------------------------------------------------------

TEST_F(ObsTest, SharingMixTraceCarriesAllLanes)
{
    obs::Tracer &tr = obs::Tracer::instance();
    ASSERT_TRUE(tr.configure(trace_path_));

    ChipConfig cc;
    cc.machine = MachineConfig::mcdPhaseAdaptive();
    cc.cores = 2;
    std::vector<WorkloadParams> mix =
        sharingMix(benchmarkSuite().front(), 2, "producer-consumer");
    for (WorkloadParams &wl : mix) {
        wl.sim_instrs = 30'000;
        wl.warmup_instrs = 3'000;
    }
    Chip chip(cc, mix);
    ChipRunStats s = chip.run();
    EXPECT_GT(s.invalidations, 0u);

    // Every (core, domain) track must have recorded events, and no
    // other track exists.
    std::vector<obs::Tracer::TrackView> tracks = tr.trackViews();
    auto track = [&](const std::string &name)
        -> const std::vector<obs::TraceRecord> * {
        for (const obs::Tracer::TrackView &tv : tracks) {
            if (tv.name == name)
                return tv.events;
        }
        return nullptr;
    };
    EXPECT_EQ(tracks.size(), 8u);
    for (const char *name :
         {"core0/fe", "core0/int", "core0/fp", "core0/ls", "core1/fe",
          "core1/int", "core1/fp", "core1/ls"}) {
        SCOPED_TRACE(name);
        const auto *events = track(name);
        ASSERT_NE(events, nullptr);
        EXPECT_FALSE(events->empty());
    }

    // The acceptance event families: at least one coherence
    // invalidation and one reconfiguration decision.
    std::uint64_t invals = 0, reconfigs = 0;
    for (const obs::Tracer::TrackView &tv : tracks) {
        for (const obs::TraceRecord &e : *tv.events) {
            invals += e.kind == obs::Ev::CohInvalidate;
            reconfigs += e.kind == obs::Ev::Reconfig;
        }
    }
    EXPECT_GE(invals, 1u);
    EXPECT_GE(reconfigs, 1u);
    expectTracksMonotonic(tr);

    // The export is valid Chrome trace-event JSON shape-wise: one
    // object with the schema marker and a traceEvents array.
    ASSERT_TRUE(tr.writeTo(trace_path_));
    std::string doc = fileBytes(trace_path_);
    EXPECT_NE(doc.find("\"gals-trace-v1\""), std::string::npos);
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"coh_invalidate\""), std::string::npos);
    EXPECT_NE(doc.find("\"reconfig\""), std::string::npos);
    EXPECT_NE(doc.find("\"core1/ls\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Satellite 3: publication-order tripwire (death test).
// ---------------------------------------------------------------------

using ObsDeathTest = ObsTest;

TEST_F(ObsDeathTest, OutOfOrderEventTripsAssert)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto out_of_order = [this]() {
        obs::Tracer &tr = obs::Tracer::instance();
        tr.configure(trace_path_);
        tr.beginRun("death", 1);
        tr.sim(0, obs::Ev::EpochBump, 1'000);
        tr.sim(0, obs::Ev::EpochBump, 500); // rewinds the track.
    };
    EXPECT_DEATH(out_of_order(), "publication-order violation");
}

// ---------------------------------------------------------------------
// Satellite 2: the metrics registry and its folds.
// ---------------------------------------------------------------------

TEST_F(ObsTest, MetricsRegistryCountersAndJson)
{
    obs::MetricsRegistry &m = obs::MetricsRegistry::instance();
    m.clear();
    EXPECT_FALSE(m.has("t.count"));
    m.add("t.count", 2);
    m.add("t.count", 3);
    m.set("t.gauge", 7);
    m.setDouble("t.ratio", 0.25);
    EXPECT_EQ(m.value("t.count"), 5u);
    EXPECT_EQ(m.value("t.gauge"), 7u);
    EXPECT_TRUE(m.has("t.ratio"));

    std::string doc = m.json();
    EXPECT_NE(doc.find("\"gals-metrics-v1\""), std::string::npos);
    EXPECT_NE(doc.find("\"t.count\": 5"), std::string::npos);
    EXPECT_NE(doc.find("\"t.ratio\": 0.25"), std::string::npos);

    // writeTo follows the logged-fallback contract.
    EXPECT_FALSE(m.writeTo(dir_ + "/missing/metrics.json"));
    std::string path = dir_ + "/metrics.json";
    EXPECT_TRUE(m.writeTo(path));
    EXPECT_EQ(fileBytes(path), doc);
    m.clear();
}

TEST_F(ObsTest, ChipTelemetryFoldsIntoMetrics)
{
    obs::MetricsRegistry &m = obs::MetricsRegistry::instance();
    m.clear();
    ChipConfig cc;
    cc.machine = MachineConfig::mcdProgram({});
    cc.cores = 2;
    std::vector<WorkloadParams> mix;
    for (int c = 0; c < 2; ++c) {
        WorkloadParams wl = goldenWorkload("gzip");
        wl.sim_instrs = 2'000;
        wl.warmup_instrs = 200;
        mix.push_back(perCoreWorkload(wl, c));
    }
    Chip chip(cc, mix);
    ChipRunStats s = chip.run();
    EXPECT_EQ(m.value("chip.runs"), 1u);
    EXPECT_EQ(m.value("chip.total_committed"), s.total_committed);
    EXPECT_EQ(m.value("chip.l2.accesses"), s.l2_accesses);
    EXPECT_EQ(m.value("chip.l2.misses"), s.l2_misses);
    EXPECT_EQ(m.value("chip.l2.bank_conflicts"), s.bank_conflicts);
    EXPECT_EQ(m.value("chip.coh.invalidations"), s.invalidations);
    m.clear();
}

/**
 * The kernel's work counters are deterministic: exact step and
 * skipped-edge counts for one fixed two-core chip, per local domain
 * kind. A kernel change that moves them must update these pins (and
 * say which counter it reduced).
 */
TEST_F(ObsTest, KernelWorkCountersArePinned)
{
    obs::MetricsRegistry &m = obs::MetricsRegistry::instance();
    ChipConfig cc;
    cc.machine = MachineConfig::mcdProgram({});
    cc.cores = 2;
    const std::vector<WorkloadParams> mix = {
        perCoreWorkload(goldenWorkload("gzip"), 0),
        perCoreWorkload(goldenWorkload("apsi"), 1)};
    auto kind = [](int d) {
        return std::string(domainTag(static_cast<DomainId>(d)));
    };

    m.clear();
    Chip chip(cc, mix, Kernel::EventDriven);
    chip.run();
    std::array<std::uint64_t, kNumDomains> steps{}, skipped{};
    for (int d = 0; d < kNumDomains; ++d) {
        steps[static_cast<size_t>(d)] =
            m.value("kernel.steps." + kind(d));
        skipped[static_cast<size_t>(d)] =
            m.value("kernel.skipped_edges." + kind(d));
    }
    const std::array<std::uint64_t, kNumDomains> want_steps = {
        10841, 13845, 7517, 11256};
    const std::array<std::uint64_t, kNumDomains> want_skipped = {
        98192, 88434, 41392, 95189};
    EXPECT_EQ(steps, want_steps);
    EXPECT_EQ(skipped, want_skipped);
    // The back end's walk work, from the same run.
    EXPECT_EQ(m.value("iq.cand_walks"), 51150u);
    EXPECT_EQ(m.value("iq.src_evals"), 28084u);
    EXPECT_EQ(m.value("lsu.load_walk"), 10278u);
    EXPECT_EQ(m.value("lsu.store_walk"), 3970u);

    // The reference kernel steps every edge it consumes; the event
    // kernel consumes no edge the reference did not (a parked
    // domain's clock lags, it never runs ahead).
    m.clear();
    Chip ref(cc, mix, Kernel::Reference);
    ref.run();
    for (int d = 0; d < kNumDomains; ++d) {
        SCOPED_TRACE(kind(d));
        EXPECT_EQ(m.value("kernel.skipped_edges." + kind(d)), 0u);
        EXPECT_LE(steps[static_cast<size_t>(d)] +
                      skipped[static_cast<size_t>(d)],
                  m.value("kernel.steps." + kind(d)));
    }
    m.clear();
}

TEST_F(ObsTest, ResultStoreStatsFoldIntoMetrics)
{
    obs::MetricsRegistry &m = obs::MetricsRegistry::instance();
    m.clear();
    std::string cache_dir = dir_ + "/cache";
    configureResultStore(cache_dir);
    ASSERT_TRUE(resultStore().enabled());

    MachineConfig mc = goldenMachine("mcd");
    WorkloadParams wl = goldenWorkload("gzip");
    wl.sim_instrs = 1'200;
    wl.warmup_instrs = 200;
    RunStats cold = cachedSimulate(mc, wl);  // miss + store.
    RunStats warm = cachedSimulate(mc, wl);  // hit.
    expectSameStats(cold, warm);

    // The stderr stats line and the registry share one source.
    std::string line = resultStore().statsLine();
    EXPECT_NE(line.find("1 hits"), std::string::npos);
    EXPECT_EQ(m.value("result_store.enabled"), 1u);
    EXPECT_EQ(m.value("result_store.hits"), 1u);
    EXPECT_EQ(m.value("result_store.misses"), 1u);
    EXPECT_EQ(m.value("result_store.stores"), 1u);
    configureResultStore("");
    m.clear();
}

TEST_F(ObsTest, MetricsEnvFollowsLoggedFallback)
{
    obs::MetricsRegistry &m = obs::MetricsRegistry::instance();
    // An unusable GALS_METRICS target warns and leaves the at-exit
    // path unset instead of crashing at exit.
    ::setenv("GALS_METRICS",
             (dir_ + "/missing/metrics.json").c_str(), 1);
    m.configureFromEnv();
    EXPECT_TRUE(m.exitPath().empty());
    std::string good = dir_ + "/metrics_env.json";
    ::setenv("GALS_METRICS", good.c_str(), 1);
    m.configureFromEnv();
    EXPECT_EQ(m.exitPath(), good);
    // Unsetting the variable clears the at-exit target again (and
    // keeps the exporter from chasing this test's deleted tmp dir).
    ::unsetenv("GALS_METRICS");
    m.configureFromEnv();
    EXPECT_TRUE(m.exitPath().empty());
}

// ---------------------------------------------------------------------
// Tracer bookkeeping: run claims, caps, reset semantics.
// ---------------------------------------------------------------------

TEST_F(ObsTest, ConcurrentRunClaimSkipsSecondRun)
{
    obs::Tracer &tr = obs::Tracer::instance();
    ASSERT_TRUE(tr.configure(trace_path_));
    ASSERT_TRUE(tr.beginRun("first", 1));
    // A second claim while the first run is in flight is refused and
    // counted — that run simply proceeds untraced.
    EXPECT_FALSE(tr.beginRun("second", 1));
    tr.endRun();
    EXPECT_EQ(tr.runsRecorded(), 1u);
    EXPECT_EQ(tr.runsSkipped(), 1u);
    EXPECT_FALSE(obs::tracing());
}

TEST_F(ObsTest, DomainStepsMergeIntoSpans)
{
    obs::Tracer &tr = obs::Tracer::instance();
    ASSERT_TRUE(tr.configure(trace_path_));
    ASSERT_TRUE(tr.beginRun("merge", 1));
    // Three contiguous 100 ps steps merge into one 300 ps span; the
    // fourth, after a gap, opens a new span.
    tr.domainStep(0, 0, 100);
    tr.domainStep(0, 100, 100);
    tr.domainStep(0, 200, 100);
    tr.domainStep(0, 1'000, 100);
    tr.endRun();
    std::vector<obs::Tracer::TrackView> tracks = tr.trackViews();
    ASSERT_EQ(tracks.size(), 1u);
    ASSERT_EQ(tracks[0].events->size(), 2u);
    const obs::TraceRecord &span = (*tracks[0].events)[0];
    EXPECT_EQ(span.ts, 0u);
    EXPECT_EQ(span.dur, 300u);
    EXPECT_EQ(span.a0, 3u); // step count.
    EXPECT_EQ((*tracks[0].events)[1].ts, 1'000u);
}

} // namespace
