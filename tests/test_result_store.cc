/**
 * @file
 * Content-addressed result store tests (sim/result_store.hh). The
 * contract under test is "recompute, never trust": truncated,
 * bit-flipped, stale-version and hash-colliding records all degrade
 * to misses with correct recomputed results; writes are atomic under
 * concurrent writers (threads and separate processes); and a
 * warm-cache sweep rerun is byte-identical to the cache-off run
 * while being several times faster — the property the whole store
 * exists for.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "harness.hh"
#include "sim/report.hh"
#include "sim/result_store.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "workload/suite.hh"

using namespace gals;
using harness::expectSameChipStats;
using harness::expectSameStats;
namespace fs = std::filesystem;

namespace
{

/** Fresh temp cache dir per test; global store disabled on exit so
 * later tests (and the rest of the suite) stay cache-off. */
class ResultStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("gals_rs_test_" + std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        configureResultStore("");
        fs::remove_all(dir_);
    }

    std::string dir_;
};

/** A cheap single-core point for store round trips. */
WorkloadParams
tinyWorkload()
{
    WorkloadParams wl = findBenchmark("gzip");
    wl.sim_instrs = 1'200;
    wl.warmup_instrs = 200;
    return wl;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Nudges one visited field (all of a nested struct) off its value. */
template <class T>
void
nudge(T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        v += "x";
    else if constexpr (std::is_same_v<T, bool>)
        v = !v;
    else if constexpr (std::is_enum_v<T>)
        v = static_cast<T>(static_cast<int>(v) ^ 1);
    else if constexpr (std::is_arithmetic_v<T>)
        v += 1;
    else if constexpr (std::is_same_v<T, std::vector<PhaseParams>>)
        v.emplace_back();
    else
        forEachField(v, [](const char *, auto &x) { nudge(x); });
}

/** Nudges each field of `base` its visitor lists, one at a time, and
 * expects `key` of the nudged copy to differ from `key(base)`. */
template <class S, class Key>
void
expectEveryFieldMovesKey(const S &base, Key key)
{
    std::size_t fields = 0;
    forEachField(base, [&](const char *, const auto &) { ++fields; });
    for (std::size_t i = 0; i < fields; ++i) {
        S t = base;
        std::size_t at = 0;
        forEachField(t, [&](const char *name, auto &v) {
            if (at++ == i) {
                nudge(v);
                EXPECT_NE(key(base), key(t)) << name;
            }
        });
    }
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST_F(ResultStoreTest, KeyIsStableAndFieldSensitive)
{
    MachineConfig m = MachineConfig::mcdProgram({1, 2, 3, 0});
    WorkloadParams wl = tinyWorkload();

    const std::string base = resultKey(m, wl);
    EXPECT_EQ(base, resultKey(m, wl)); // deterministic.

    // Every field the visitors list must move the key.
    expectEveryFieldMovesKey(
        m, [&](const MachineConfig &t) { return resultKey(t, wl); });
    expectEveryFieldMovesKey(
        wl, [&](const WorkloadParams &t) { return resultKey(m, t); });
    expectEveryFieldMovesKey(wl.phases.front(), [&](const PhaseParams &p) {
        WorkloadParams t = wl;
        t.phases.front() = p;
        return resultKey(m, t);
    });

    // paper_window is descriptive, not simulated: it stays out.
    {
        WorkloadParams t = wl;
        t.paper_window += "x";
        EXPECT_EQ(base, resultKey(m, t));
    }

    // Chip keys: distinct from single-core keys and sensitive to the
    // chip-level knobs and every per-core workload.
    ChipConfig cc;
    cc.machine = m;
    cc.cores = 2;
    std::vector<WorkloadParams> mix{perCoreWorkload(wl, 0),
                                    perCoreWorkload(wl, 1)};
    const std::string chip = resultKey(cc, mix);
    EXPECT_NE(chip, base);
    expectEveryFieldMovesKey(
        cc, [&](const ChipConfig &t) { return resultKey(t, mix); });
    {
        auto t = mix;
        t[1].seed += 1;
        EXPECT_NE(chip, resultKey(cc, t));
    }
}

TEST_F(ResultStoreTest, KeyAndPayloadEncodingsArePinned)
{
    // Record names and payload digests of the v2 store format. A moved
    // key orphans every cache record and a moved payload layout
    // misreads them, so either needs a kResultStoreVersion bump and
    // new pins. recordPath is a 128-bit FNV-1a, so it digests payloads
    // too; its first half is perfbench's per-leaf digest.
    auto name = [](const std::string &bytes) {
        return fs::path(ResultStore{}.recordPath(bytes)).filename().string();
    };
    EXPECT_EQ(name(resultKey(MachineConfig::mcdProgram({1, 2, 3, 0}),
                             tinyWorkload())),
              "8145e28d0da50d587a0b40b310e97c3a.grs");
    ChipConfig cc;
    cc.machine = MachineConfig::mcdPhaseAdaptive();
    cc.cores = 2;
    std::vector<WorkloadParams> mix =
        sharingMix(tinyWorkload(), 2, "migratory");
    EXPECT_EQ(name(resultKey(cc, mix)),
              "c25de85f03a31b424da0c834b3fcc490.grs");

    WorkloadParams wl = tinyWorkload();
    wl.sim_instrs = 6'000;
    RunStats phase = simulate(MachineConfig::mcdPhaseAdaptive(), wl);
    ASSERT_FALSE(phase.trace.events().empty());
    EXPECT_EQ(name(serializeRunStats(phase)),
              "6c25579683b3780d0a7f9feb36e9c193.grs");
    EXPECT_EQ(name(serializeChipRunStats(Chip(cc, mix).run())),
              "1cc1be49bb3f2db2f98947687ba11710.grs");
}

TEST_F(ResultStoreTest, RunStatsSerializationRoundTripsExactly)
{
    // A phase-adaptive run exercises every field: residency spread,
    // relocks and a nonempty reconfiguration trace.
    MachineConfig m = MachineConfig::mcdPhaseAdaptive();
    WorkloadParams wl = tinyWorkload();
    wl.sim_instrs = 6'000;
    RunStats fresh = simulate(m, wl);

    RunStats back;
    ASSERT_TRUE(deserializeRunStats(serializeRunStats(fresh), back));
    expectSameStats(fresh, back);

    // Malformed payloads must fail cleanly, never crash.
    std::string bytes = serializeRunStats(fresh);
    RunStats scratch;
    EXPECT_FALSE(deserializeRunStats("", scratch));
    EXPECT_FALSE(deserializeRunStats(
        bytes.substr(0, bytes.size() / 2), scratch));
    EXPECT_FALSE(deserializeRunStats(bytes + "x", scratch));
}

TEST_F(ResultStoreTest, ChipRunStatsSerializationRoundTripsExactly)
{
    ChipConfig cc;
    cc.machine = MachineConfig::mcdProgram({});
    cc.cores = 2;
    std::vector<WorkloadParams> mix{
        perCoreWorkload(tinyWorkload(), 0),
        perCoreWorkload(tinyWorkload(), 1)};
    ChipRunStats fresh = Chip(cc, mix).run();

    ChipRunStats back;
    ASSERT_TRUE(deserializeChipRunStats(
        serializeChipRunStats(fresh), back));
    expectSameChipStats(fresh, back);
}

TEST_F(ResultStoreTest, CachedSimulateHitsAfterMiss)
{
    configureResultStore(dir_);
    ASSERT_TRUE(resultStore().enabled());

    MachineConfig m = MachineConfig::bestSynchronous();
    WorkloadParams wl = tinyWorkload();
    RunStats live = simulate(m, wl);

    RunStats cold = cachedSimulate(m, wl);
    expectSameStats(live, cold);
    ResultStore::Counters c = resultStore().counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.stores, 1u);

    RunStats warm = cachedSimulate(m, wl);
    expectSameStats(live, warm);
    c = resultStore().counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.rejects, 0u);
}

TEST_F(ResultStoreTest, DisabledStoreIsInertAndTouchesNothing)
{
    // No configure: the default store must be disabled (the env var
    // is not set in the test environment).
    ASSERT_FALSE(resultStore().enabled());
    MachineConfig m = MachineConfig::bestSynchronous();
    WorkloadParams wl = tinyWorkload();
    expectSameStats(simulate(m, wl), cachedSimulate(m, wl));
    std::string payload;
    EXPECT_FALSE(resultStore().lookup("anything", payload));
    resultStore().store("anything", "bytes"); // no-op, no crash.
    EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(ResultStoreTest, TruncatedRecordDegradesToMiss)
{
    configureResultStore(dir_);
    MachineConfig m = MachineConfig::bestSynchronous();
    WorkloadParams wl = tinyWorkload();
    RunStats live = cachedSimulate(m, wl);

    std::string key = resultKey(m, wl);
    std::string path = resultStore().recordPath(key);
    std::string good = fileBytes(path);
    ASSERT_GT(good.size(), 16u);

    // Every truncation point — including an empty file — must reject
    // and then recompute the exact result.
    for (size_t keep : {size_t{0}, size_t{7}, good.size() / 2,
                        good.size() - 1}) {
        SCOPED_TRACE(keep);
        writeBytes(path, good.substr(0, keep));
        std::string payload;
        EXPECT_FALSE(resultStore().lookup(key, payload));
        expectSameStats(live, cachedSimulate(m, wl)); // recomputed...
        std::string again;
        EXPECT_TRUE(resultStore().lookup(key, again)); // ...restored.
    }
    EXPECT_GT(resultStore().counters().rejects, 0u);
}

TEST_F(ResultStoreTest, FlippedByteDegradesToMiss)
{
    configureResultStore(dir_);
    MachineConfig m = MachineConfig::bestSynchronous();
    WorkloadParams wl = tinyWorkload();
    RunStats live = cachedSimulate(m, wl);

    std::string key = resultKey(m, wl);
    std::string path = resultStore().recordPath(key);
    std::string good = fileBytes(path);

    // Flip one byte in every region of the record: magic, header,
    // middle (payload), and the checksum itself.
    for (size_t at : {size_t{0}, size_t{9}, good.size() / 2,
                      good.size() - 3}) {
        SCOPED_TRACE(at);
        std::string bad = good;
        bad[at] = static_cast<char>(bad[at] ^ 0x40);
        writeBytes(path, bad);
        std::string payload;
        EXPECT_FALSE(resultStore().lookup(key, payload));
        expectSameStats(live, cachedSimulate(m, wl));
    }
}

TEST_F(ResultStoreTest, StaleCodeVersionTagDegradesToMiss)
{
    MachineConfig m = MachineConfig::bestSynchronous();
    WorkloadParams wl = tinyWorkload();
    std::string key = resultKey(m, wl);

    // A record written by an older simulator version...
    ResultStore old_version;
    ASSERT_TRUE(old_version.open(dir_, "gals-results-v0:ancient"));
    old_version.store(key, "payload from an older simulator");
    std::string payload;
    ASSERT_TRUE(old_version.lookup(key, payload));

    // ...is structurally intact but must be rejected by the current
    // version and transparently recomputed.
    configureResultStore(dir_);
    EXPECT_FALSE(resultStore().lookup(key, payload));
    EXPECT_EQ(resultStore().counters().rejects, 1u);
    expectSameStats(simulate(m, wl), cachedSimulate(m, wl));
    EXPECT_TRUE(resultStore().lookup(key, payload));
}

TEST_F(ResultStoreTest, ForeignRecordAtCollidingPathDegradesToMiss)
{
    // Simulate a 128-bit hash collision: a checksum-valid record for
    // key A sitting at key B's path. The full-key comparison inside
    // the record must reject it.
    configureResultStore(dir_);
    resultStore().store("key-A", "payload-A");
    std::string a_path = resultStore().recordPath("key-A");
    std::string b_path = resultStore().recordPath("key-B");
    fs::copy_file(a_path, b_path);

    std::string payload;
    EXPECT_FALSE(resultStore().lookup("key-B", payload));
    EXPECT_EQ(resultStore().counters().rejects, 1u);
    EXPECT_TRUE(resultStore().lookup("key-A", payload));
    EXPECT_EQ(payload, "payload-A");
}

TEST_F(ResultStoreTest, UnusableDirectoryDisablesWithFallback)
{
    // A path that cannot be a directory (parent is a file): open must
    // warn and leave the store disabled — never crash (the
    // threadCountFromEnv logged-fallback contract).
    fs::create_directories(dir_);
    std::string file = dir_ + "/plain_file";
    writeBytes(file, "not a directory");

    ResultStore store;
    EXPECT_FALSE(store.open(file + "/subdir"));
    EXPECT_FALSE(store.enabled());

    // And the global configure path degrades the same way: caching
    // off, simulation still correct.
    configureResultStore(file + "/subdir");
    EXPECT_FALSE(resultStore().enabled());
    MachineConfig m = MachineConfig::bestSynchronous();
    WorkloadParams wl = tinyWorkload();
    expectSameStats(simulate(m, wl), cachedSimulate(m, wl));
}

TEST_F(ResultStoreTest, ConcurrentThreadWritersStayCorrect)
{
    configureResultStore(dir_);
    constexpr int kThreads = 4;
    constexpr int kKeys = 8;

    // All threads hammer the same small key set; readers must only
    // ever observe a miss or the exact expected payload.
    std::vector<std::thread> threads;
    std::atomic<int> bad{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 50; ++round) {
                int k = (t + round) % kKeys;
                std::string key = "shared-key-" + std::to_string(k);
                std::string expect = "payload-" + std::to_string(k);
                resultStore().store(key, expect);
                std::string got;
                if (resultStore().lookup(key, got) && got != expect)
                    bad.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(bad.load(), 0);

    for (int k = 0; k < kKeys; ++k) {
        std::string got;
        ASSERT_TRUE(resultStore().lookup(
            "shared-key-" + std::to_string(k), got));
        EXPECT_EQ(got, "payload-" + std::to_string(k));
    }
}

TEST_F(ResultStoreTest, ConcurrentProcessWritersStayCorrect)
{
    // Two child processes race writes of the same keys into one cache
    // dir (two sweeps sharing one --cache-dir). Atomic temp+rename plus
    // deterministic payloads make last-wins harmless; afterwards every
    // record must be intact and exact.
    configureResultStore(dir_);
    constexpr int kKeys = 16;
    auto key_of = [](int k) { return "proc-key-" + std::to_string(k); };
    auto payload_of = [](int k) {
        return std::string("proc-payload-") + std::to_string(k) +
               std::string(1000, static_cast<char>('a' + k % 26));
    };

    pid_t pids[2];
    for (int child = 0; child < 2; ++child) {
        pids[child] = ::fork();
        ASSERT_GE(pids[child], 0);
        if (pids[child] == 0) {
            // Child: write every key many times, opposite orders so
            // the two processes collide on the same names.
            for (int round = 0; round < 25; ++round) {
                for (int i = 0; i < kKeys; ++i) {
                    int k = child == 0 ? i : kKeys - 1 - i;
                    resultStore().store(key_of(k), payload_of(k));
                }
            }
            ::_exit(0);
        }
    }
    for (pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    for (int k = 0; k < kKeys; ++k) {
        std::string got;
        ASSERT_TRUE(resultStore().lookup(key_of(k), got)) << k;
        EXPECT_EQ(got, payload_of(k)) << k;
    }
    // No abandoned temp files (every write published or cleaned up).
    for (const auto &entry : fs::directory_iterator(dir_)) {
        EXPECT_EQ(entry.path().extension(), ".grs")
            << entry.path().string();
    }
}

TEST_F(ResultStoreTest, ResumeAssemblesFreshAndCachedRows)
{
    // A killed sweep resumes from the store: half of the 256 points
    // completed (cold) before the kill, then the full sweep reruns —
    // half hits, half fresh — and the result is byte-identical to a
    // cache-off sweep.
    WorkloadParams wl = tinyWorkload();
    wl.sim_instrs = 400;
    wl.warmup_instrs = 100;

    std::string off_json = adaptiveSweepJson(sweepAdaptiveRaw(wl),
                                             wl.name);

    configureResultStore(dir_);
    std::vector<AdaptiveConfig> configs = allAdaptiveConfigs();
    for (size_t p = 0; p < configs.size(); p += 2) // the killed run.
        cachedSimulate(MachineConfig::mcdProgram(configs[p]), wl);
    ResultStore::Counters c = resultStore().counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 128u);

    std::string resumed_json = adaptiveSweepJson(sweepAdaptiveRaw(wl),
                                                 wl.name);
    c = resultStore().counters();
    EXPECT_EQ(c.hits, 128u);   // the even points came from the store,
    EXPECT_EQ(c.misses, 256u); // the odd 128 were computed fresh.
    EXPECT_EQ(resumed_json, off_json);
}

TEST_F(ResultStoreTest, WarmSweepIsByteIdenticalAndFaster)
{
    // The acceptance gate: a >=64-point sweep rerun warm must be >=5x
    // faster wall-clock than the cold run and byte-identical to the
    // cache-off output. The window is sized so the cold run does real
    // work (~100s of ms) while the warm run is pure record reads.
    WorkloadParams wl = tinyWorkload();
    wl.sim_instrs = 4'000;
    wl.warmup_instrs = 800;

    std::string off_json = adaptiveSweepJson(sweepAdaptiveRaw(wl),
                                             wl.name);

    using clock = std::chrono::steady_clock;
    configureResultStore(dir_);

    auto t0 = clock::now();
    sweepAdaptiveRaw(wl);
    auto t1 = clock::now();
    std::string warm_json = adaptiveSweepJson(sweepAdaptiveRaw(wl),
                                              wl.name);
    auto t2 = clock::now();

    EXPECT_EQ(warm_json, off_json);
    ResultStore::Counters c = resultStore().counters();
    EXPECT_EQ(c.misses, 256u);
    EXPECT_EQ(c.hits, 256u);
    EXPECT_EQ(c.rejects, 0u);

    double cold_s = std::chrono::duration<double>(t1 - t0).count();
    double warm_s = std::chrono::duration<double>(t2 - t1).count();
    EXPECT_GE(cold_s, warm_s * 5.0)
        << "cold " << cold_s << "s vs warm " << warm_s << "s";
}
