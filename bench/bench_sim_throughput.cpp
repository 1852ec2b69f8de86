/**
 * @file
 * Host-side throughput of the simulator itself (committed
 * instructions per host second) for the three machine types. Useful
 * for budgeting sweep sizes; not a paper experiment.
 *
 * Besides the google-benchmark measurements, main() writes
 * BENCH_sim_throughput.json with the same metric so the performance
 * trajectory can be tracked across PRs. The file carries the frozen
 * seed-kernel baseline measured on the reference container alongside
 * the current numbers; the ratio column is the event-kernel speedup.
 */

#include "bench_util.hh"

#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <string>
#include <vector>

#include "cmp/chip.hh"
#include "obs/trace.hh"
#include "sim/result_store.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "workload/suite.hh"

using namespace gals;

namespace
{

/**
 * Committed-instructions/second baselines, frozen so later PRs can
 * report speedup against the same origin: the three single-core
 * configs were measured with the seed kernel at the seed commit on
 * the reference container (1 CPU); the cmp2 column (a two-core
 * multiprogrammed chip, metric = total committed instructions across
 * both cores) was introduced with the CMP subsystem in PR 5 and its
 * baseline is that introduction's measurement on the same container,
 * rounded; cmp4 (a four-core multiprogrammed chip) was introduced
 * with the horizon-parallel stepper in PR 6, same policy; cmp2_shared
 * (a two-core producer/consumer sharing mix — the coherence
 * directory, invalidation and inbox paths on the hot loop) was
 * introduced with cross-core L1 coherence in PR 7, same policy;
 * cmp8 (an eight-core multiprogrammed chip) was introduced with the
 * many-core scale-up in PR 9, same policy; sweep_warm (a 64-point
 * slice at introduction, now the whole 256-point adaptive sweep,
 * served entirely from the content-addressed result store — metric is the warm-cache *equivalent* committed
 * instructions per second, i.e. the simulation work a hit avoids, so
 * it gates record lookup + deserialization throughput) was
 * introduced with the result store in PR 8, same policy. The
 * container's run-to-run noise is ±5-15%, so current/baseline ratios
 * near 1.0 are parity, not regressions.
 */
constexpr int kNumConfigs = 8;
constexpr double kSeedBaseline[kNumConfigs] = {
    1.62e6, // synchronous
    1.36e6, // mcdProgram
    1.37e6, // mcdPhaseAdaptive
    2.00e6, // cmp2 (PR 5 introduction baseline)
    2.50e6, // cmp4 (PR 6 introduction baseline)
    2.10e6, // cmp8 (PR 9 introduction baseline)
    1.93e6, // cmp2_shared (PR 7 introduction baseline)
    2.00e8, // sweep_warm (PR 8 introduction baseline)
};

const char *kConfigNames[kNumConfigs] = {
    "synchronous", "mcdProgram",  "mcdPhaseAdaptive",
    "cmp2",        "cmp4",        "cmp8",
    "cmp2_shared", "sweep_warm"};

MachineConfig
configFor(int i)
{
    switch (i) {
      case 0:  return MachineConfig::bestSynchronous();
      case 1:  return MachineConfig::mcdProgram({});
      default: return MachineConfig::mcdPhaseAdaptive();
    }
}

WorkloadParams
benchWorkload()
{
    WorkloadParams wl = findBenchmark("gzip");
    wl.sim_instrs = 50'000;
    wl.warmup_instrs = 5'000;
    return wl;
}

void
BM_Simulate(benchmark::State &state, MachineConfig config)
{
    WorkloadParams wl = benchWorkload();
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        RunStats s = simulate(config, wl);
        benchmark::DoNotOptimize(s.time_ps);
        instrs += 55'000;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
}

void
BM_Synchronous(benchmark::State &state)
{
    BM_Simulate(state, MachineConfig::bestSynchronous());
}
BENCHMARK(BM_Synchronous);

void
BM_McdProgram(benchmark::State &state)
{
    BM_Simulate(state, MachineConfig::mcdProgram({}));
}
BENCHMARK(BM_McdProgram);

void
BM_McdPhaseAdaptive(benchmark::State &state)
{
    BM_Simulate(state, MachineConfig::mcdPhaseAdaptive());
}
BENCHMARK(BM_McdPhaseAdaptive);

/** Process CPU seconds (immune to co-runner contention). */
double
cpuSeconds()
{
    return cpuProcessSeconds();
}

/** items per CPU-second over ~1.2s for one machine type. */
double
measureItemsPerSec(const MachineConfig &config)
{
    WorkloadParams wl = benchWorkload();
    simulate(config, wl); // warm the host caches.

    std::uint64_t instrs = 0;
    double elapsed = 0.0;
    double t0 = cpuSeconds();
    do {
        RunStats s = simulate(config, wl);
        benchmark::DoNotOptimize(s.time_ps);
        instrs += 55'000;
        elapsed = cpuSeconds() - t0;
    } while (elapsed < 1.2);
    return static_cast<double>(instrs) / elapsed;
}

/** The tracked two-core multiprogrammed chip (gzip + em3d#c1). */
std::vector<WorkloadParams>
cmpBenchMix()
{
    WorkloadParams a = benchWorkload();
    WorkloadParams b = findBenchmark("em3d");
    b.sim_instrs = 50'000;
    b.warmup_instrs = 5'000;
    return {perCoreWorkload(a, 0), perCoreWorkload(b, 1)};
}

/** The tracked four-core multiprogrammed chip (suite rotation). */
std::vector<WorkloadParams>
cmp4BenchMix()
{
    std::vector<WorkloadParams> mix =
        multiprogrammedMix(benchmarkSuite(), 4, 0);
    for (WorkloadParams &wl : mix) {
        wl.sim_instrs = 50'000;
        wl.warmup_instrs = 5'000;
    }
    return mix;
}

/** The tracked eight-core multiprogrammed chip (suite rotation). */
std::vector<WorkloadParams>
cmp8BenchMix()
{
    std::vector<WorkloadParams> mix =
        multiprogrammedMix(benchmarkSuite(), 8, 0);
    for (WorkloadParams &wl : mix) {
        wl.sim_instrs = 50'000;
        wl.warmup_instrs = 5'000;
    }
    return mix;
}

/** The tracked two-core sharing chip: both cores run gzip into a
 * common 16KB coherent window, core 0 store-heavy (the producer). */
std::vector<WorkloadParams>
cmp2SharedBenchMix()
{
    std::vector<WorkloadParams> mix =
        sharingMix(benchWorkload(), 2, "producer-consumer");
    for (WorkloadParams &wl : mix) {
        wl.sim_instrs = 50'000;
        wl.warmup_instrs = 5'000;
    }
    return mix;
}

/** Total committed instructions per CPU-second for an N-core chip
 * on the event kernel. */
double
measureCmpItemsPerSec(int cores,
                      const std::vector<WorkloadParams> &mix)
{
    ChipConfig cc;
    cc.machine = MachineConfig::mcdProgram({});
    cc.cores = cores;
    std::uint64_t per_run = 0;
    for (const WorkloadParams &wl : mix)
        per_run += wl.sim_instrs + wl.warmup_instrs;
    Chip(cc, mix).run(); // warm the host caches.

    std::uint64_t instrs = 0;
    double elapsed = 0.0;
    double t0 = cpuSeconds();
    do {
        Chip chip(cc, mix);
        ChipRunStats s = chip.run();
        benchmark::DoNotOptimize(s.makespan_ps);
        instrs += per_run;
        elapsed = cpuSeconds() - t0;
    } while (elapsed < 1.2);
    return static_cast<double>(instrs) / elapsed;
}

/**
 * Warm-cache equivalent committed instructions per CPU-second: the
 * 256-point adaptive sweep is prefilled into a result store once
 * (cold, untimed), then swept repeatedly warm. Each warm
 * point is one record lookup + RunStats deserialization standing in
 * for (sim+warmup) instructions of simulation, so the column tracks
 * the store's hit path; a regression here means lookups got slower.
 */
double
measureWarmSweepItemsPerSec()
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("gals_bench_cache_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    configureResultStore(dir.string());

    WorkloadParams wl = benchWorkload();
    wl.sim_instrs = 4'000;
    wl.warmup_instrs = 800;
    sweepAdaptiveRaw(wl); // cold prefill (untimed).

    const std::uint64_t per_sweep =
        allAdaptiveConfigs().size() * (wl.sim_instrs + wl.warmup_instrs);
    std::uint64_t instrs = 0;
    double elapsed = 0.0;
    double t0 = cpuSeconds();
    do {
        auto rows = sweepAdaptiveRaw(wl);
        benchmark::DoNotOptimize(rows.data());
        instrs += per_sweep;
        elapsed = cpuSeconds() - t0;
    } while (elapsed < 1.2);

    configureResultStore("");
    fs::remove_all(dir);
    return static_cast<double>(instrs) / elapsed;
}

/**
 * Informational (NOT gated by perf_smoke, which only iterates the
 * "configs" map): single-core gzip throughput with the event tracer
 * armed, per-run buffers dropped between iterations so every run
 * records a full trace instead of saturating the run cap. The
 * tracing_off/tracing_on ratio documents the opt-in cost of
 * GALS_TRACE; the untraced columns above are measured with the
 * tracer disarmed, exactly like production runs.
 */
double
measureTracedItemsPerSec(const MachineConfig &config)
{
    namespace fs = std::filesystem;
    const fs::path path =
        fs::temp_directory_path() /
        ("gals_bench_trace_" + std::to_string(::getpid()) + ".json");
    obs::Tracer &tr = obs::Tracer::instance();
    if (!tr.configure(path.string()))
        return 0.0;

    WorkloadParams wl = benchWorkload();
    simulate(config, wl); // warm the host caches.
    tr.reset();

    std::uint64_t instrs = 0;
    double elapsed = 0.0;
    double t0 = cpuSeconds();
    do {
        RunStats s = simulate(config, wl);
        benchmark::DoNotOptimize(s.time_ps);
        tr.reset();
        instrs += 55'000;
        elapsed = cpuSeconds() - t0;
    } while (elapsed < 1.2);

    tr.disable();
    fs::remove(path);
    return static_cast<double>(instrs) / elapsed;
}

void
writeJson()
{
    std::FILE *f = std::fopen("BENCH_sim_throughput.json", "w");
    if (f == nullptr) {
        std::fprintf(stderr,
                     "warning: cannot write "
                     "BENCH_sim_throughput.json\n");
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"sim_throughput\",\n");
    std::fprintf(f,
                 "  \"metric\": "
                 "\"committed_instructions_per_host_second\",\n");
    std::fprintf(f,
                 "  \"workload\": \"gzip 50k+5k instructions\",\n");
    std::fprintf(f, "  \"configs\": {\n");
    for (int i = 0; i < kNumConfigs; ++i) {
        double now;
        if (i < 3)
            now = measureItemsPerSec(configFor(i));
        else if (i == 3)
            now = measureCmpItemsPerSec(2, cmpBenchMix());
        else if (i == 4)
            now = measureCmpItemsPerSec(4, cmp4BenchMix());
        else if (i == 5)
            now = measureCmpItemsPerSec(8, cmp8BenchMix());
        else if (i == 6)
            now = measureCmpItemsPerSec(2, cmp2SharedBenchMix());
        else
            now = measureWarmSweepItemsPerSec();
        std::fprintf(f,
                     "    \"%s\": {\"seed_baseline\": %.0f, "
                     "\"current\": %.0f, \"speedup\": %.2f}%s\n",
                     kConfigNames[i], kSeedBaseline[i], now,
                     now / kSeedBaseline[i],
                     i + 1 < kNumConfigs ? "," : "");
        std::printf("JSON %-16s %8.0f items/s (seed %8.0f, %.2fx)\n",
                    kConfigNames[i], now, kSeedBaseline[i],
                    now / kSeedBaseline[i]);
    }
    std::fprintf(f, "  },\n");
    // Tracing-on overhead, informational only (untracked in the
    // committed reference: perf_smoke gates the "configs" map alone,
    // and the ratio moves with trace volume, not simulator speed).
    double off = measureItemsPerSec(configFor(1));
    double on = measureTracedItemsPerSec(configFor(1));
    std::fprintf(f,
                 "  \"informational\": {\n"
                 "    \"tracing_overhead\": {\"config\": "
                 "\"mcdProgram\", \"tracing_off\": %.0f, "
                 "\"tracing_on\": %.0f, \"on_off_ratio\": %.3f}\n"
                 "  }\n}\n",
                 off, on, on > 0.0 ? on / off : 0.0);
    std::printf("JSON tracing overhead (mcdProgram): off %.0f, "
                "on %.0f items/s (%.1f%% of untraced)\n",
                off, on, off > 0.0 ? 100.0 * on / off : 0.0);
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    gals::benchBanner("Simulator host throughput",
                      "infrastructure measurement (items == committed "
                      "instructions)");
    writeJson();
    return runRegisteredBenchmarks(argc, argv);
}
