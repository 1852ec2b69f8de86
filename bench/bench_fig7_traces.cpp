/**
 * @file
 * Reproduces Figure 7: sample reconfiguration traces of the
 * Phase-Adaptive machine — (a) apsi's D/L2 cache configuration
 * following its periodic data-working-set phases, (b) art's integer
 * issue queue following its ILP-distance regimes.
 */

#include "bench_util.hh"

#include "sim/report.hh"
#include "sim/simulation.hh"
#include "workload/suite.hh"

using namespace gals;

namespace
{

void
printTrace(const char *bench, Structure s, const char *title)
{
    WorkloadParams wl = findBenchmark(bench);
    RunStats stats = simulate(MachineConfig::mcdPhaseAdaptive(), wl);
    std::printf("%s\n",
                renderReconfigTrace(title, stats.trace, s, 0,
                                    wl.warmup_instrs + wl.sim_instrs)
                    .c_str());
    std::printf("  residency (committed instrs per config):");
    const auto &res = s == Structure::DCachePair
                          ? stats.dcache_residency
                          : stats.iq_int_residency;
    for (size_t i = 0; i < res.size(); ++i) {
        std::printf(" [%zu]=%llu", i,
                    static_cast<unsigned long long>(res[i]));
    }
    std::printf("\n\n");
}

void
printFigure7()
{
    benchBanner("Figure 7: sample reconfiguration traces",
                "paper Section 5.1, Figure 7 (a: apsi D/L2 phases, "
                "b: art integer IQ phases)");

    printTrace("apsi", Structure::DCachePair,
               "(a) apsi D/L2 cache configurations vs committed "
               "instructions");
    printTrace("art", Structure::IntIssueQueue,
               "(b) art integer issue-queue configurations vs "
               "committed instructions");
}

void
BM_PhaseAdaptiveRun(benchmark::State &state)
{
    WorkloadParams wl = findBenchmark("apsi");
    wl.sim_instrs = 40'000;
    wl.warmup_instrs = 5'000;
    for (auto _ : state) {
        RunStats s = simulate(MachineConfig::mcdPhaseAdaptive(), wl);
        benchmark::DoNotOptimize(s.time_ps);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 45'000);
}
BENCHMARK(BM_PhaseAdaptiveRun);

} // namespace

int
main(int argc, char **argv)
{
    printFigure7();
    return runRegisteredBenchmarks(argc, argv);
}
