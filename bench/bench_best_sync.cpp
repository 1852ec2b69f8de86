/**
 * @file
 * Reproduces the paper's Section 4 search for the "best overall"
 * fully synchronous processor. The paper sweeps 1,024 synchronous
 * design points (16 I-cache/predictor organizations x 4 cache pairs
 * x 4 integer IQ x 4 FP IQ sizes) over the whole suite; here the
 * default sweeps the 64-point I-cache x cache-pair cross (the full
 * sweep confirms 16-entry queues win; enable it with
 * GALS_SWEEP=exhaustive). GALS_BENCHMARKS=n limits the suite.
 */

#include "bench_util.hh"

#include "common/logging.hh"
#include "common/table.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "timing/frequency_model.hh"
#include "workload/suite.hh"

using namespace gals;

namespace
{

void
printSweep()
{
    benchBanner("Best-overall synchronous design search",
                "paper Section 4 (expected winner: 64KB 1W I-cache, "
                "32KB/256KB 1W caches, 16-entry queues)");

    std::vector<WorkloadParams> suite = benchmarkSuite();
    size_t limit = benchmarkCountFromEnv(12);
    if (limit > 0 && limit < suite.size()) {
        // Default: an evenly spaced subset keeps the bench quick
        // while covering all three suites.
        std::vector<WorkloadParams> subset;
        for (size_t i = 0; i < suite.size();
             i += suite.size() / limit) {
            subset.push_back(suite[i]);
        }
        suite = std::move(subset);
    }
    bool full = sweepModeFromEnv() == SweepMode::Exhaustive;
    std::printf("sweeping %s design points over %zu benchmarks...\n",
                full ? "all 1,024" : "64 (I-cache x cache pair)",
                suite.size());
    std::fflush(stdout);

    auto points = sweepSynchronous(suite, full);

    TextTable t("Synchronous design points, best first (geometric-mean "
                "runtime normalized to the winner)");
    t.setHeader({"rank", "I-cache", "D/L2", "int IQ", "fp IQ", "GHz",
                 "norm runtime"});
    for (size_t i = 0; i < points.size() && i < 10; ++i) {
        const SyncDesignPoint &p = points[i];
        t.addRow({csprintf("%zu", i + 1),
                  optICacheConfig(p.icache_opt).name,
                  dcachePairConfig(p.dcache).name,
                  csprintf("%d", kIssueQueueSizes[p.iq_int]),
                  csprintf("%d", kIssueQueueSizes[p.iq_fp]),
                  csprintf("%.3f",
                           synchronousFreq(p.icache_opt, p.dcache,
                                           p.iq_int, p.iq_fp)),
                  csprintf("%.4f", p.norm_runtime)});
    }
    t.print();

    const SyncDesignPoint &best = points.front();
    std::printf("\nwinner: %s I-cache + %s caches + %d/%d-entry "
                "queues at %.3f GHz\n\n",
                optICacheConfig(best.icache_opt).name.c_str(),
                dcachePairConfig(best.dcache).name.c_str(),
                kIssueQueueSizes[best.iq_int],
                kIssueQueueSizes[best.iq_fp],
                synchronousFreq(best.icache_opt, best.dcache,
                                best.iq_int, best.iq_fp));
}

void
BM_SyncSweepPoint(benchmark::State &state)
{
    WorkloadParams wl = findBenchmark("g721 encode");
    wl.sim_instrs = 20'000;
    wl.warmup_instrs = 4'000;
    for (auto _ : state) {
        RunStats s =
            simulate(MachineConfig::synchronous(4, 0, 0, 0), wl);
        benchmark::DoNotOptimize(s.time_ps);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 24'000);
}
BENCHMARK(BM_SyncSweepPoint);

} // namespace

int
main(int argc, char **argv)
{
    printSweep();
    return runRegisteredBenchmarks(argc, argv);
}
