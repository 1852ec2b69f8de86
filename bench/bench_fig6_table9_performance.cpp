/**
 * @file
 * The headline experiment: Figure 6 (per-benchmark runtime
 * improvement of the Program-Adaptive and Phase-Adaptive MCD
 * machines over the best fully synchronous design) and Table 9 (the
 * distribution of Program-Adaptive configuration choices).
 *
 * By default the Program-Adaptive search is the staged-greedy sweep
 * (~17 runs per benchmark); set GALS_SWEEP=exhaustive for the paper's
 * full 256-configuration sweep per benchmark. GALS_BENCHMARKS=n
 * limits the study to the first n benchmark runs.
 *
 * The registered benchmarks report the cached study results as
 * counters so the numbers appear in machine-readable benchmark
 * output.
 */

#include "bench_util.hh"

#include "sim/report.hh"
#include "sim/study.hh"
#include "workload/suite.hh"

using namespace gals;

namespace
{

const StudyResult &
study()
{
    static const StudyResult result = [] {
        std::vector<WorkloadParams> suite = benchmarkSuite();
        size_t n = benchmarkCountFromEnv(0); // 0: the whole suite.
        if (n > 0 && n < suite.size())
            suite.resize(n);
        SweepMode mode = sweepModeFromEnv();
        std::printf("running %zu benchmarks, %s program-adaptive "
                    "sweep...\n",
                    suite.size(),
                    mode == SweepMode::Exhaustive ? "exhaustive (256)"
                                                  : "staged (~17)");
        std::fflush(stdout);
        return runStudy(suite, mode, false);
    }();
    return result;
}

void
printFigure6AndTable9()
{
    benchBanner("Figure 6 + Table 9: Program- and Phase-Adaptive "
                "performance",
                "paper Section 5, Figure 6 and Table 9 (paper "
                "averages: +17.6% program, +20.4% phase)");

    const StudyResult &r = study();
    std::printf("%s\n", renderFigure6(r).c_str());
    std::printf("%s\n", renderTable9(r).c_str());
    std::printf("total simulation runs: %llu\n\n",
                static_cast<unsigned long long>(r.total_runs));
}

void
BM_StudyAverages(benchmark::State &state)
{
    const StudyResult &r = study();
    for (auto _ : state)
        benchmark::DoNotOptimize(r.avgProgramImprovement());
    state.counters["program_avg_pct"] =
        100.0 * r.avgProgramImprovement();
    state.counters["phase_avg_pct"] = 100.0 * r.avgPhaseImprovement();
    state.counters["benchmarks"] =
        static_cast<double>(r.benchmarks.size());
}
BENCHMARK(BM_StudyAverages)->Iterations(1);

} // namespace

int
main(int argc, char **argv)
{
    printFigure6AndTable9();
    return runRegisteredBenchmarks(argc, argv);
}
