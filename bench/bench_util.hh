/**
 * @file
 * Shared helpers for the two host-throughput bench binaries
 * (bench_sim_throughput, bench_cmp_scaling): a process CPU clock, the
 * report banner and the google-benchmark tail. The paper's tables and
 * figures come from examples/repro.cpp.
 */

#ifndef GALS_BENCH_BENCH_UTIL_HH
#define GALS_BENCH_BENCH_UTIL_HH

#include <benchmark/benchmark.h>

#include <cstdio>
#include <ctime>

namespace gals
{

/** Process CPU seconds (sums across threads; immune to co-runner
 * contention, which makes it the stable column on shared hosts). */
inline double
cpuProcessSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Banner heading the binary's report, before its micro-benchmarks. */
inline void
benchBanner(const char *experiment, const char *paper_note)
{
    std::printf("==================================================="
                "=========================\n");
    std::printf("%s\n", experiment);
    std::printf("paper reference: %s\n", paper_note);
    std::printf("==================================================="
                "=========================\n");
}

/**
 * Standard head: parse google-benchmark's flags before the binary
 * does any work (--help prints the usage and exits). Returns false
 * after reporting an unrecognized flag.
 */
inline bool
parseBenchmarkFlags(int &argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    return !benchmark::ReportUnrecognizedArguments(argc, argv);
}

/** Standard tail: run registered google-benchmark measurements. */
inline int
runRegisteredBenchmarks()
{
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

} // namespace gals

#endif // GALS_BENCH_BENCH_UTIL_HH
