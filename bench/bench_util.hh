/**
 * @file
 * Shared helpers for the bench binaries: every binary prints its
 * paper table/figure reproduction in main() and then runs its
 * registered google-benchmark measurements.
 */

#ifndef GALS_BENCH_BENCH_UTIL_HH
#define GALS_BENCH_BENCH_UTIL_HH

#include <benchmark/benchmark.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <optional>

#include "common/logging.hh"
#include "common/parse.hh"

namespace gals
{

/** GALS_BENCHMARKS as a benchmark count, `fallback` when unset. Input
 * that is not a non-negative integer ("8x", "abc") warns and falls
 * back, the threadCountFromEnv contract. */
inline std::size_t
benchmarkCountFromEnv(std::size_t fallback)
{
    const char *env = std::getenv("GALS_BENCHMARKS");
    if (env == nullptr)
        return fallback;
    std::optional<long long> v = parseInteger(env, 0, LLONG_MAX);
    if (!v) {
        warn("GALS_BENCHMARKS=\"%s\" is not a non-negative integer; "
             "using the default",
             env);
        return fallback;
    }
    return static_cast<std::size_t>(*v);
}

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

/** Banner separating the reproduction report from the micro-bench. */
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

/** Standard tail: run registered google-benchmark measurements. */
inline int
runRegisteredBenchmarks(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

} // namespace gals

#endif // GALS_BENCH_BENCH_UTIL_HH
