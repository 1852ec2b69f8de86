/**
 * @file
 * perfbench driver: one workload per process. Prints one JSON line
 * on stdout (attempted/failed counts, stats digest, set-up time and
 * the metrics of the run's mode); perfbench/run.py builds it, samples
 * set-up time over several processes and prints the final result.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --out-dir DIR [--setup-only]
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "harness.hh"
#include "workloads.hh"

int
main(int argc, char **argv)
{
    const std::int64_t start_ns = perfbench::nowNs();

    std::string error;
    const std::optional<perfbench::Options> o = perfbench::parseArgs(
        std::vector<std::string>(argv + 1, argv + argc), error);
    if (!o) {
        std::fprintf(stderr,
                     "perfbench: %s\nusage: perfbench --workload "
                     "{suite_serial|fig6_study|cmp_chip} "
                     "--seed N --seconds S --trace 0|1 --out-dir DIR "
                     "[--setup-only]\n",
                     error.c_str());
        return 2;
    }

    // The simulator's environment knobs would change what is measured:
    // clear them (chips then run the sequential kernel) and pin the
    // sweep pool to four threads.
    for (const char *knob :
         {"GALS_CHIP_THREADS", "GALS_KERNEL", "GALS_METRICS",
          "GALS_RESULT_CACHE", "GALS_SHARDS", "GALS_SWEEP", "GALS_TRACE"})
        unsetenv(knob);
    setenv("GALS_THREADS", "4", 1);
    gals::setQuiet(true);

    try {
        const perfbench::Report r = perfbench::runWorkload(*o, start_ns);
        std::printf("%s\n", r.json(o->trace ? perfbench::kPerLayer
                                            : perfbench::kEndToEnd)
                                .c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
