/**
 * @file
 * Design-space sweep driver.
 *
 * Runs one sweep on scoped worker threads, started and joined by each
 * parallelFor call (sim/parallel.hh, capped by GALS_THREADS), and
 * writes its rows as line-oriented JSON.
 *
 * Usage:
 *   sweep_cli [--mode study|sync|adaptive|cmp] [--out FILE]
 *             [--benchmarks N] [--bench NAME] [--cores LIST]
 *             [--sim INSTRS] [--warmup INSTRS] [--cache-dir DIR]
 *             [--full] [--verbose]
 *
 * `--mode study` runs the paper's Figure 6 / Table 9 study with the
 * staged Program-Adaptive search; `--full` makes that search the
 * exhaustive 256-point one. `--mode sync` sweeps the 64-point cross
 * of synchronous design points, or all 1,024 with `--full`.
 *
 * `--mode adaptive` runs the 256-point exhaustive Program-Adaptive
 * sweep for one benchmark (`--bench`, default the suite's first).
 *
 * `--mode cmp` runs the multiprogrammed chip-multiprocessor sweep:
 * one chip per (core count, suite rotation) pair. `--cores` is a
 * comma-separated core-count list (default "1,2,4,8,16" — the
 * power-of-two ladder up to kMaxCores).
 *
 * `--benchmarks N` restricts the suite to its first N entries and
 * `--sim/--warmup` shrink the measured window (defaults keep the
 * suite's own windows). `--out FILE` is opened before any simulation,
 * so an unwritable path fails at once instead of after the sweep.
 *
 * `--cache-dir DIR` enables the content-addressed result store
 * (sim/result_store.hh) on DIR: previously computed points — by any
 * earlier run or code version-compatible PR — are served from the
 * store, and each fresh point is checkpointed there the moment it
 * completes, so a killed run resumes instead of recomputing. Cached
 * rows are value-exact, so output stays byte-identical to a
 * cache-off run. A stats line
 * ("result-store: H hits, M misses ...") goes to stderr when the
 * store is active. A DIR that cannot be created or written is a
 * fatal error before any simulation. Without `--cache-dir` the store
 * stays off.
 *
 * Tracing and metrics are the process-wide GALS_TRACE and GALS_METRICS
 * files (docs/observability.md); the metrics file carries the result
 * store's `result_store.*` counters.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "core/ports.hh"
#include "obs/trace.hh"
#include "sim/report.hh"
#include "sim/result_store.hh"
#include "sim/study.hh"
#include "sim/sweep.hh"
#include "workload/suite.hh"

using namespace gals;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: sweep_cli [--mode study|sync|adaptive|cmp]\n"
        "                 [--out FILE]\n"
        "                 [--benchmarks N] [--bench NAME]\n"
        "                 [--cores LIST] [--sim INSTRS]\n"
        "                 [--warmup INSTRS] [--cache-dir DIR]\n"
        "                 [--full] [--verbose]\n");
    return 2;
}

/** Parse a comma-separated core-count list ("1,2,4"); a bad item
 * exits with status 2. */
std::vector<int>
parseCoreList(const std::string &text)
{
    std::vector<int> out;
    std::istringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        out.push_back(static_cast<int>(
            parseIntegerArg("--cores", item.c_str(), 1, kMaxCores)));
    }
    if (out.empty()) {
        std::fprintf(stderr, "--cores: empty core-count list\n");
        std::exit(2);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode = "study";
    std::string bench;
    std::string cores = "1,2,4,8,16";
    std::string out_path;
    std::string cache_dir;
    size_t benchmarks = 0; // 0 = whole suite.
    std::uint64_t sim_instrs = 0;
    std::uint64_t warmup_instrs = ~0ULL;
    bool full = false;
    bool verbose = false;

    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        auto value = [&]() -> const char * {
            if (a + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++a];
        };
        if (arg == "--mode") {
            mode = value();
        } else if (arg == "--out") {
            out_path = value();
        } else if (arg == "--benchmarks") {
            benchmarks = static_cast<size_t>(parseIntegerArg(
                "--benchmarks", value(), 1,
                static_cast<long long>(benchmarkSuite().size())));
        } else if (arg == "--bench") {
            bench = value();
        } else if (arg == "--cores") {
            cores = value();
        } else if (arg == "--sim") {
            sim_instrs = static_cast<std::uint64_t>(
                parseIntegerArg("--sim", value(), 1, LLONG_MAX));
        } else if (arg == "--warmup") {
            warmup_instrs = static_cast<std::uint64_t>(
                parseIntegerArg("--warmup", value(), 0, LLONG_MAX));
        } else if (arg == "--cache-dir") {
            cache_dir = value();
        } else if (arg == "--full") {
            full = true;
        } else if (arg == "--verbose") {
            verbose = true;
        } else {
            return usage();
        }
    }

    // Open --out before simulating anything: a bad path is a user
    // error that must not cost a whole sweep first.
    std::ofstream out_file;
    if (!out_path.empty()) {
        out_file.open(out_path, std::ios::binary);
        if (!out_file)
            fatal("cannot write '%s'", out_path.c_str());
    }

    // Arm GALS_TRACE and GALS_METRICS now: a bad path warns before
    // the sweep, and a fully warm sweep that runs no chip still
    // writes its metrics.
    obs::ensureInitFromEnv();

    // --cache-dir enables the content-addressed result store for
    // every leaf simulation below; an unusable DIR is a user error.
    if (!cache_dir.empty()) {
        configureResultStore(cache_dir);
        if (!resultStore().enabled())
            fatal("cannot use '%s' as a result cache", cache_dir.c_str());
    }

    std::vector<WorkloadParams> suite = benchmarkSuite();
    if (benchmarks != 0 && benchmarks < suite.size())
        suite.resize(benchmarks);
    for (WorkloadParams &wl : suite) {
        if (sim_instrs != 0)
            wl.sim_instrs = sim_instrs;
        if (warmup_instrs != ~0ULL)
            wl.warmup_instrs = warmup_instrs;
    }

    std::string json;
    if (mode == "study") {
        SweepMode search = full ? SweepMode::Exhaustive
                                : SweepMode::Staged;
        json = studyJson(runStudy(suite, search, verbose));
    } else if (mode == "sync") {
        json = syncSweepJson(sweepSynchronousRaw(suite, full),
                             suite.size(), full);
    } else if (mode == "adaptive") {
        // One benchmark over the 256 adaptive configuration points
        // (the suite restrictions/window overrides above apply to it
        // like to any other sweep).
        WorkloadParams wl = suite.front();
        if (!bench.empty()) {
            wl = findBenchmark(bench);
            if (sim_instrs != 0)
                wl.sim_instrs = sim_instrs;
            if (warmup_instrs != ~0ULL)
                wl.warmup_instrs = warmup_instrs;
        }
        json = adaptiveSweepJson(sweepAdaptiveRaw(wl), wl.name);
    } else if (mode == "cmp") {
        std::vector<int> core_counts = parseCoreList(cores);
        std::vector<CmpPointResult> rows =
            sweepCmpRaw(suite, core_counts);
        if (verbose)
            std::fputs(renderCmpSummary(rows).c_str(), stdout);
        json = cmpSweepJson(rows, suite.size(), core_counts);
    } else {
        return usage();
    }

    if (out_path.empty()) {
        std::fputs(json.c_str(), stdout);
    } else {
        out_file << json;
        if (!out_file.flush())
            fatal("cannot write '%s'", out_path.c_str());
        std::printf("wrote %s\n", out_path.c_str());
    }

    // Hit/miss telemetry on stderr (stdout carries the JSON): the CI
    // warm-cache gate parses this line for "0 misses".
    if (resultStore().enabled()) {
        std::fprintf(stderr, "%s\n",
                     resultStore().statsLine().c_str());
    }

    // The store's counters join the metrics registry, which
    // GALS_METRICS writes at exit (obs/metrics.hh).
    resultStore().publishMetrics();
    return 0;
}
