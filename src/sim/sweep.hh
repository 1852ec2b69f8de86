/**
 * @file
 * Configuration-space search.
 *
 * The paper finds Program-Adaptive configurations by exhaustively
 * simulating all 4x4x4x4 = 256 adaptive MCD configurations per
 * application, and the "best overall" synchronous baseline by
 * sweeping 1,024 synchronous design points across the suite (~300
 * CPU-months). We reproduce both sweeps at scaled windows; because
 * that is still thousands of runs, a staged-greedy mode (optimize one
 * structure at a time, in dependence order) is the default and the
 * exhaustive mode is selected by passing SweepMode::Exhaustive
 * (`sweep_cli --mode study --full`).
 */

#ifndef GALS_SIM_SWEEP_HH
#define GALS_SIM_SWEEP_HH

#include <cstdint>
#include <vector>

#include "core/machine_config.hh"
#include "core/run_stats.hh"
#include "workload/params.hh"

namespace gals
{

/** Search strategy for the per-application adaptive sweep. */
enum class SweepMode
{
    Staged,     //!< greedy per-structure search (~13 runs).
    Exhaustive, //!< all 256 configurations.
};

/** Every adaptive configuration (256 points). */
std::vector<AdaptiveConfig> allAdaptiveConfigs();

/** Outcome of the per-application Program-Adaptive search. */
struct ProgramAdaptiveResult
{
    AdaptiveConfig best;
    RunStats best_stats;
    std::uint64_t runs_performed = 0;
};

/**
 * Find the whole-program adaptive MCD configuration minimizing the
 * measured-window runtime for one benchmark.
 */
ProgramAdaptiveResult findBestAdaptive(const WorkloadParams &wl,
                                       SweepMode mode);

/** One synchronous design point and its suite-average slowdown. */
struct SyncDesignPoint
{
    int icache_opt;
    int dcache;
    int iq_int;
    int iq_fp;
    /**
     * Geometric-mean runtime across the evaluated suite, normalized
     * to the best design point (1.0 = best overall).
     */
    double norm_runtime;
};

/**
 * Sweep synchronous design points across a suite and rank them by
 * geometric-mean runtime (paper §4's "best overall" search).
 *
 * @param suite      benchmarks to average over.
 * @param full       all 1,024 points when true; a 64-point cross of
 *                   the 16 I-cache options and 4 cache pairs (issue
 *                   queues held at 16 entries, which the full sweep
 *                   confirms) otherwise.
 * @return design points sorted best-first.
 */
std::vector<SyncDesignPoint>
sweepSynchronous(const std::vector<WorkloadParams> &suite, bool full);

/**
 * One synchronous design point with its raw per-benchmark runtimes,
 * before sweepSynchronous normalizes across points.
 */
struct SyncPointRuntimes
{
    int icache_opt = 0;
    int dcache = 0;
    int iq_int = 0;
    int iq_fp = 0;
    std::vector<double> runtime_ns; //!< one entry per suite bench.
};

/** SyncPointRuntimes' fields in sweep-JSON row order
 * (common/types.hh). */
template <FieldsOf<SyncPointRuntimes> P, class F>
void
forEachField(P &p, F &&f)
{
    auto &[icache_opt, dcache, iq_int, iq_fp, runtime_ns] = p;
    f("icache_opt", icache_opt); f("dcache", dcache); f("iq_int", iq_int);
    f("iq_fp", iq_fp); f("runtime_ns", runtime_ns);
}

/**
 * The raw synchronous sweep: one row per design point, in sweep
 * order. Every simulation is deterministic per (point, benchmark),
 * so the thread count never changes any value.
 */
std::vector<SyncPointRuntimes>
sweepSynchronousRaw(const std::vector<WorkloadParams> &suite,
                    bool full);

/** One point of the 256-configuration exhaustive Program-Adaptive
 * sweep. */
struct AdaptivePointRuntime
{
    AdaptiveConfig cfg;
    double runtime_ns = 0.0;
};

/** AdaptivePointRuntime's fields in sweep-JSON row order
 * (common/types.hh). */
template <FieldsOf<AdaptivePointRuntime> P, class F>
void
forEachField(P &p, F &&f)
{
    auto &[cfg, runtime_ns] = p;
    f("cfg", cfg); f("runtime_ns", runtime_ns);
}

/**
 * The raw exhaustive Program-Adaptive sweep for one benchmark: one
 * row per allAdaptiveConfigs() entry, in that order. The argmin over
 * the rows is exactly findBestAdaptive(wl, SweepMode::Exhaustive)'s
 * choice (ties resolve to the lowest point index in both).
 */
std::vector<AdaptivePointRuntime>
sweepAdaptiveRaw(const WorkloadParams &wl);

/**
 * One point of the chip-multiprocessor sweep: a core count x suite
 * rotation, run as one multiprogrammed chip (multiprogrammedMix
 * fills the cores round-robin from the rotation) — one row of
 * `sweep_cli --mode cmp`.
 */
struct CmpPointResult
{
    int cores = 1;
    int rotation = 0; //!< suite index the mix starts at.
    /** Chip makespan (longest per-core window), ns. */
    double chip_ns = 0.0;
    /** Per-core measured-window runtime, ns. */
    std::vector<double> core_ns;
    /** Shared-L2 misses and cross-core bank conflicts (lifetime). */
    std::uint64_t l2_misses = 0;
    std::uint64_t bank_conflicts = 0;
};

/** CmpPointResult's fields in sweep-JSON row order, which puts the
 * per-core list last (common/types.hh). */
template <FieldsOf<CmpPointResult> P, class F>
void
forEachField(P &p, F &&f)
{
    auto &[cores, rotation, chip_ns, core_ns, l2_misses, bank_conflicts] =
        p;
    f("cores", cores); f("rotation", rotation); f("chip_ns", chip_ns);
    f("l2_misses", l2_misses); f("bank_conflicts", bank_conflicts);
    f("core_ns", core_ns);
}

/**
 * The raw multiprogrammed CMP sweep over `suite`: one chip run per
 * (core count, rotation) pair, core counts from `core_counts`,
 * rotations over the whole suite, in that nesting order. Every chip
 * run is a deterministic function of its point alone.
 */
std::vector<CmpPointResult>
sweepCmpRaw(const std::vector<WorkloadParams> &suite,
            const std::vector<int> &core_counts);

} // namespace gals

#endif // GALS_SIM_SWEEP_HH
