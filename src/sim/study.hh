/**
 * @file
 * The paper's headline experiment (Figure 6 + Table 9): for every
 * benchmark, compare the best fully synchronous machine against the
 * Program-Adaptive MCD (best whole-program configuration found by
 * sweep) and the Phase-Adaptive MCD (on-line controllers).
 */

#ifndef GALS_SIM_STUDY_HH
#define GALS_SIM_STUDY_HH

#include <array>
#include <string>
#include <vector>

#include "core/machine_config.hh"
#include "core/run_stats.hh"
#include "sim/sweep.hh"
#include "workload/params.hh"

namespace gals
{

/** Per-benchmark outcome of the three-way comparison. */
struct BenchmarkResult
{
    std::string name;
    std::string suite;

    double sync_ns = 0.0;
    double program_ns = 0.0;
    double phase_ns = 0.0;
    AdaptiveConfig program_cfg;
    RunStats phase_stats;
    /** Simulations spent on this row (sweep + sync + phase). */
    std::uint64_t runs = 0;

    /** Runtime improvement of Program-Adaptive over synchronous. */
    double
    programImprovement() const
    {
        return program_ns > 0.0 ? sync_ns / program_ns - 1.0 : 0.0;
    }
    /** Runtime improvement of Phase-Adaptive over synchronous. */
    double
    phaseImprovement() const
    {
        return phase_ns > 0.0 ? sync_ns / phase_ns - 1.0 : 0.0;
    }
};

/** BenchmarkResult's fields in study-JSON row order (common/types.hh);
 * phase_stats is bound but not visited: the reports read it, the rows
 * do not carry it. */
template <FieldsOf<BenchmarkResult> R, class F>
void
forEachField(R &r, F &&f)
{
    auto &[name, suite, sync_ns, program_ns, phase_ns, program_cfg,
           phase_stats, runs] = r;
    f("name", name); f("suite", suite); f("sync_ns", sync_ns);
    f("program_ns", program_ns); f("phase_ns", phase_ns);
    f("cfg", program_cfg); f("runs", runs);
}

/** Whole-suite study outcome. */
struct StudyResult
{
    std::vector<BenchmarkResult> benchmarks;
    SweepMode mode = SweepMode::Staged;
    std::uint64_t total_runs = 0;

    double avgProgramImprovement() const;
    double avgPhaseImprovement() const;

    /**
     * Table 9: how many benchmarks chose each configuration index of
     * structure `s` in Program-Adaptive mode.
     */
    std::array<int, 4> distribution(Structure s) const;
};

/**
 * Run the full comparison over `suite`.
 *
 * @param suite   benchmarks to evaluate.
 * @param mode    Program-Adaptive search strategy.
 * @param verbose emit one progress line per benchmark.
 */
StudyResult runStudy(const std::vector<WorkloadParams> &suite,
                     SweepMode mode, bool verbose);

} // namespace gals

#endif // GALS_SIM_STUDY_HH
