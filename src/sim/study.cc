#include "sim/study.hh"

#include "common/logging.hh"
#include "sim/parallel.hh"
#include "sim/result_store.hh"
#include "sim/simulation.hh"

namespace gals
{

double
StudyResult::avgProgramImprovement() const
{
    if (benchmarks.empty())
        return 0.0;
    double sum = 0.0;
    for (const BenchmarkResult &r : benchmarks)
        sum += r.programImprovement();
    return sum / static_cast<double>(benchmarks.size());
}

double
StudyResult::avgPhaseImprovement() const
{
    if (benchmarks.empty())
        return 0.0;
    double sum = 0.0;
    for (const BenchmarkResult &r : benchmarks)
        sum += r.phaseImprovement();
    return sum / static_cast<double>(benchmarks.size());
}

std::array<int, 4>
StudyResult::distribution(Structure s) const
{
    std::array<int, 4> d{};
    for (const BenchmarkResult &r : benchmarks)
        ++d[static_cast<size_t>(r.program_cfg[s])];
    return d;
}

StudyResult
runStudy(const std::vector<WorkloadParams> &suite, SweepMode mode,
         bool verbose)
{
    StudyResult out;
    out.mode = mode;
    out.benchmarks.resize(suite.size());

    MachineConfig sync = MachineConfig::bestSynchronous();
    MachineConfig phase = MachineConfig::mcdPhaseAdaptive();

    // Parallel across benchmarks; the per-benchmark sweep inside
    // findBestAdaptive stays serial to bound thread fan-out. Each row
    // is a deterministic function of its benchmark alone, so the
    // thread count never changes any value.
    parallelFor(suite.size(), [&](size_t i) {
        const WorkloadParams &wl = suite[i];
        BenchmarkResult r;
        r.name = wl.name;
        r.suite = wl.suite;

        // All three study legs are result-store leaves (cache hits
        // with a result store open, plain simulate() otherwise).
        r.sync_ns = runtimeNs(cachedSimulate(sync, wl));

        ProgramAdaptiveResult pa = findBestAdaptive(wl, mode);
        r.program_ns = runtimeNs(pa.best_stats);
        r.program_cfg = pa.best;
        r.runs = pa.runs_performed + 2;

        r.phase_stats = cachedSimulate(phase, wl);
        r.phase_ns = runtimeNs(r.phase_stats);

        out.benchmarks[i] = std::move(r);
    });

    for (const BenchmarkResult &r : out.benchmarks) {
        out.total_runs += r.runs;
        if (verbose) {
            inform("%-18s sync %9.0fns  program %9.0fns (%+5.1f%%, %s)"
                   "  phase %9.0fns (%+5.1f%%)",
                   r.name.c_str(), r.sync_ns, r.program_ns,
                   100.0 * r.programImprovement(),
                   r.program_cfg.str().c_str(), r.phase_ns,
                   100.0 * r.phaseImprovement());
        }
    }
    return out;
}

} // namespace gals
