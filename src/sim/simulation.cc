#include "sim/simulation.hh"

#include <utility>

#include "cmp/chip.hh"
#include "obs/metrics.hh"

namespace gals
{

RunStats
simulate(const MachineConfig &machine, const WorkloadParams &workload)
{
    RunStats stats = simulateWithKernel(machine, workload, kernelFromEnv());
    // Process-lifetime run telemetry (obs/metrics.hh): one counter
    // bump per completed run, far off the simulated hot path.
    obs::MetricsRegistry::instance().add("sim.runs", 1);
    return stats;
}

RunStats
simulateWithKernel(const MachineConfig &machine,
                   const WorkloadParams &workload, Kernel kernel,
                   std::uint32_t invariant_interval)
{
    ChipConfig cc;
    cc.machine = machine;
    cc.cores = 1;
    Chip chip(cc, {workload});
    chip.setKernel(kernel);
    if (invariant_interval != 0)
        chip.setInvariantCheckInterval(invariant_interval);
    return std::move(chip.run().cores[0]);
}

double
runtimeNs(const RunStats &stats)
{
    return static_cast<double>(stats.time_ps) / 1000.0;
}

} // namespace gals
