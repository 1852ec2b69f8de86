/**
 * @file
 * Single-run driver: execute one machine configuration against one
 * synthetic benchmark and return the measured-window statistics. A
 * single-core run is a one-core Chip (cmp/chip.hh) at the default
 * shared-L2 knobs.
 */

#ifndef GALS_SIM_SIMULATION_HH
#define GALS_SIM_SIMULATION_HH

#include "core/machine_config.hh"
#include "core/run_stats.hh"
#include "core/scheduler.hh"
#include "workload/params.hh"

namespace gals
{

/** Run `workload` on `machine`; returns window statistics. */
RunStats simulate(const MachineConfig &machine,
                  const WorkloadParams &workload);

/**
 * Run with an explicit scheduler kernel (overrides GALS_KERNEL) and,
 * when `invariant_interval` is non-zero, deep structural invariant
 * checks every that many front-end steps. The differential harness
 * uses this to pin the event kernel bit-identical to the reference
 * oracle; see docs/testing.md.
 */
RunStats simulateWithKernel(const MachineConfig &machine,
                            const WorkloadParams &workload,
                            Kernel kernel,
                            std::uint32_t invariant_interval = 0);

/** Measured window runtime in nanoseconds. */
double runtimeNs(const RunStats &stats);

} // namespace gals

#endif // GALS_SIM_SIMULATION_HH
