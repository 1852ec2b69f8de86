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

/**
 * Run `workload` on `machine`; returns window statistics. `kernel`
 * picks the scheduler kernel, and a non-zero `invariant_interval`
 * runs deep structural invariant checks every that many front-end
 * steps. The differential harness runs both kernels to pin the event
 * kernel bit-identical to the reference oracle; see docs/testing.md.
 */
RunStats simulate(const MachineConfig &machine,
                  const WorkloadParams &workload,
                  Kernel kernel = Kernel::EventDriven,
                  std::uint32_t invariant_interval = 0);

/** Measured window runtime in nanoseconds. */
double runtimeNs(const RunStats &stats);

} // namespace gals

#endif // GALS_SIM_SIMULATION_HH
