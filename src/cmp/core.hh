/**
 * @file
 * One core of the GALS chip: the per-core composition unit.
 *
 * A Core owns the four domain units (front end, integer cluster,
 * floating-point cluster, load/store unit), their typed port set, the
 * per-core clock fabric view (CoreTiming + WakeHub window into the
 * chip's WakeFabric) and the ReconfigUnit: the phase controller and
 * its PLLs. It does *not* own clocks, the L2 or the step loop: the
 * Chip (cmp/chip.hh), the one composition root, owns the flat clock
 * array, the WakeFabric, the shared L2 behind the interconnect port
 * and the DomainScheduler, and registers each core's domain units
 * and epoch port with them.
 *
 * Core `c`'s domains occupy global indices
 * [c*kNumDomains, (c+1)*kNumDomains) — core-major, local order
 * preserved — which is exactly what makes the publication-order rule
 * compose across cores (see core/ports.hh).
 */

#ifndef GALS_CMP_CORE_HH
#define GALS_CMP_CORE_HH

#include <array>

#include "clock/clock.hh"
#include "core/domain.hh"
#include "core/front_end.hh"
#include "core/issue_cluster.hh"
#include "core/lsu.hh"
#include "core/machine_config.hh"
#include "core/ports.hh"
#include "core/reconfig.hh"
#include "core/run_stats.hh"
#include "core/scheduler.hh"

namespace gals
{

/** Per-domain clocks for one configured core: exact grids, the same
 * for every core of a chip. */
std::array<Clock, 4> makeCoreClocks(const MachineConfig &cfg);

/** One core executing one synthetic benchmark. */
class Core
{
  public:
    /**
     * @param config     the machine description (copied).
     * @param wl         this core's workload (copied).
     * @param fabric     the chip-level wake fabric.
     * @param clocks     this core's four clocks (owned by the root,
     *                   contiguous at global base core_index*4).
     * @param core_index position in the chip.
     * @param icp        the chip's shared-L2 interconnect.
     */
    Core(const MachineConfig &config, const WorkloadParams &wl,
         WakeFabric &fabric, Clock *clocks, int core_index,
         InterconnectPort &icp);

    // ------------------------------------------------------------------
    // Composition-root wiring.
    // ------------------------------------------------------------------
    Domain *domainUnit(int local)
    {
        return domain_table_[static_cast<size_t>(local)];
    }
    EpochBumpPort &epochPort() { return epoch_port_; }

    // ------------------------------------------------------------------
    // Progress, measurement, results.
    // ------------------------------------------------------------------
    /** Stable reference the scheduler's stop condition polls. */
    const std::uint64_t &committedRef() const
    {
        return fe_.committedRef();
    }
    std::uint64_t targetInstrs() const
    {
        return wl_params_.warmup_instrs + wl_params_.sim_instrs;
    }
    /** The scheduler stop condition for this core's window: the
     * scheduler halts the core once its committed count reaches the
     * warmup + measured target. */
    CoreProgress progressStop() const;

    /** Measured-window statistics (after a run). */
    RunStats collectStats() const;

    /** Current structure configuration (changes in phase mode). */
    const AdaptiveConfig &currentConfig() const { return cur_cfg_; }

    /** The domain units (read-only: telemetry folds). */
    const LoadStoreUnit &lsu() const { return lsu_; }
    const IssueCluster &intCluster() const { return int_cluster_; }
    const IssueCluster &fpCluster() const { return fp_cluster_; }

    /**
     * Run deep structural invariant checks (rename map vs free lists,
     * ROB age order, LSQ index consistency, issue-queue wakeup
     * structures) every `every` front-end steps; 0 disables (the
     * default). The differential harness turns this on.
     */
    void setInvariantCheckInterval(std::uint32_t every);

    /** Panics with a description on any violated invariant. */
    void validateInvariants() const;

  private:
    /**
     * The lifetime counters behind RunStats' window fields (every
     * std::uint64_t field) as they read at `now`; every other field
     * is left empty. The window is the difference of two of these.
     */
    RunStats counters(Tick now) const;

    MachineConfig cfg_;
    WorkloadParams wl_params_;
    AdaptiveConfig cur_cfg_;
    int core_index_;

    CoreTiming timing_;
    WakeHub hub_;

    // Domain units (each owns its structures).
    FrontEnd fe_;
    IssueCluster int_cluster_;
    IssueCluster fp_cluster_;
    LoadStoreUnit lsu_;

    // Cross-domain port layer and shared services.
    CorePorts ports_;
    EpochBumpPort epoch_port_;
    ReconfigUnit reconfig_;

    std::array<Domain *, 4> domain_table_;

    /** counters() when the measured window opened. */
    RunStats base_;
};

} // namespace gals

#endif // GALS_CMP_CORE_HH
