/**
 * @file
 * The GALS chip multiprocessor: N cores (1..kMaxCores), each
 * contributing its four domain units to one shared domain table with
 * per-core clocks and PLL reconfiguration, composed around a shared
 * banked L2 behind the cross-core interconnect port.
 *
 * The chip is the simulator's one composition root, for one core or
 * many: a flat clock array (global domain index = core * kNumDomains
 * + local), one WakeFabric, one DomainScheduler stepping all 4N
 * domains in the reference tie-break order (time, then lowest global
 * index), and per-core EpochBumpPorts (grid epochs are per core — a
 * PLL re-lock stales only the landing core's memoized extrapolations;
 * the shared L2/memory level is analytic in raw picoseconds and
 * grid-free).
 *
 * A single-core run (sim/simulation.hh's simulate()) is a one-core
 * chip: the interconnect arbitrates only across cores, so with one
 * core the bank knobs (banks, fill slots, occupancy, coherence delay)
 * are inert.
 *
 * Multiprogrammed runs give each core its own workload (and its own
 * workload RNG stream, keyed so core 0 draws the single-core stream
 * exactly); a finished core halts while the others complete their
 * windows.
 */

#ifndef GALS_CMP_CHIP_HH
#define GALS_CMP_CHIP_HH

#include <memory>
#include <vector>

#include "cache/shared_l2.hh"
#include "clock/clock.hh"
#include "cmp/core.hh"
#include "core/scheduler.hh"

namespace gals
{

/** Chip description: the per-core machine plus the shared level. */
struct ChipConfig
{
    /** Machine description every core is built from. */
    MachineConfig machine;
    /** Cores on the chip (1..kMaxCores). */
    int cores = 1;
    /** Shared-L2 banking (line-interleaved; a power of two). */
    int l2_banks = 4;
    /** Per-bank in-flight fill slots arbitrated across cores
     * (0 = unbounded). */
    int l2_bank_mshrs = 4;
    /** Bank busy window per request for cross-core arbitration. */
    Tick l2_bank_occupancy_ps = 600;
    /** Cross-core coherence latency: an invalidation published at t
     * delivers (and an ownership transfer settles) at t + this.
     * Active only when some workload declares a shared region. */
    Tick coh_delay_ps = 24'000;
};

/** Every ChipConfig field (common/types.hh). */
template <FieldsOf<ChipConfig> C, class F>
void
forEachField(C &c, F &&f)
{
    auto &[machine, cores, banks, bmshr, occ, coh] = c;
    f("machine", machine); f("cores", cores); f("banks", banks);
    f("bmshr", bmshr); f("occ", occ); f("coh", coh);
}

/** Results of one chip run: per-core windows + chip-level totals. */
struct ChipRunStats
{
    /** Per-core measured-window statistics (suite order). */
    std::vector<RunStats> cores;

    // Chip-level aggregation.
    std::uint64_t total_committed = 0;
    /** Longest per-core window (the multiprogrammed makespan). */
    Tick makespan_ps = 0;
    /** Shared-L2 traffic over the whole run (all cores, lifetime). */
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_misses = 0;
    // Interconnect behavior (lifetime).
    std::uint64_t bank_conflicts = 0;
    std::uint64_t bank_mshr_waits = 0;
    std::uint64_t fill_merges = 0;
    // Coherence traffic (lifetime).
    std::uint64_t invalidations = 0;
    std::uint64_t ownership_transfers = 0;

    /** Chip throughput: committed instructions per makespan ns. */
    double
    throughputInstrsPerNs() const
    {
        return makespan_ps
                   ? static_cast<double>(total_committed) /
                         (static_cast<double>(makespan_ps) / 1000.0)
                   : 0.0;
    }
};

/** Every ChipRunStats field, in payload order (common/types.hh). */
template <FieldsOf<ChipRunStats> S, class F>
void
forEachField(S &s, F &&f)
{
    auto &[cores, total_committed, makespan_ps, l2_accesses, l2_misses,
           bank_conflicts, bank_mshr_waits, fill_merges, invalidations,
           ownership_transfers] = s;
    f("cores", cores); f("total_committed", total_committed);
    f("makespan_ps", makespan_ps); f("l2_accesses", l2_accesses);
    f("l2_misses", l2_misses); f("bank_conflicts", bank_conflicts);
    f("bank_mshr_waits", bank_mshr_waits); f("fill_merges", fill_merges);
    f("invalidations", invalidations);
    f("ownership_transfers", ownership_transfers);
}

/** One configured chip executing one workload per core. */
class Chip
{
  public:
    /** `workloads.size()` must equal `config.cores`; use
     * multiprogrammedMix (workload/suite.hh) to build mixes whose
     * per-core RNG streams are independent. */
    Chip(const ChipConfig &config,
         const std::vector<WorkloadParams> &workloads,
         Kernel kernel = Kernel::EventDriven);

    /** Run every core's warmup + measured window; return per-core and
     * chip-level statistics. */
    ChipRunStats run();

    /** Deep structural invariant checks on every core (see
     * Core::setInvariantCheckInterval). */
    void setInvariantCheckInterval(std::uint32_t every);

    Core &core(int i) { return *cores_[static_cast<size_t>(i)]; }

  private:
    ChipConfig cfg_;
    std::vector<Clock> clocks_;
    WakeFabric fabric_;
    SharedL2 l2_;
    InterconnectPort icp_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<Domain *> domain_table_;
    std::vector<EpochBumpPort *> epoch_table_;
    DomainScheduler scheduler_;

    const Kernel kernel_;
};

} // namespace gals

#endif // GALS_CMP_CHIP_HH
