/**
 * @file
 * The core's phase controller and PLL-timed reconfiguration unit.
 *
 * One unit per core owns every adaptive structure's decision path
 * (paper §3): the interval decisions (accounting-cache costs, §3.1;
 * ILP-tracker scores, §3.2), their hysteresis margins and persistence
 * votes, and how a change lands: the per-domain PLLs, the
 * pending-apply slots, the downsize-early/upsize-late rule around the
 * re-lock window, and the trace of applied changes. Structure
 * applications are dispatched to the owning domain unit, which
 * resizes its own hardware.
 *
 * Every decision runs inside the front end's step: retire observes
 * the cache-interval boundary (cacheInterval) and rename completes
 * the ILP tracker's windows (queueSample).
 */

#ifndef GALS_CORE_RECONFIG_HH
#define GALS_CORE_RECONFIG_HH

#include <array>
#include <cstdint>

#include "cache/accounting_cache.hh"
#include "clock/pll.hh"
#include "common/types.hh"
#include "control/ilp_tracker.hh"
#include "control/reconfig_trace.hh"
#include "core/domain.hh"
#include "core/machine_config.hh"
#include "core/ports.hh"

namespace gals
{

/** Decides and applies structure changes under PLL re-lock timing. */
class ReconfigUnit
{
  public:
    /**
     * `l1i`, `l1d` and `icp`'s slice for `core_index` are the caches
     * whose interval counts the cache decisions read and reset; the
     * event trace places this unit's decisions on core `core_index`'s
     * front-end track (obs/trace.hh).
     */
    ReconfigUnit(const MachineConfig &cfg, AdaptiveConfig &cur,
                 CoreTiming &timing, ReclockPort &reclock,
                 AccountingCache &l1i, AccountingCache &l1d,
                 InterconnectPort &icp, int core_index);

    /** Wire the core's domain units, in DomainId order: structure
     * applications dispatch to them (the composition root calls this
     * once). */
    void attachDomains(const std::array<Domain *, kNumDomains> &domains)
    {
        domains_ = domains;
    }

    /**
     * Cache-interval boundary: decide the I-cache and then the
     * D-cache pair from the interval's accounting-cache counts, start
     * the next interval (L1I, L1D and this core's L2 counts), then
     * vote the I-cache and then the D-cache pair.
     */
    void cacheInterval(Tick now, std::uint64_t committed);

    /** A completed ILP-tracker interval: vote the integer issue
     * queue, then the floating-point one. */
    void queueSample(const IlpSample &sample, Tick now,
                     std::uint64_t committed);

    /** Apply a pending (upsize) change once its re-lock completed.
     * Domains call this at the top of every step. */
    void applyPending(DomainId d, Tick now);

    const PendingApply &pending(DomainId d) const
    {
        return pending_[static_cast<size_t>(d)];
    }

    const ReconfigTrace &trace() const { return trace_; }

    /** Total PLL re-locks performed so far (RunStats). */
    std::uint64_t relocks() const;

  private:
    /** Persistence state of one structure's votes. */
    struct Damper
    {
        int target = -1;
        int count = 0;
    };

    /**
     * Persistence rule: request `proposal` for `s` once it has been
     * proposed for the structure's persistence count of consecutive
     * intervals. Proposing the current configuration clears the run.
     */
    void vote(Structure s, int proposal, Tick now,
              std::uint64_t committed);

    /**
     * Start the change of `s` to configuration `target`. Ignored
     * while the owning domain's PLL is busy or a change is already
     * pending; `committed` stamps the trace.
     */
    void request(Structure s, int target, Tick now,
                 std::uint64_t committed);

    void apply(Structure s, int target);

    const MachineConfig &cfg_;
    AdaptiveConfig &cur_cfg_;
    CoreTiming &timing_;
    ReclockPort &reclock_;
    AccountingCache &l1i_;
    AccountingCache &l1d_;
    InterconnectPort &icp_;
    const int core_index_;
    std::array<Damper, kNumStructures> dampers_{};
    std::array<Pll, 4> plls_;
    std::array<PendingApply, 4> pending_;
    ReconfigTrace trace_;
    std::array<Domain *, kNumDomains> domains_{};
};

} // namespace gals

#endif // GALS_CORE_RECONFIG_HH
