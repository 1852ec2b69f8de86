/**
 * @file
 * The PLL-timed reconfiguration unit.
 *
 * Domain controllers (attached per domain unit) decide *what* to
 * change; this unit owns *how* a change lands: the per-domain PLLs,
 * the pending-apply slots, the downsize-early/upsize-late rule around
 * the re-lock window, and the trace of applied changes. Structure
 * applications are dispatched to the owning domain unit, which
 * resizes its own hardware.
 */

#ifndef GALS_CORE_RECONFIG_HH
#define GALS_CORE_RECONFIG_HH

#include <array>
#include <cstdint>

#include "clock/pll.hh"
#include "common/types.hh"
#include "control/reconfig_trace.hh"
#include "core/domain.hh"
#include "core/machine_config.hh"
#include "core/ports.hh"

namespace gals
{

/** Applies structure changes under PLL re-lock timing. */
class ReconfigUnit
{
  public:
    ReconfigUnit(const MachineConfig &cfg, AdaptiveConfig &cur,
                 CoreTiming &timing, ReclockPort &reclock);

    /** Wire the core's domain units, in DomainId order: structure
     * applications dispatch to them (the composition root calls this
     * once). */
    void attachDomains(const std::array<Domain *, kNumDomains> &domains)
    {
        domains_ = domains;
    }

    /** The owning core's global domain-index base (core * 4): where
     * this unit's decisions land in the event trace (obs/trace.hh).
     * Purely observational; defaults to core 0's base. */
    void setTraceBase(int gd_base) { trace_base_ = gd_base; }

    /**
     * A controller asks for `s` to become configuration `target`.
     * Ignored while the owning domain's PLL is busy or a change is
     * already pending. Runs inside the front end's step at `now`
     * (every controller is sampled there); `committed` stamps the
     * trace.
     */
    void request(Structure s, int target, Tick now,
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
    void apply(Structure s, int target);

    const MachineConfig &cfg_;
    AdaptiveConfig &cur_cfg_;
    CoreTiming &timing_;
    ReclockPort &reclock_;
    std::array<Pll, 4> plls_;
    std::array<PendingApply, 4> pending_;
    ReconfigTrace trace_;
    int trace_base_ = 0;
    std::array<Domain *, kNumDomains> domains_{};
};

} // namespace gals

#endif // GALS_CORE_RECONFIG_HH
