/**
 * @file
 * The clock-domain unit abstraction of the GALS core.
 *
 * The processor is composed of four independently clocked domain
 * units (front end, integer cluster, floating-point cluster,
 * load/store unit). Each unit owns its structures, controllers and
 * sleep summary, and implements one `step()` per delivered clock
 * edge that returns its wake bound — the earliest tick at which it
 * could do observable work again. Units never touch each other's
 * wake state directly: all cross-domain publication goes through the
 * typed ports in core/ports.hh, which are the single owner of the
 * publication-order rule.
 *
 * `CoreTiming` is the shared clock fabric: the domain clocks, the
 * synchronizer rule between them, and the grid-change epoch that
 * tags every memoized grid extrapolation (see docs/kernel.md).
 */

#ifndef GALS_CORE_DOMAIN_HH
#define GALS_CORE_DOMAIN_HH

#include <array>
#include <cstdint>

#include "clock/clock.hh"
#include "clock/synchronizer.hh"
#include "common/types.hh"

namespace gals
{

/** A change of the domain's structure waiting for PLL lock
 * completion. */
struct PendingApply
{
    bool active = false;
    int target = 0;
    Tick apply_at = 0;
};

/** Persistence damper: act only on repeated agreeing decisions. */
struct Damper
{
    int target = -1;
    int count = 0;

    /** Returns true when `proposal` has persisted `need` times. */
    bool
    vote(int proposal, int current, int need)
    {
        if (proposal == current) {
            target = -1;
            count = 0;
            return false;
        }
        if (proposal == target) {
            ++count;
        } else {
            target = proposal;
            count = 1;
        }
        if (count >= need) {
            target = -1;
            count = 0;
            return true;
        }
        return false;
    }
};

/**
 * Shared clock fabric: per-domain clocks, the synchronizer rule, and
 * the grid-change epoch. Every domain unit and port holds a reference
 * to one instance; the scheduler advances the clocks and bumps the
 * epoch when a period change lands.
 */
class CoreTiming
{
  public:
    /** @param clocks this core's kNumDomains clocks (a chip stores
     *  all cores' clocks flat; each core's timing views its four). */
    CoreTiming(Clock *clocks, bool same_domain)
        : clocks_(clocks), same_domain_(same_domain)
    {}

    Clock &clock(DomainId d)
    {
        return clocks_[static_cast<size_t>(d)];
    }
    const Clock &clock(DomainId d) const
    {
        return clocks_[static_cast<size_t>(d)];
    }
    Clock &clock(int d) { return clocks_[static_cast<size_t>(d)]; }
    const Clock &clock(int d) const
    {
        return clocks_[static_cast<size_t>(d)];
    }

    /** When a value produced in `prod` is usable in `cons`. */
    Tick
    visibleAt(Tick produced, DomainId prod, DomainId cons) const
    {
        if (produced == 0)
            return 0;
        if (same_domain_ || prod == cons) {
            // Bypass within one clock: usable at the first edge at or
            // after production (with the same anti-wobble margin the
            // synchronizer applies; see clock/synchronizer.hh).
            return bypassVisibleAt(produced, clock(cons));
        }
        return syncVisibleAt(produced, clock(prod), clock(cons),
                             false);
    }

    /** Synchronizer crossing of a value produced at `t` in `prod`. */
    Tick
    crossingAt(Tick t, DomainId prod, DomainId cons) const
    {
        return syncVisibleAt(t, clock(prod), clock(cons),
                             same_domain_);
    }

    /**
     * Grid-change epoch: bumped whenever any domain clock applies a
     * period change. Tags every memoized grid extrapolation, all of
     * them per-domain wake state: the issue queues' ready times
     * (IssueCluster::iq_epoch_), the front end's line-fill memo and
     * the redirect resume memo. A domain's own step-end bound needs
     * no tag: the scheduler bumps the epoch only after the step and
     * then re-steps the domain at its next edge.
     */
    std::uint32_t epoch() const { return epoch_; }
    void bumpEpoch() { ++epoch_; }

  private:
    Clock *clocks_;
    bool same_domain_;
    std::uint32_t epoch_ = 1;
};

/**
 * One clock-domain unit. The scheduler steps the unit at each
 * delivered edge of its clock and, in the event kernel, parks it on
 * the bound it reports afterwards.
 */
class Domain
{
  public:
    Domain(DomainId id, CoreTiming &timing)
        : id_(id), timing_(timing)
    {}
    virtual ~Domain() = default;

    DomainId id() const { return id_; }

    /**
     * Execute this domain's work for the edge at `now` and return its
     * wake bound: the earliest tick at which it could do observable
     * work given its state right after stepping (summaries recorded
     * in-step); kTickMax parks the domain until a cross-domain port
     * re-arms it. Must be a lower bound: waking early is a wasted
     * no-op step, waking late would diverge from the reference
     * kernel (which ignores the value).
     */
    virtual Tick step(Tick now) = 0;

    /**
     * Resize the domain's own adaptive structure (kAdaptiveStructures)
     * to configuration `index`. Called by the ReconfigUnit after it
     * has recorded `index` in the core's AdaptiveConfig.
     */
    virtual void resizeStructure(int index) = 0;

    /** Attach the domain's pending-structure-change slot (wired by
     * the composition root before the first run). */
    void attachPending(const PendingApply *pending)
    {
        pending_ = pending;
    }

    /**
     * A raw wake bound clamped by the generic gates every domain
     * shares: a pending structure apply, and a scheduled period
     * change (other domains consult this clock's grid, so a parked
     * clock must not lag across the change's landing edge).
     */
    Tick
    clampBound(Tick w) const
    {
        if (pending_ != nullptr && pending_->active)
            w = std::min(w, pending_->apply_at);
        const Clock &c = timing_.clock(id_);
        if (c.changePending())
            w = std::min(w, c.changeDue());
        return w;
    }

  protected:
    const DomainId id_;
    CoreTiming &timing_;
    const PendingApply *pending_ = nullptr;
};

} // namespace gals

#endif // GALS_CORE_DOMAIN_HH
