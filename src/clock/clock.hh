/**
 * @file
 * A clock for one GALS domain.
 *
 * The clock owns a period (ps) and the absolute time of its next
 * rising edge: one exact grid, edge k at first edge + k x period.
 * Frequency changes are applied at an edge boundary so cycles never
 * overlap. The MCD simulator advances whichever domain clock has the
 * earliest next edge; synchronizers query nextEdgeAfter() to decide
 * when data produced in another domain becomes visible here.
 */

#ifndef GALS_CLOCK_CLOCK_HH
#define GALS_CLOCK_CLOCK_HH

#include "common/types.hh"

namespace gals
{

/**
 * Fraction of the faster period within which a synchronizer crossing
 * pays an extra consumer cycle (clock/synchronizer.hh).
 */
constexpr double kSyncGuardFraction = 0.30;

/** One domain clock: period, edge position, cycle count. */
class Clock
{
  public:
    /**
     * @param period_ps   initial clock period in picoseconds.
     * @param first_edge  absolute time of the first rising edge.
     */
    explicit Clock(Tick period_ps, Tick first_edge = 0);

    /** Absolute time of the next rising edge. */
    Tick nextEdge() const { return next_edge_; }

    /** Current period in ps. */
    Tick period() const { return period_ps_; }

    /**
     * Synchronizer guard band of this clock's period:
     * floor(kSyncGuardFraction x period). The truncated product is
     * monotone in the period, so the guard of the faster of two
     * clocks is the smaller of their guards.
     */
    Tick guard() const { return guard_; }

    /** Visibility margin: a quarter period (clock/synchronizer.hh). */
    Tick margin() const { return margin_; }

    /** Current frequency in GHz. */
    double freqGHz() const { return ghzFromPeriodPs(period_ps_); }

    /** Number of edges delivered so far. */
    Cycle cycle() const { return cycle_; }

    /**
     * Consume the pending edge: the domain has executed its cycle at
     * nextEdge(). Applies any pending period change.
     */
    void
    advance()
    {
        ++cycle_;

        if (pending_period_ != 0 && next_edge_ >= pending_when_) {
            setConstants(pending_period_);
            pending_period_ = 0;
            ++period_changes_;
        }
        next_edge_ += period_ps_;
    }

    /**
     * Consume every edge strictly before `t` without delivering them
     * (the caller has proven the domain does nothing at those edges),
     * in one arithmetic jump. Equivalent to calling advance() while
     * nextEdge() < t, except that it stops short of a pending period
     * change's landing edge: that edge is left for advance(), so a
     * skip never applies a change.
     */
    void advanceWhileBelow(Tick t);

    /**
     * First edge strictly after time t, extrapolated on the grid from
     * the current edge position. Used by synchronizers.
     * Hot path: most queries land on the current or next edge, so the
     * division is skipped for them.
     */
    Tick
    nextEdgeAfter(Tick t) const
    {
        if (t < next_edge_)
            return next_edge_;
        Tick delta = t - next_edge_;
        if (delta < period_ps_)
            return next_edge_ + period_ps_;
        Tick steps = delta / period_ps_ + 1;
        return next_edge_ + steps * period_ps_;
    }

    /**
     * Schedule a period change; it takes effect at the first edge at
     * or after `when` (the PLL re-lock completion time).
     */
    void setPeriod(Tick new_period_ps, Tick when);

    /** True when a period change is scheduled but not yet applied. */
    bool changePending() const { return pending_period_ != 0; }

    /**
     * Earliest time the pending change can land (it applies at the
     * first consumed edge at or after this). Only meaningful while
     * changePending().
     */
    Tick changeDue() const { return pending_when_; }

    /**
     * Number of period changes applied so far. Consumers that memoize
     * grid extrapolations (nextEdgeAfter results) use this as an
     * invalidation epoch: a memo is valid only while no clock's grid
     * has changed.
     */
    std::uint64_t periodChanges() const { return period_changes_; }

  private:
    /** Install `period` with the constants derived from it (the only
     * place the period changes). */
    void
    setConstants(Tick period)
    {
        period_ps_ = period;
        guard_ = static_cast<Tick>(kSyncGuardFraction *
                                   static_cast<double>(period));
        margin_ = period / 4;
    }

    Tick period_ps_ = 0;
    Tick guard_ = 0;
    Tick margin_ = 0;
    Tick next_edge_;
    Cycle cycle_ = 0;

    Tick pending_period_ = 0;
    Tick pending_when_ = 0;
    std::uint64_t period_changes_ = 0;
};

} // namespace gals

#endif // GALS_CLOCK_CLOCK_HH
