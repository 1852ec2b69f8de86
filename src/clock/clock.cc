#include "clock/clock.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gals
{

Clock::Clock(Tick period_ps, Tick first_edge)
    : next_edge_(first_edge)
{
    GALS_ASSERT(period_ps > 0, "clock period must be positive");
    setConstants(period_ps);
}

void
Clock::advanceWhileBelow(Tick t)
{
    // The landing edge of a pending change is the first at or after
    // its due time; every edge below that is one old period apart.
    if (pending_period_ != 0)
        t = std::min(t, pending_when_);
    if (next_edge_ >= t)
        return;
    Tick k = (t - 1 - next_edge_) / period_ps_ + 1;
    cycle_ += k;
    next_edge_ += k * period_ps_;
}

void
Clock::setPeriod(Tick new_period_ps, Tick when)
{
    GALS_ASSERT(new_period_ps > 0, "clock period must be positive");
    if (new_period_ps == period_ps_ && pending_period_ == 0)
        return;
    pending_period_ = new_period_ps;
    pending_when_ = when;
}

} // namespace gals
