/**
 * @file
 * Inter-domain synchronization timing (Sjogren & Myers, as modeled by
 * the MCD simulator): data produced at time t in one domain becomes
 * visible in a consumer domain at the first consumer edge after t —
 * plus one additional consumer cycle whenever the producing time and
 * that consumer edge are within 30% of the faster clock's period
 * (the synchronizer cannot guarantee a stable sample).
 */

#ifndef GALS_CLOCK_SYNCHRONIZER_HH
#define GALS_CLOCK_SYNCHRONIZER_HH

#include <algorithm>

#include "clock/clock.hh"
#include "common/types.hh"

namespace gals
{

/**
 * Guard band of a crossing: kSyncGuardFraction of the faster period,
 * truncated (each clock caches its own; see Clock::guard).
 */
inline Tick
syncGuard(const Clock &producer, const Clock &consumer)
{
    return std::min(producer.guard(), consumer.guard());
}

/**
 * Earliest consumer-domain edge at which data produced at
 * `produced_at` can be consumed.
 *
 * @param produced_at time the producer latched the data.
 * @param producer    producing domain's clock.
 * @param consumer    consuming domain's clock.
 * @param same_domain true when producer and consumer share a clock
 *                    (fully synchronous mode or intra-domain queues);
 *                    then only the next-edge latch applies.
 */
inline Tick
syncVisibleAt(Tick produced_at, const Clock &producer,
              const Clock &consumer, bool same_domain)
{
    Tick edge = consumer.nextEdgeAfter(produced_at);
    Tick margin = consumer.margin();
    if (same_domain)
        return edge - std::min(margin, edge);

    if (edge - produced_at < syncGuard(producer, consumer))
        edge += consumer.period();
    // Report visibility a quarter period before the edge. The margin
    // is the model's visibility convention, not a timing uncertainty
    // (clocks are exact grids; the guard band above is the only
    // synchronization cost charged). Pinned results depend on it.
    return edge - std::min(margin, edge);
}

/**
 * Visibility of a value bypassed within one clock domain: usable at
 * the first consumer edge at or after production, reported a quarter
 * period early (the visibility margin, as in syncVisibleAt).
 *
 * The margin never rewinds past the previous consumer edge; in
 * particular an early first edge (edge < period) reports the edge
 * itself rather than tick 0, which would have made the value
 * consumable a full cycle before it was produced.
 */
inline Tick
bypassVisibleAt(Tick produced, const Clock &consumer)
{
    if (produced == 0)
        return 0;
    Tick edge = consumer.nextEdgeAfter(produced - 1);
    Tick margin = consumer.margin();
    // Clamp the rewind at the previous edge: an edge earlier than one
    // period has no predecessor, so it gets no margin at all instead
    // of collapsing to tick 0.
    Tick prev = edge >= consumer.period() ? edge - consumer.period()
                                          : edge;
    return edge - std::min(margin, edge - prev);
}

} // namespace gals

#endif // GALS_CLOCK_SYNCHRONIZER_HH
