/**
 * @file
 * The phase controller's interval decisions: each scores every
 * candidate configuration of one structure from the interval just
 * ended and picks the best. The margins and persistence votes that
 * turn a decision into a change live in core/reconfig.hh.
 *
 * Accounting caches (paper §3.1): every cache interval the decision
 * reconstructs, from the MRU-position counters, the total access time
 * each of the four candidate configurations would have spent on the
 * interval just ended — A hits at the A latency, B hits at A+B,
 * misses at A+B plus the next level — each at the candidate's own
 * clock period, and picks the minimum. The L1D/L2 pair is evaluated
 * jointly (their configurations are locked together); the I-cache
 * decision charges misses with the cross-domain L2 round trip.
 *
 * Issue queues (paper §3.2): see chooseIssueQueue.
 */

#ifndef GALS_CONTROL_CACHE_CONTROLLER_HH
#define GALS_CONTROL_CACHE_CONTROLLER_HH

#include <array>

#include "cache/accounting_cache.hh"
#include "common/types.hh"
#include "control/ilp_tracker.hh"

namespace gals
{

/** One cache-configuration decision with per-candidate costs (ps). */
struct CacheDecision
{
    int best_index;
    std::array<Tick, 4> cost_ps;
};

/**
 * Joint decision for the L1 data / L2 pair.
 *
 * @param l1 interval counters of the L1 D-cache (8-way MRU state).
 * @param l2 interval counters of the L2 (8-way MRU state).
 * @param mem_fill_ps main-memory time charged to every L2 miss.
 */
CacheDecision chooseDCachePair(const IntervalCounts &l1,
                               const IntervalCounts &l2,
                               Tick mem_fill_ps);

/**
 * Decision for the I-cache (the matched branch predictor follows).
 *
 * @param l1i interval counters of the I-cache (4-way MRU state).
 * @param miss_extra_ps time charged to every I-cache miss (the
 *        synchronized round trip to the L2 in the load/store domain).
 */
CacheDecision chooseICache(const IntervalCounts &l1i,
                           Tick miss_extra_ps);

/**
 * True when a decision's best candidate beats the current
 * configuration by more than the hysteresis margin (the act-on-it
 * test of both cache decisions).
 */
inline bool
cacheClearlyBetter(const CacheDecision &d, int cur, double hysteresis)
{
    double best = static_cast<double>(
        d.cost_ps[static_cast<size_t>(d.best_index)]);
    double cur_cost =
        static_cast<double>(d.cost_ps[static_cast<size_t>(cur)]);
    return best < cur_cost * (1.0 - hysteresis);
}

/** One issue-queue decision with its per-candidate scores. */
struct QueueDecision
{
    int best_index;                  //!< chosen size index 0..3.
    std::array<double, 4> score;     //!< (N/M_N) * f_N per candidate.
};

/**
 * Decision for one issue queue from an ILP-tracker sample. For each
 * candidate size N the effective throughput is the inherent ILP over
 * a window of N instructions, N/M_N, scaled by the clock frequency
 * f_N the queue supports; the decision is argmax_N (N/M_N) * f_N. No
 * search, no local minima: every candidate is evaluated from the same
 * interval's measurements.
 *
 * @param fp evaluate the floating-point stream's chains when true,
 *           the integer stream's otherwise. A window that saw no
 *           register-writing ops of this type scores zero, so the
 *           smallest adequate queue wins by frequency.
 */
QueueDecision chooseIssueQueue(const IlpSample &sample, bool fp);

} // namespace gals

#endif // GALS_CONTROL_CACHE_CONTROLLER_HH
