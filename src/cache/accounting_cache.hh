/**
 * @file
 * The Accounting Cache (Dropsho et al., PACT 2002), as used by the
 * paper for every resizable cache.
 *
 * A W-way set-associative cache is partitioned by MRU position into an
 * A partition (the `a_ways` most-recently-used blocks of each set) and
 * a B partition (the rest). The A partition is accessed first; on an A
 * miss the B partition is probed and a hit there swaps the block into
 * A. Full MRU state is maintained over all W ways regardless of the
 * current partitioning, so simple per-MRU-position hit counters are
 * sufficient to reconstruct the exact number of A hits, B hits and
 * misses that *any* partitioning would have produced over the same
 * access stream — the property the phase controller exploits to pick
 * a configuration without exploration.
 *
 * When the B partition is disabled (fully synchronous baseline and
 * whole-program adaptive runs, per paper §3.1) only the A partition
 * exists physically: an A miss goes straight to the next level, and
 * blocks beyond `a_ways` are not retained.
 */

#ifndef GALS_CACHE_ACCOUNTING_CACHE_HH
#define GALS_CACHE_ACCOUNTING_CACHE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace gals
{

/** Where an access was satisfied. */
enum class HitWhere : std::uint8_t
{
    APartition,
    BPartition,
    Miss,
};

/** Outcome of one cache access. */
struct AccessOutcome
{
    HitWhere where;
    /** MRU position the block occupied before the access (W on miss). */
    int mru_pos;
};

/** Interval counters the phase controller reads and resets. */
struct IntervalCounts
{
    /** mru_hits[k]: hits whose block sat at MRU position k. */
    std::vector<std::uint64_t> mru_hits;
    /** Accesses that missed in all W ways. */
    std::uint64_t misses = 0;
    /** Total accesses in the interval. */
    std::uint64_t accesses = 0;
};

/** A/B-partitioned set-associative cache with MRU accounting. */
class AccountingCache
{
  public:
    /**
     * @param name       for stats/reporting.
     * @param size_bytes total capacity across all W ways.
     * @param ways       physical associativity W.
     * @param line_bytes cache line size.
     */
    AccountingCache(std::string name, std::uint64_t size_bytes, int ways,
                    int line_bytes = 64);

    /**
     * Set the partitioning. a_ways in [1, W]. With `b_enabled` false
     * the B partition does not retain blocks (see file comment).
     */
    void setPartition(int a_ways, bool b_enabled);

    /** Current A-partition size in ways. */
    int aWays() const { return a_ways_; }

    /** True when the B partition is active. */
    bool bEnabled() const { return b_enabled_; }

    /** Physical associativity W. */
    int ways() const { return ways_; }

    int numSets() const { return num_sets_; }
    int lineBytes() const { return line_bytes_; }
    /** log2(lineBytes()): line numbers are addr >> lineShift(). */
    int lineShift() const { return line_shift_; }
    const std::string &name() const { return name_; }

    /**
     * Perform one access (timing model only; no data storage).
     * Updates MRU state, interval counters and lifetime totals.
     */
    AccessOutcome access(Addr addr);

    /**
     * Drop the single block holding `addr`'s line, if present
     * (coherence invalidation). Leaves MRU order untouched: the
     * vacated way is refilled on the next miss to the set. Returns
     * whether the line was resident.
     */
    bool invalidate(Addr addr);

    /** Interval counters since the last resetInterval(). */
    const IntervalCounts &interval() const { return interval_; }

    /** Reset interval counters (end of a control interval). */
    void resetInterval();

    /** Lifetime totals. */
    std::uint64_t totalAccesses() const { return total_accesses_; }
    std::uint64_t totalAHits() const { return total_a_hits_; }
    std::uint64_t totalBHits() const { return total_b_hits_; }
    std::uint64_t totalMisses() const { return total_misses_; }

    /**
     * Reconstruct, from interval counters, the (A hits, B hits) any
     * partitioning `a_ways` would have seen. Misses are invariant.
     */
    static std::pair<std::uint64_t, std::uint64_t>
    reconstruct(const IntervalCounts &counts, int a_ways);

  private:
    int setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    std::string name_;
    int ways_;
    int line_bytes_;
    int num_sets_;
    /** log2 of line_bytes_ / num_sets_ (both asserted powers of
     * two): the per-access index math is shifts, not divisions. */
    int line_shift_ = 6;
    int set_shift_ = 0;
    int a_ways_;
    bool b_enabled_ = true;

    // Flat per-set state, stride = ways_. mru_[s*ways + k] is the way
    // index of the block at MRU position k of set s. Flat storage
    // keeps each set's metadata on one cache line and makes
    // construction three bulk fills instead of 3*num_sets vector
    // initializations per run.
    std::vector<std::int8_t> mru_;
    std::vector<Addr> tag_;
    std::vector<std::uint8_t> valid_;

    IntervalCounts interval_;
    std::uint64_t total_accesses_ = 0;
    std::uint64_t total_a_hits_ = 0;
    std::uint64_t total_b_hits_ = 0;
    std::uint64_t total_misses_ = 0;
};

} // namespace gals

#endif // GALS_CACHE_ACCOUNTING_CACHE_HH
