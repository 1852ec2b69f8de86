#include "cache/cache_cost.hh"

#include "timing/frequency_model.hh"

namespace gals
{

Tick
accountingCost(const IntervalCounts &counts,
               const CacheCostParams &params)
{
    auto [a_hits, b_positions] =
        AccountingCache::reconstruct(counts, params.a_ways);

    // B positions miss without a B partition. A hits pay A; B hits and
    // misses the serial probe, and misses the next level on top.
    std::uint64_t misses =
        counts.misses + (params.b_lat_cycles < 0 ? b_positions : 0);
    std::uint64_t a_lat = static_cast<std::uint64_t>(params.a_lat_cycles);
    std::uint64_t probe = static_cast<std::uint64_t>(serialProbeCycles(
        params.a_lat_cycles, params.b_lat_cycles, true));
    std::uint64_t cycles =
        a_hits * a_lat + (counts.misses + b_positions) * probe;
    return cycles * params.period_ps + misses * params.miss_extra_ps;
}

} // namespace gals
