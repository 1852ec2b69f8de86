/**
 * @file
 * Results of one simulation run over the measured window.
 */

#ifndef GALS_CORE_RUN_STATS_HH
#define GALS_CORE_RUN_STATS_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "control/reconfig_trace.hh"

namespace gals
{

/** Statistics for one (machine, workload) run. */
struct RunStats
{
    std::string benchmark;
    std::string config;

    /** Committed instructions in the measured window. */
    std::uint64_t committed = 0;
    /** Wall-clock (simulated) time of the window, ps. */
    Tick time_ps = 0;

    /** Committed instructions per nanosecond (frequency-honest IPC). */
    double
    instrsPerNs() const
    {
        return time_ps ? static_cast<double>(committed) /
                             (static_cast<double>(time_ps) / 1000.0)
                       : 0.0;
    }

    // Cache behavior over the window.
    std::uint64_t l1i_accesses = 0, l1i_misses = 0;
    std::uint64_t l1d_accesses = 0, l1d_misses = 0;
    std::uint64_t l2_accesses = 0, l2_misses = 0;
    std::uint64_t l1i_b_hits = 0, l1d_b_hits = 0, l2_b_hits = 0;

    // Branch behavior.
    std::uint64_t branches = 0, mispredicts = 0;

    /** Fetch stalls caused by mispredicted branches. */
    std::uint64_t flushes = 0;

    /** PLL re-locks performed (phase mode). */
    std::uint64_t relocks = 0;

    /**
     * Instruction-weighted residency of each configuration index,
     * indexed by Structure then index (phase mode; all weight on the
     * fixed index otherwise).
     */
    using Residency =
        std::array<std::array<std::uint64_t, 4>, kNumStructures>;
    Residency residency{};

    /** Reconfiguration log (phase mode). */
    ReconfigTrace trace;
};

/** Every RunStats field, in payload order (common/types.hh). */
template <FieldsOf<RunStats> S, class F>
void
forEachField(S &s, F &&f)
{
    auto &[benchmark, config, committed, time_ps, l1i_accesses,
           l1i_misses, l1d_accesses, l1d_misses, l2_accesses, l2_misses,
           l1i_b_hits, l1d_b_hits, l2_b_hits, branches, mispredicts,
           flushes, relocks, residency, trace] = s;
    f("benchmark", benchmark); f("config", config); f("committed", committed);
    f("time_ps", time_ps); f("l1i_accesses", l1i_accesses);
    f("l1i_misses", l1i_misses); f("l1d_accesses", l1d_accesses);
    f("l1d_misses", l1d_misses); f("l2_accesses", l2_accesses);
    f("l2_misses", l2_misses); f("l1i_b_hits", l1i_b_hits);
    f("l1d_b_hits", l1d_b_hits); f("l2_b_hits", l2_b_hits);
    f("branches", branches); f("mispredicts", mispredicts);
    f("flushes", flushes); f("relocks", relocks);
    f("residency", residency); f("trace", trace);
}

} // namespace gals

#endif // GALS_CORE_RUN_STATS_HH
