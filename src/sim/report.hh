/**
 * @file
 * Text rendering of the paper's tables and figures from study
 * results. The reproduction driver and the examples call these so
 * every experiment prints in a uniform, diffable format.
 */

#ifndef GALS_SIM_REPORT_HH
#define GALS_SIM_REPORT_HH

#include <string>

#include "control/reconfig_trace.hh"
#include "sim/study.hh"

namespace gals
{

/** Figure 6: per-benchmark improvement bars plus suite averages. */
std::string renderFigure6(const StudyResult &study);

/** Table 9: distribution of Program-Adaptive configuration choices. */
std::string renderTable9(const StudyResult &study);

/**
 * Printable name of configuration `index` of structure `s`: the
 * Table 1/2 row name for the caches, the entry count for the issue
 * queues.
 */
std::string configLabel(Structure s, int index);

/**
 * Figure 7-style reconfiguration trace: configuration index versus
 * committed instructions for one structure of one run, one row per
 * configLabel(s, k).
 */
std::string renderReconfigTrace(const std::string &title,
                                const ReconfigTrace &trace, Structure s,
                                int initial_index,
                                std::uint64_t total_instrs);

/**
 * Line-oriented JSON for a study run: one `"rows"` element per line,
 * tagged with its suite index. Doubles print with %.17g, so a run
 * served from the result store writes the same bytes as a cold one.
 */
std::string studyJson(const StudyResult &study);

/** Same format for the raw synchronous design-point sweep. */
std::string syncSweepJson(const std::vector<SyncPointRuntimes> &rows,
                          size_t suite_size, bool full);

/** Same format for the 256-point exhaustive Program-Adaptive sweep
 * of one benchmark. */
std::string adaptiveSweepJson(
    const std::vector<AdaptivePointRuntime> &rows,
    const std::string &benchmark);

/** Same format for the multiprogrammed CMP sweep. */
std::string cmpSweepJson(const std::vector<CmpPointResult> &rows,
                         size_t suite_size,
                         const std::vector<int> &core_counts);

/** Chip-level scaling table of a CMP sweep: per core count, average
 * makespan and interconnect pressure across rotations. */
std::string renderCmpSummary(const std::vector<CmpPointResult> &rows);

} // namespace gals

#endif // GALS_SIM_REPORT_HH
