/**
 * @file
 * The benchmark's workloads and the loop that measures them.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>

#include "harness.hh"

namespace perfbench
{

/**
 * Run `o.workload`: set up (timed from `start_ns`, the process start),
 * then either the untraced timed passes for `o.seconds` (end-to-end
 * metrics) or one untraced and one traced pass plus the layer
 * replays (per-layer metrics), checking every leaf on the way.
 */
Report runWorkload(const Options &o, std::int64_t start_ns);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
