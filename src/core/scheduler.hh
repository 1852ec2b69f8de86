/**
 * @file
 * The domain scheduler: the step loop of the GALS chip, generic over
 * a set of clock-domain units (core/domain.hh) — four per core.
 *
 * Two kernels share one stepping order (time, then lowest *global*
 * domain index on ties — exactly the original simulator's tie-break,
 * which a chip extends core-major):
 *
 *  - the *reference* kernel steps every domain at every edge and is
 *    the bit-identity oracle (Kernel::Reference);
 *  - the *event* kernel keeps a keyed calendar (in the WakeFabric) of
 *    each domain's earliest-possible-work tick, parks domains whose
 *    bound is unknown until a port re-arms them, and consumes
 *    proven-idle edges in bulk.
 *
 * The scheduler owns clock advancement: when a pending period change
 * lands on a consumed edge it broadcasts the epoch bump through the
 * landing core's port (grid epochs are per core: only that core's
 * memoized extrapolations go stale), which wakes that core's sleeping
 * domains per the publication order rule.
 *
 * Multi-core runs stop when every core's progress counter reaches its
 * target; a finished core is halted — its domains are parked and
 * never stepped again — so the remaining cores finish their windows
 * under (slightly reduced) shared-L2 contention, the standard
 * multiprogrammed-throughput methodology.
 */

#ifndef GALS_CORE_SCHEDULER_HH
#define GALS_CORE_SCHEDULER_HH

#include <array>
#include <cstdint>

#include "clock/clock.hh"
#include "common/types.hh"
#include "core/domain.hh"
#include "core/ports.hh"

namespace gals
{

/** Which main-loop kernel a run uses. */
enum class Kernel
{
    /** Event-driven: idle domains skip edges (the default). */
    EventDriven,
    /**
     * Step every domain at every edge, as the original simulator
     * did. Kept as the bit-identical oracle for the event kernel
     * (see docs/kernel.md).
     */
    Reference,
};

/** Stop condition of one core: run until *progress >= target. */
struct CoreProgress
{
    const std::uint64_t *progress;
    std::uint64_t target;
};

/**
 * Deterministic work counters of one run, indexed by local domain
 * kind (FrontEnd, Integer, FloatingPoint, LoadStore) and summed over
 * cores. Kept in the run loop's locals and published once per run,
 * so they cost no registry traffic per step.
 */
struct KernelCounters
{
    /** Domain steps delivered. */
    std::array<std::uint64_t, kNumDomains> steps{};
    /** Edges consumed without a step (proven idle; event kernel). */
    std::array<std::uint64_t, kNumDomains> skipped_edges{};
};

/** Steps a set of domain units in reference-equivalent order. */
class DomainScheduler
{
  public:
    /**
     * @param domains one unit per global domain index (core-major:
     *                core c's local domain d sits at c*kNumDomains+d).
     * @param clocks  the matching domain clocks, same indexing.
     * @param count   number of domains (a multiple of kNumDomains,
     *                <= kMaxSchedDomains).
     * @param fabric  the wake fabric (bounds + calendar keys).
     * @param epochs  per-domain pointer to the owning core's
     *                epoch-bump broadcast port (entries of one core
     *                repeat the same port).
     */
    DomainScheduler(Domain *const *domains, Clock *clocks, int count,
                    WakeFabric &fabric, EpochBumpPort *const *epochs);

    /** Event kernel: run until every core's progress (a counter
     * advanced by the core's own domains, e.g. committed
     * instructions) reaches its target. */
    void runEvent(const CoreProgress *cores, int ncores);

    /** Reference kernel: step every active domain at every edge. */
    void runReference(const CoreProgress *cores, int ncores);

    /** Work counters of the most recent run. */
    const KernelCounters &counters() const { return counters_; }

  private:
    /** advance() + epoch-bump broadcast when a period change lands;
     * returns true when a change landed on the consumed edge. */
    bool advanceClock(int d);
    /** Consume proven-idle edges of domain d strictly below `t`. */
    void advanceClockWhileBelow(int d, Tick t);

    Domain *const *domains_;
    Clock *clocks_;
    int count_;
    WakeFabric &fabric_;
    EpochBumpPort *const *epochs_;
    KernelCounters counters_;
};

} // namespace gals

#endif // GALS_CORE_SCHEDULER_HH
