#include "core/scheduler.hh"

#include <array>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace gals
{

namespace
{

/** Sum of the cores' progress counters (deadlock watchdog). */
std::uint64_t
totalProgress(const CoreProgress *cores, int ncores)
{
    std::uint64_t sum = 0;
    for (int c = 0; c < ncores; ++c)
        sum += *cores[c].progress;
    return sum;
}

} // namespace

DomainScheduler::DomainScheduler(Domain *const *domains, Clock *clocks,
                                 int count, WakeFabric &fabric,
                                 EpochBumpPort *const *epochs)
    : domains_(domains), clocks_(clocks), count_(count),
      fabric_(fabric), epochs_(epochs)
{
    GALS_ASSERT(count >= 1 && count <= kMaxSchedDomains &&
                    count % kNumDomains == 0,
                "DomainScheduler domain count out of range");
}

bool
DomainScheduler::advanceClock(int d)
{
    Clock &c = clocks_[static_cast<size_t>(d)];
    if (!c.changePending()) {
        c.advance();
        return false;
    }
    Tick landing = c.nextEdge();
    std::uint64_t before = c.periodChanges();
    c.advance();
    if (c.periodChanges() == before)
        return false;
    // Grid epochs are per core: broadcast through the landing core's
    // port, with the core-local changed-domain index.
    epochs_[d]->broadcast(d % kNumDomains, landing);
    if (obs::tracing()) {
        obs::Tracer::instance().sim(d, obs::Ev::EpochBump, landing,
                                    c.period());
    }
    return true;
}

Cycle
DomainScheduler::advanceClockWhileBelow(int d, Tick t)
{
    Clock &c = clocks_[static_cast<size_t>(d)];
    // Every wake bound is clamped to changeDue, so a skip never
    // reaches a pending period change's landing edge: a real step
    // delivers it (the epoch bump broadcasts there).
    GALS_ASSERT(!c.changePending() || t <= c.changeDue(),
                "proven-idle skip past a pending period change");
    Cycle before = c.cycle();
    c.advanceWhileBelow(t);
    // The caller skips only when `t` is above the current edge, and
    // on an exact grid that edge is not the landing one.
    GALS_ASSERT(c.cycle() != before,
                "proven-idle skip consumed no edge");
    return c.cycle() - before;
}

void
DomainScheduler::runReference(const CoreProgress *cores, int ncores)
{
    GALS_ASSERT(ncores * kNumDomains == count_,
                "stop conditions for %d cores against %d domains",
                ncores, count_);
    fabric_.setEventMode(false);
    std::array<bool, kMaxCores> done{};
    int active = 0;
    for (int c = 0; c < ncores; ++c) {
        done[static_cast<size_t>(c)] =
            *cores[c].progress >= cores[c].target;
        if (!done[static_cast<size_t>(c)])
            ++active;
    }

    KernelCounters ctr;
    std::uint64_t steps = 0;
    std::uint64_t last_progress = totalProgress(cores, ncores);
    while (active > 0) {
        int d = -1;
        Tick best = kTickMax;
        for (int i = 0; i < count_; ++i) {
            if (done[static_cast<size_t>(i / kNumDomains)])
                continue;
            Tick e = clocks_[static_cast<size_t>(i)].nextEdge();
            if (e < best) {
                best = e;
                d = i;
            }
        }
        if (obs::tracing()) {
            obs::Tracer::instance().domainStep(
                d, best, clocks_[static_cast<size_t>(d)].period());
        }
        domains_[d]->step(best);
        advanceClock(d);
        ++ctr.steps[static_cast<size_t>(d % kNumDomains)];

        int c = d / kNumDomains;
        if (*cores[c].progress >= cores[c].target) {
            done[static_cast<size_t>(c)] = true;
            --active;
        }

        if (++steps >= 8'000'000) {
            std::uint64_t progress = totalProgress(cores, ncores);
            GALS_ASSERT(progress != last_progress,
                        "no commit in 8M domain steps: deadlock at "
                        "t=%llu (committed=%llu)",
                        static_cast<unsigned long long>(best),
                        static_cast<unsigned long long>(progress));
            steps = 0;
            last_progress = progress;
        }
    }
    counters_ = ctr;
}

void
DomainScheduler::runEvent(const CoreProgress *cores, int ncores)
{
    GALS_ASSERT(ncores * kNumDomains == count_,
                "stop conditions for %d cores against %d domains",
                ncores, count_);
    fabric_.setEventMode(true);
    fabric_.beginEventRun();

    std::array<bool, kMaxCores> done{};
    int active = 0;
    for (int c = 0; c < ncores; ++c) {
        bool fin = *cores[c].progress >= cores[c].target;
        done[static_cast<size_t>(c)] = fin;
        if (fin) {
            for (int k = c * kNumDomains; k < (c + 1) * kNumDomains;
                 ++k) {
                fabric_.park(k);
            }
        } else {
            ++active;
        }
    }

    KernelCounters ctr;
    std::uint64_t steps = 0;
    std::uint64_t last_progress = totalProgress(cores, ncores);
    while (active > 0) {
        int d = fabric_.head();
        size_t di = static_cast<size_t>(d);
        size_t kind = static_cast<size_t>(d % kNumDomains);
        GALS_ASSERT(fabric_.key(d) != kTickMax,
                    "event kernel: every domain parked at "
                    "committed=%llu (missing wakeup port)",
                    static_cast<unsigned long long>(
                        totalProgress(cores, ncores)));
        if (done[static_cast<size_t>(d / kNumDomains)]) {
            // A coherence wake re-armed a halted core's domain (a
            // remote sharer may finish before its invalidations
            // deliver). The reference kernel never steps a done
            // core, so neither may we: re-park and move on.
            fabric_.park(d);
            continue;
        }
        Tick edge = clocks_[di].nextEdge();
        if (fabric_.bound(d) > edge) {
            // Proven-idle edges: consume them without stepping, then
            // re-key on the first edge at or after the wake time.
            ctr.skipped_edges[kind] +=
                advanceClockWhileBelow(d, fabric_.bound(d));
            fabric_.setKey(d, clocks_[di].nextEdge());
            continue;
        }
        if (obs::tracing())
            obs::Tracer::instance().domainStep(d, edge,
                                               clocks_[di].period());
        Tick raw = domains_[d]->step(edge);
        ++ctr.steps[kind];
        // The step's bound extrapolated the pre-advance grid; if this
        // domain's own period change lands on the consumed edge, every
        // such memo is stale — re-derive at the next edge (waking
        // early is a wasted no-op step, never a divergence).
        Tick w = advanceClock(d) ? 0 : domains_[d]->clampBound(raw);
        fabric_.setBound(d, w);
        if (w == kTickMax)
            fabric_.park(d);
        else
            fabric_.setKey(d, std::max(clocks_[di].nextEdge(), w));

        int c = d / kNumDomains;
        if (!done[static_cast<size_t>(c)] &&
            *cores[c].progress >= cores[c].target) {
            // Halt the finished core: park all its domains. A
            // coherence invalidation may still re-arm one — the
            // head check above re-parks it without stepping.
            done[static_cast<size_t>(c)] = true;
            --active;
            for (int k = c * kNumDomains; k < (c + 1) * kNumDomains;
                 ++k) {
                fabric_.park(k);
            }
        }

        if (++steps >= 8'000'000) {
            std::uint64_t progress = totalProgress(cores, ncores);
            GALS_ASSERT(progress != last_progress,
                        "no commit in 8M domain steps: deadlock at "
                        "t=%llu (committed=%llu)",
                        static_cast<unsigned long long>(edge),
                        static_cast<unsigned long long>(progress));
            steps = 0;
            last_progress = progress;
        }
    }
    counters_ = ctr;
}

} // namespace gals
