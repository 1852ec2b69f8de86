/**
 * @file
 * Tests for the clocking substrate: domain clocks (edges, frequency
 * changes, idle-edge skips), the PLL lock model, the Sjogren-Myers
 * synchronizer rule, and the cross-domain FIFO.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "clock/clock.hh"
#include "clock/pll.hh"
#include "clock/sync_fifo.hh"
#include "clock/synchronizer.hh"
#include "common/random.hh"
#include "core/domain.hh"

using namespace gals;

TEST(Clock, EdgesAdvanceByPeriod)
{
    Clock c(100, 100);
    EXPECT_EQ(c.nextEdge(), 100u);
    c.advance();
    EXPECT_EQ(c.nextEdge(), 200u);
    c.advance();
    EXPECT_EQ(c.nextEdge(), 300u);
    EXPECT_EQ(c.cycle(), 2u);
    EXPECT_DOUBLE_EQ(c.freqGHz(), 10.0);
}

TEST(Clock, NextEdgeAfterExtrapolates)
{
    Clock c(100, 100);
    EXPECT_EQ(c.nextEdgeAfter(0), 100u);
    EXPECT_EQ(c.nextEdgeAfter(99), 100u);
    EXPECT_EQ(c.nextEdgeAfter(100), 200u); // strictly after.
    EXPECT_EQ(c.nextEdgeAfter(1050), 1100u);
}

TEST(Clock, PeriodChangeAppliesAtScheduledEdge)
{
    Clock c(100, 100);
    c.setPeriod(250, 350);
    EXPECT_TRUE(c.changePending());
    c.advance();                       // edge 100 -> next 200.
    EXPECT_EQ(c.nextEdge(), 200u);
    c.advance();                       // edge 200 -> next 300.
    EXPECT_EQ(c.nextEdge(), 300u);
    c.advance();                       // edge 300 -> next 400 (old p).
    EXPECT_EQ(c.nextEdge(), 400u);
    c.advance();                       // edge 400 >= 350: new period.
    EXPECT_EQ(c.nextEdge(), 650u);
    EXPECT_EQ(c.period(), 250u);
    EXPECT_FALSE(c.changePending());
}

TEST(Pll, LockTimeWithinPaperBounds)
{
    // Paper: normal with mean 15us, range 10-20us.
    Pll pll(PllParams{15.0, 1.7, 10.0, 20.0}, 3);
    Tick prev_done = 0;
    double sum = 0.0;
    const int n = 500;
    for (int i = 0; i < n; ++i) {
        Tick now = prev_done;
        Tick done = pll.startRelock(now);
        Tick lock = done - now;
        EXPECT_GE(lock, 10 * kPsPerUs);
        EXPECT_LE(lock, 20 * kPsPerUs);
        sum += static_cast<double>(lock) / kPsPerUs;
        prev_done = done;
    }
    EXPECT_NEAR(sum / n, 15.0, 0.5);
    EXPECT_EQ(pll.relocks(), static_cast<std::uint64_t>(n));
}

TEST(Pll, BusyDuringLock)
{
    Pll pll({}, 4);
    Tick done = pll.startRelock(1000);
    EXPECT_TRUE(pll.busy(1000));
    EXPECT_TRUE(pll.busy(done - 1));
    EXPECT_FALSE(pll.busy(done));
}

// ---------------------------------------------------------------------
// Synchronizer rule.
// ---------------------------------------------------------------------

TEST(Synchronizer, SameDomainIsNextEdgeLatch)
{
    Clock c(100, 100);
    // Produced at 100 -> consumable around edge 200 (minus the
    // settling margin).
    Tick v = syncVisibleAt(100, c, c, true);
    EXPECT_GT(v, 100u);
    EXPECT_LE(v, 200u);
    EXPECT_GE(v, 200u - 25u);
}

TEST(Synchronizer, GuardBandAddsACycle)
{
    Clock prod(100, 100);
    Clock cons(100, 130); // consumer edges at 130, 230, ...
    // Produced at 105: next consumer edge 130, gap 25 < 30 (guard =
    // 30% of 100) -> pushed to 230.
    Tick v = syncVisibleAt(105, prod, cons, false);
    EXPECT_GT(v, 200u);
    EXPECT_LE(v, 230u);
    // Produced at 95: gap 35 >= 30 -> visible at 130.
    Tick v2 = syncVisibleAt(95, prod, cons, false);
    EXPECT_LE(v2, 130u);
    EXPECT_GT(v2, 100u);
}

TEST(Synchronizer, VisibilityNeverBeforeProduction)
{
    Clock prod(73, 73);
    Clock cons(131, 57);
    for (Tick t = 1; t < 3000; t += 13) {
        Tick v = syncVisibleAt(t, prod, cons, false);
        EXPECT_GT(v + cons.period() / 4 + 1, t);
    }
}

/** Property sweep: the guard rule holds for arbitrary phase pairs. */
class SynchronizerSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(SynchronizerSweep, GuardRuleHolds)
{
    auto [prod_period, cons_phase] = GetParam();
    Clock prod(static_cast<Tick>(prod_period), 50);
    Clock cons(100, static_cast<Tick>(cons_phase));
    Tick guard = static_cast<Tick>(
        0.3 * std::min<Tick>(prod_period, 100));
    for (Tick t = 1; t < 2000; t += 7) {
        Tick v = syncVisibleAt(t, prod, cons, false);
        // Undo the settling margin to recover the edge.
        Tick edge = v + cons.period() / 4;
        EXPECT_GT(edge, t);
        // The chosen edge is never inside the guard band.
        EXPECT_GE(edge - t, guard);
        // And never more than one period beyond the first candidate.
        Tick first = cons.nextEdgeAfter(t);
        EXPECT_LE(edge, first + cons.period());
    }
}

INSTANTIATE_TEST_SUITE_P(
    PhasePairs, SynchronizerSweep,
    ::testing::Combine(::testing::Values(61, 100, 137, 211),
                       ::testing::Values(0, 13, 50, 99)));

// ---------------------------------------------------------------------
// SyncFifo.
// ---------------------------------------------------------------------

TEST(SyncFifo, VisibilityGatesConsumption)
{
    SyncFifo<int> f(4);
    f.push(1, 100);
    f.push(2, 200);
    EXPECT_FALSE(f.frontReady(99));
    EXPECT_TRUE(f.frontReady(100));
    EXPECT_EQ(f.front(), 1);
    f.pop();
    EXPECT_FALSE(f.frontReady(150));
    EXPECT_TRUE(f.frontReady(250));
    EXPECT_EQ(f.front(), 2);
}

TEST(SyncFifo, CapacityEnforced)
{
    SyncFifo<int> f(2);
    EXPECT_TRUE(f.canPush());
    f.push(1, 0);
    f.push(2, 0);
    EXPECT_FALSE(f.canPush());
    f.pop();
    EXPECT_TRUE(f.canPush());
}

TEST(SyncFifo, WrapAroundAtDomainPeriodBoundaries)
{
    // Steady producer/consumer cycling far past the ring capacity:
    // the head index wraps repeatedly while per-entry visibility
    // times (one domain period downstream) keep gating consumption.
    const Tick period = 100;
    SyncFifo<int> f(4);
    int produced = 0;
    int consumed = 0;
    for (int cycle = 1; cycle <= 40; ++cycle) {
        Tick now = static_cast<Tick>(cycle) * period;
        // Consume everything visible at this edge, in order.
        while (f.frontReady(now)) {
            EXPECT_EQ(f.front(), consumed);
            EXPECT_LE(f.frontVisibleAt(), now);
            f.pop();
            ++consumed;
        }
        // Refill; entries become visible exactly one period later.
        while (f.canPush())
            f.push(produced++, now + period);
    }
    // The ring wrapped many times and nothing was lost or reordered.
    EXPECT_GT(produced, 4 * 10);
    EXPECT_EQ(static_cast<size_t>(produced - consumed), f.size());
}

TEST(SyncFifo, WrapAroundBoundaryVisibility)
{
    // An entry pushed into the physical slot just before the wrap and
    // one just after must keep distinct visibility times.
    SyncFifo<int> f(3);
    f.push(0, 10);
    f.push(1, 20);
    f.pop(); // head -> slot 1.
    f.pop(); // head -> slot 2.
    f.push(2, 30);  // slot 2 (last physical slot).
    f.push(3, 40);  // slot 0 (wrapped).
    f.push(4, 50);  // slot 1.
    EXPECT_FALSE(f.canPush());
    EXPECT_EQ(f.frontVisibleAt(), 30u);
    EXPECT_FALSE(f.frontReady(29));
    EXPECT_TRUE(f.frontReady(30));
    f.pop();
    EXPECT_EQ(f.front(), 3);
    EXPECT_EQ(f.frontVisibleAt(), 40u);
    f.pop();
    EXPECT_EQ(f.front(), 4);
    EXPECT_EQ(f.frontVisibleAt(), 50u);
}

TEST(SyncFifo, FreeSlotsTracksOccupancy)
{
    SyncFifo<int> f(3);
    EXPECT_EQ(f.freeSlots(), 3u);
    f.push(1, 0);
    f.push(2, 0);
    EXPECT_EQ(f.freeSlots(), 1u);
    f.pop();
    EXPECT_EQ(f.freeSlots(), 2u);
}

TEST(SyncFifo, VisibleCountStopsAtFirstInvisibleEntry)
{
    SyncFifo<int> f(4);
    EXPECT_EQ(f.visibleCount(1000, 100), 0u);
    // Two ops fetched at one edge, then two at a later edge.
    f.push(1, 100);
    f.push(2, 100);
    f.push(3, 200);
    f.push(4, 200);
    EXPECT_EQ(f.visibleCount(99, 100), 0u);
    EXPECT_EQ(f.visibleCount(100, 100), 2u);
    EXPECT_EQ(f.visibleCount(199, 100), 2u);
    EXPECT_EQ(f.visibleCount(200, 100), 4u);
    // Capped at `limit`.
    EXPECT_EQ(f.visibleCount(200, 3), 3u);
    EXPECT_EQ(f.visibleCount(200, 0), 0u);

    // The count wraps around the ring: the head sits in the last
    // physical slot and the visible run continues from slot 0.
    f.pop();
    f.pop();
    f.pop(); // head -> slot 3.
    f.push(5, 200); // slot 0.
    f.push(6, 300); // slot 1.
    EXPECT_EQ(f.visibleCount(250, 100), 2u);
    EXPECT_EQ(f.visibleCount(300, 100), 3u);
    EXPECT_EQ(f.visibleCount(300, 2), 2u);

    // After a period shrink an op can be visible before the one
    // queued ahead of it. Ops are consumed in order, so it is not
    // counted while the earlier one is still invisible.
    SyncFifo<int> g(4);
    g.push(1, 100);
    g.push(2, 400);
    g.push(3, 300);
    EXPECT_EQ(g.visibleCount(350, 100), 1u);
    EXPECT_EQ(g.visibleCount(400, 100), 3u);
    g.pop();
    EXPECT_FALSE(g.frontReady(350));
    EXPECT_EQ(g.visibleCount(350, 100), 0u);
}

TEST(SyncFifo, OrderPreserved)
{
    SyncFifo<int> f(8);
    for (int i = 0; i < 6; ++i)
        f.push(i, 0);
    EXPECT_EQ(f.size(), 6u);
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(f.front(), i);
        f.pop();
    }
    EXPECT_TRUE(f.empty());
}

// ---------------------------------------------------------------------
// Event-kernel clock machinery.
// ---------------------------------------------------------------------

TEST(Clock, AdvanceWhileBelowMatchesSteppedAdvance)
{
    Clock fast(100, 100);
    Clock stepped(100, 100);
    fast.advanceWhileBelow(1'050);
    while (stepped.nextEdge() < 1'050)
        stepped.advance();
    EXPECT_EQ(fast.nextEdge(), stepped.nextEdge());
    EXPECT_EQ(fast.cycle(), stepped.cycle());

    // Already at or past the bound: no edges consumed.
    Tick before = fast.nextEdge();
    fast.advanceWhileBelow(before);
    EXPECT_EQ(fast.nextEdge(), before);
}

TEST(Clock, AdvanceWhileBelowStopsAtPendingPeriodChange)
{
    // The landing edge of a period change is never skippable: the
    // scheduler must consume it with a real step (the epoch bump
    // broadcasts there). The skip stops just before the landing;
    // delivering it and resuming matches edge-by-edge execution
    // exactly.
    Clock fast(100, 100);
    Clock stepped(100, 100);
    fast.setPeriod(250, 550);
    stepped.setPeriod(250, 550);
    fast.advanceWhileBelow(3'000);
    EXPECT_EQ(fast.nextEdge(), 600u);
    EXPECT_TRUE(fast.changePending());
    fast.advance(); // the scheduler's real step at the landing edge
    EXPECT_EQ(fast.periodChanges(), 1u);
    EXPECT_EQ(fast.period(), 250u);
    fast.advanceWhileBelow(3'000);
    while (stepped.nextEdge() < 3'000)
        stepped.advance();
    EXPECT_EQ(fast.nextEdge(), stepped.nextEdge());
    EXPECT_EQ(fast.cycle(), stepped.cycle());
}

TEST(Clock, AdvanceWhileBelowMatchesSteppedAdvanceUnderPeriodChanges)
{
    // Seeded random grids, most with a pending period change, skipped
    // to a target on either side of the change's landing edge (the
    // first edge at or after its due time). A skip must consume
    // exactly the edges advance() would, stop short of the landing
    // edge, and, once a real step delivers that edge, resume to the
    // same clock state as stepping every edge.
    Pcg32 rng(2024, 7);
    auto draw = [&](std::uint32_t lo, std::uint32_t hi) {
        return Tick{lo + rng.nextBounded(hi - lo + 1)};
    };
    int below = 0, above = 0;
    for (int i = 0; i < 5'000; ++i) {
        SCOPED_TRACE(i);
        Tick period = draw(1, 500);
        Tick first = draw(0, 2'000);
        Clock fast(period, first);
        Clock stepped(period, first);
        Tick when = first + draw(0, 20'000);
        if (rng.chance(0.8)) {
            Tick next_period = draw(1, 500);
            fast.setPeriod(next_period, when);
            stepped.setPeriod(next_period, when);
        }
        bool pending = fast.changePending();
        Tick target = first + draw(0, 40'000);
        while (stepped.nextEdge() < target)
            stepped.advance();

        fast.advanceWhileBelow(target);
        EXPECT_EQ(fast.periodChanges(), 0u);
        EXPECT_EQ(fast.changePending(), pending);
        if (pending && fast.nextEdge() < target) {
            // Stopped at the landing edge: deliver it, then resume.
            ++above;
            EXPECT_GE(fast.nextEdge(), when);
            EXPECT_LT(fast.nextEdge() - when, period);
            fast.advance();
            EXPECT_EQ(fast.periodChanges(), 1u);
            fast.advanceWhileBelow(target);
        } else if (pending) {
            ++below;
        }
        EXPECT_EQ(fast.nextEdge(), stepped.nextEdge());
        EXPECT_EQ(fast.cycle(), stepped.cycle());
        EXPECT_EQ(fast.periodChanges(), stepped.periodChanges());
    }
    EXPECT_GT(below, 500);
    EXPECT_GT(above, 500);
}

TEST(Synchronizer, BypassVisibleAtAppliesMargin)
{
    Clock c(100, 100);
    // Production mid-cycle latches at the next edge, reported a
    // quarter period early (the visibility margin).
    EXPECT_EQ(bypassVisibleAt(95, c), 100u - 25u);
    EXPECT_EQ(bypassVisibleAt(101, c), 200u - 25u);
    // On-edge production is consumable at that edge.
    EXPECT_EQ(bypassVisibleAt(100, c), 100u - 25u);
    // Production time zero is the "always ready" sentinel.
    EXPECT_EQ(bypassVisibleAt(0, c), 0u);
}

TEST(Synchronizer, BypassVisibleAtClampsMarginAtEarlyEdges)
{
    // Seed bug: an edge earlier than the margin reported visibility
    // at tick 0 — a full cycle before production. The margin may not
    // rewind past the previous edge; a first edge earlier than one
    // period has no predecessor and gets no rewind at all.
    Clock early(100, 10);
    EXPECT_EQ(bypassVisibleAt(5, early), 10u);
    Clock tiny(100, 60);
    EXPECT_EQ(bypassVisibleAt(50, tiny), 60u);
}

// ---------------------------------------------------------------------
// Cached synchronizer constants and the own-edge visibility predicate.
// ---------------------------------------------------------------------

namespace
{

/** The synchronizer rule as it read before the clock cached its
 * guard and margin: the 30% guard of the faster period recomputed in
 * floating point at every call. */
Tick
doubleFormulaVisibleAt(Tick produced_at, const Clock &producer,
                       const Clock &consumer, bool same_domain)
{
    Tick edge = consumer.nextEdgeAfter(produced_at);
    Tick margin = consumer.period() / 4;
    if (same_domain)
        return edge - std::min(margin, edge);
    Tick faster = std::min(producer.period(), consumer.period());
    Tick guard = static_cast<Tick>(0.30 * static_cast<double>(faster));
    if (edge - produced_at < guard)
        edge += consumer.period();
    return edge - std::min(margin, edge);
}

void
expectConstantsMatchPeriod(const Clock &c)
{
    EXPECT_EQ(c.guard(),
              static_cast<Tick>(0.30 * static_cast<double>(c.period())));
    EXPECT_EQ(c.margin(), c.period() / 4);
}

/** A domain that exposes its own-edge predicate to the test. */
class OwnEdgeProbe : public Domain
{
  public:
    using Domain::Domain;
    using Domain::visibleOnEdge;
    Tick step(Tick) override { return kTickMax; }
    void resizeStructure(int) override {}
};

} // namespace

TEST(Clock, CachedSyncConstantsFollowLandedPeriod)
{
    Pcg32 rng(4242, 3);
    for (int i = 0; i < 2'000; ++i) {
        SCOPED_TRACE(i);
        Tick first = rng.nextBounded(5'000);
        Clock c(1 + rng.nextBounded(9'999), first);
        expectConstantsMatchPeriod(c);
        for (int change = 0; change < 3; ++change) {
            Tick old_period = c.period();
            Tick next_period = 1 + rng.nextBounded(9'999);
            c.setPeriod(next_period, c.nextEdge() + rng.nextBounded(
                                                       20'000));
            // Pending: the constants still follow the old period.
            while (c.changePending()) {
                EXPECT_EQ(c.period(), old_period);
                expectConstantsMatchPeriod(c);
                c.advance();
            }
            EXPECT_EQ(c.period(), next_period);
            expectConstantsMatchPeriod(c);
        }
    }
}

TEST(Synchronizer, CachedGuardMatchesDoubleFormula)
{
    Pcg32 rng(99, 11);
    for (int i = 0; i < 10'000; ++i) {
        SCOPED_TRACE(i);
        Clock prod(1 + rng.nextBounded(4'000), rng.nextBounded(4'000));
        Clock cons(1 + rng.nextBounded(4'000), rng.nextBounded(4'000));
        if (rng.chance(0.5)) {
            // Land a period change on one side first.
            Clock &c = rng.chance(0.5) ? prod : cons;
            c.setPeriod(1 + rng.nextBounded(4'000), c.nextEdge());
            c.advance();
        }
        bool same = rng.chance(0.2);
        Tick t = rng.nextBounded(20'000);
        EXPECT_EQ(syncVisibleAt(t, prod, cons, same),
                  doubleFormulaVisibleAt(t, prod, cons, same));
    }
}

TEST(Synchronizer, OwnEdgePredicateMatchesVisibleAt)
{
    // On the consumer's own edge (its clock's nextEdge() is `now`),
    // Domain::visibleOnEdge must answer visibleAt(t, prod, cons) <=
    // now for every producer, both clocking modes, t = 0, the guard
    // band's boundary and a pending, not yet landed, period change.
    Pcg32 rng(2026, 13);
    int visible = 0, hidden = 0, at_guard = 0;
    for (int i = 0; i < 20'000; ++i) {
        SCOPED_TRACE(i);
        std::array<Clock, kNumDomains> clocks{
            Clock(1 + rng.nextBounded(3'000), rng.nextBounded(3'000)),
            Clock(1 + rng.nextBounded(3'000), rng.nextBounded(3'000)),
            Clock(1 + rng.nextBounded(3'000), rng.nextBounded(3'000)),
            Clock(1 + rng.nextBounded(3'000), rng.nextBounded(3'000))};
        for (Clock &c : clocks) {
            int edges = static_cast<int>(rng.nextBounded(8));
            for (int e = 0; e < edges; ++e)
                c.advance();
            if (rng.chance(0.3)) {
                c.setPeriod(1 + rng.nextBounded(3'000),
                            c.nextEdge() + 1 + rng.nextBounded(5'000));
            }
        }
        CoreTiming timing(clocks.data(), rng.chance(0.25));
        auto cons = static_cast<DomainId>(rng.nextBounded(kNumDomains));
        auto prod = rng.chance(0.3)
                        ? cons
                        : static_cast<DomainId>(
                              rng.nextBounded(kNumDomains));
        OwnEdgeProbe me(cons, timing);
        const Clock &cc = timing.clock(cons);
        Tick now = cc.nextEdge();
        Tick guard = syncGuard(timing.clock(prod), cc);

        Tick t = 0;
        std::uint32_t kind = rng.nextBounded(4);
        if (kind == 1) {
            t = rng.nextBounded(
                static_cast<std::uint32_t>(now + 3 * cc.period() + 1));
        } else if (kind >= 2) {
            // Around the guard band's edge and around `now`.
            Tick base = kind == 2 ? now - std::min(now, guard) : now;
            Tick off = rng.nextBounded(5);
            t = base + off >= 2 ? base + off - 2 : 0;
            at_guard += kind == 2 && t + guard == now;
        }
        bool expect = timing.visibleAt(t, prod, cons) <= now;
        EXPECT_EQ(me.visibleOnEdge(t, prod, now), expect)
            << "t=" << t << " now=" << now << " guard=" << guard;
        (expect ? visible : hidden) += 1;
    }
    EXPECT_GT(visible, 3'000);
    EXPECT_GT(hidden, 3'000);
    EXPECT_GT(at_guard, 500);
}
