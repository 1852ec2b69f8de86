/**
 * @file
 * Port-layer unit tests: the publication-order rule lives in
 * core/ports.hh and nowhere else, so these tests pin its semantics
 * directly — a publication at tick t is consumable by a
 * higher-indexed domain at t and by a lower-indexed domain strictly
 * after t, and a deliberately mis-ordered explicit wake is rejected
 * (asserted) by the port rather than silently delivered. The FIFO
 * and store-buffer ports must wake their producer exactly on the
 * pop-from-full transition.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "clock/clock.hh"
#include "common/random.hh"
#include "core/domain.hh"
#include "core/ports.hh"

using namespace gals;

namespace
{

/** Four identical 1 GHz clocks on a clean grid. */
std::array<Clock, 4>
testClocks()
{
    return {Clock(1000, 1000), Clock(1000, 1000), Clock(1000, 1000),
            Clock(1000, 1000)};
}

} // namespace

TEST(Ports, PublishRespectsPublicationOrder)
{
    std::array<Clock, 4> clocks = testClocks();
    WakeFabric fabric(clocks.data(), kNumDomains);
    WakeHub hub(fabric, 0, kNumDomains);
    fabric.beginEventRun();
    // Park everything so the recorded wake bounds are visible.
    for (int d = 0; d < kNumDomains; ++d)
        fabric.setBound(d, kTickMax);

    // Load/store (3) publishing to the front end (0): the front
    // end's step at t already ran, so the wake lands strictly after.
    WakePort up(hub, DomainId::LoadStore, DomainId::FrontEnd);
    up.publish(5000);
    EXPECT_EQ(fabric.bound(0), 5001u);

    // Front end (0) publishing to the load/store unit (3): the
    // consumer steps after the producer on equal ticks, so the wake
    // lands at t itself.
    WakePort down(hub, DomainId::FrontEnd, DomainId::LoadStore);
    down.publish(5000);
    EXPECT_EQ(fabric.bound(3), 5000u);

    // Self-publication is consumable at the same tick (the reference
    // kernel's next step of this domain is after t).
    WakePort self(hub, DomainId::Integer, DomainId::Integer);
    self.publish(7000);
    EXPECT_EQ(fabric.bound(1), 7000u);
}

TEST(Ports, PublishAtAcceptsRuleRespectingTimes)
{
    std::array<Clock, 4> clocks = testClocks();
    WakeFabric fabric(clocks.data(), kNumDomains);
    WakeHub hub(fabric, 0, kNumDomains);
    for (int d = 0; d < kNumDomains; ++d)
        fabric.setBound(d, kTickMax);

    WakePort up(hub, DomainId::Integer, DomainId::FrontEnd);
    up.publishAt(4000, 4001); // earliest legal tick.
    EXPECT_EQ(fabric.bound(0), 4001u);

    WakePort down(hub, DomainId::FrontEnd, DomainId::Integer);
    down.publishAt(4000, 4000); // equal tick legal for dst > src.
    EXPECT_EQ(fabric.bound(1), 4000u);

    // Wakes never move a bound later (monotone min).
    up.publishAt(4000, 9000);
    EXPECT_EQ(fabric.bound(0), 4001u);
}

TEST(PortsDeathTest, MisorderedPublicationIsRejected)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    std::array<Clock, 4> clocks = testClocks();
    WakeFabric fabric(clocks.data(), kNumDomains);
    WakeHub hub(fabric, 0, kNumDomains);

    // A wake at t toward a lower-indexed domain claims the consumer
    // can observe state its step at t provably did not see — exactly
    // the divergence class the rule exists to prevent. The port must
    // reject it, not deliver it.
    WakePort up(hub, DomainId::LoadStore, DomainId::FrontEnd);
    EXPECT_DEATH(up.publishAt(5000, 5000), "publication order");
    EXPECT_DEATH(up.publishAt(5000, 4999), "publication order");

    // Same rule for the re-lock landing channel.
    ReclockPort reclock(hub);
    EXPECT_DEATH(reclock.schedule(DomainId::FrontEnd, 0, 5000),
                 "publication");
}

TEST(Ports, DispatchPortWakesProducerOnlyOnPopFromFull)
{
    std::array<Clock, 4> clocks = testClocks();
    WakeFabric fabric(clocks.data(), kNumDomains);
    WakeHub hub(fabric, 0, kNumDomains);
    for (int d = 0; d < kNumDomains; ++d)
        fabric.setBound(d, kTickMax);

    DispatchPort port(hub, DomainId::FrontEnd, DomainId::Integer, 2);
    port.push(7, 2000, 1000);
    // The consumer is woken for the entry's visibility time.
    EXPECT_EQ(fabric.bound(1), 2000u);

    // Pop while the FIFO was not full: rename was not blocked on it,
    // so the producer must NOT be woken.
    port.consume(2000, [](size_t) { return true; });
    EXPECT_EQ(fabric.bound(0), kTickMax);

    // Fill it, then pop: the producer wakes strictly after the
    // consuming step's tick (Integer > FrontEnd).
    port.push(8, 3000, 2500);
    port.push(9, 3000, 2500);
    EXPECT_EQ(port.freeSlots(), 0u);
    port.consume(3000, [](size_t) { return true; });
    EXPECT_EQ(fabric.bound(0), 3001u);
}

TEST(Ports, StoreBufferPortWakesFrontEndOnPopFromFull)
{
    std::array<Clock, 4> clocks = testClocks();
    WakeFabric fabric(clocks.data(), kNumDomains);
    WakeHub hub(fabric, 0, kNumDomains);
    for (int d = 0; d < kNumDomains; ++d)
        fabric.setBound(d, kTickMax);

    StoreBufferPort sb(hub, 2);
    sb.push(0x10, 1000);
    EXPECT_EQ(fabric.bound(3), 1000u); // drain side woken at push tick.

    sb.pop(2000); // was not full: retire was not blocked.
    EXPECT_EQ(fabric.bound(0), kTickMax);

    sb.push(0x11, 3000);
    sb.push(0x12, 3000);
    EXPECT_TRUE(sb.full());
    sb.pop(4000); // pop-from-full unblocks retire, strictly after.
    EXPECT_EQ(fabric.bound(0), 4001u);
}

TEST(Ports, EpochBumpBroadcastFollowsReferenceOrder)
{
    std::array<Clock, 4> clocks = testClocks();
    CoreTiming timing(clocks.data(), false);
    WakeFabric fabric(clocks.data(), kNumDomains);
    WakeHub hub(fabric, 0, kNumDomains);
    for (int d = 0; d < kNumDomains; ++d)
        fabric.setBound(d, kTickMax);

    EpochBumpPort port(hub, timing);
    std::uint32_t before = timing.epoch();
    // Domain 2's period change lands at t: lower-indexed sleepers
    // already stepped at t under the old grid and re-derive strictly
    // after; higher-indexed ones step at t itself.
    port.broadcast(2, 8000);
    EXPECT_EQ(timing.epoch(), before + 1);
    EXPECT_EQ(fabric.bound(0), 8001u);
    EXPECT_EQ(fabric.bound(1), 8001u);
    EXPECT_EQ(fabric.bound(2), kTickMax); // the changed domain itself.
    EXPECT_EQ(fabric.bound(3), 8000u);
}

TEST(Ports, WakeHubHeadPrefersEarliestThenLowestIndex)
{
    std::array<Clock, 4> clocks = testClocks();
    WakeFabric fabric(clocks.data(), kNumDomains);
    WakeHub hub(fabric, 0, kNumDomains);
    fabric.setKey(0, 5000);
    fabric.setKey(1, 4000);
    fabric.setKey(2, 4000);
    fabric.setKey(3, 6000);
    EXPECT_EQ(fabric.head(), 1); // earliest wins; ties to lowest index.
    fabric.park(1);
    EXPECT_EQ(fabric.head(), 2);
}

/**
 * The packed calendar against a plain linear scan of (tick, index)
 * on fabrics of one, two, eight and sixteen cores: random re-keys,
 * parks and port wakes over a narrow tick range (so ties are
 * common), interleaved with all-parked rounds and keys at the top of
 * the packed tick range.
 */
TEST(Ports, PackedCalendarHeadMatchesLinearScan)
{
    Pcg32 rng(0xCA1E4DA2, 3);
    const Tick kTopTick = (kTickMax >> WakeFabric::kIndexBits) - 1;
    for (int count : {4, 8, 32, 64}) {
        SCOPED_TRACE("domains=" + std::to_string(count));
        std::vector<Clock> clocks(static_cast<size_t>(count),
                                  Clock(1000, 1000));
        WakeFabric fabric(clocks.data(), count);
        std::vector<WakeHub> hubs;
        hubs.reserve(static_cast<size_t>(count / kNumDomains));
        for (int c = 0; c < count / kNumDomains; ++c)
            hubs.emplace_back(fabric, c * kNumDomains, kNumDomains);
        fabric.beginEventRun();
        std::vector<Tick> key(static_cast<size_t>(count), 1000);

        // Reference: earliest key, lowest index on ties; domain 0
        // when every domain is parked.
        auto scan = [&] {
            int best = 0;
            for (int d = 1; d < count; ++d) {
                if (key[static_cast<size_t>(d)] <
                    key[static_cast<size_t>(best)])
                    best = d;
            }
            return best;
        };
        for (int op = 0; op < 4000; ++op) {
            int d = static_cast<int>(
                rng.nextBounded(static_cast<std::uint32_t>(count)));
            size_t di = static_cast<size_t>(d);
            Tick t = 1000 + rng.nextBounded(8);
            switch (rng.nextRange(0, 9)) {
              case 0: case 1: case 2:
                fabric.setKey(d, t);
                key[di] = t;
                break;
              case 3:
                fabric.park(d);
                key[di] = kTickMax;
                break;
              case 4:
                fabric.setKey(d, kTopTick);
                key[di] = kTopTick;
                break;
              case 5:
                for (int k = 0; k < count; ++k) {
                    fabric.park(k);
                    key[static_cast<size_t>(k)] = kTickMax;
                }
                break;
              default: {
                // A port wake: the bound drops to the wake time, the
                // key to the first edge at or after it.
                fabric.setBound(d, kTickMax);
                DomainId dst = static_cast<DomainId>(d % kNumDomains);
                WakePort(hubs[static_cast<size_t>(d / kNumDomains)],
                         DomainId::FrontEnd, dst)
                    .publishAt(t - 1, t);
                EXPECT_EQ(fabric.bound(d), t);
                key[di] = std::min(key[di], std::max(Tick{1000}, t));
                break;
              }
            }
            ASSERT_EQ(fabric.head(), scan()) << "op " << op;
            ASSERT_EQ(fabric.key(d), key[di]) << "op " << op;
        }
    }
}

TEST(PortsDeathTest, CalendarKeyBeyondPackedWidthAsserts)
{
    std::array<Clock, 4> clocks = testClocks();
    WakeFabric fabric(clocks.data(), kNumDomains);
    const Tick top = (kTickMax >> WakeFabric::kIndexBits) - 1;
    fabric.setKey(1, top); // the widest legal tick.
    EXPECT_EQ(fabric.key(1), top);
    EXPECT_DEATH(fabric.setKey(1, top + 1), "packed key width");
}
