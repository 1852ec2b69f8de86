/**
 * @file
 * Tests for the adaptive control algorithms: the ILP timestamp
 * tracker, the issue-queue and cache decisions, the phase
 * controller's vote rule, and the reconfiguration trace.
 */

#include <gtest/gtest.h>

#include <functional>

#include "cache/shared_l2.hh"
#include "cmp/core.hh"
#include "control/cache_controller.hh"
#include "control/ilp_tracker.hh"
#include "control/reconfig_trace.hh"
#include "core/reconfig.hh"
#include "timing/frequency_model.hh"
#include "timing/gate_cost.hh"

using namespace gals;

namespace
{

MicroOp
alu(int dst, int src1, int src2 = kZeroReg)
{
    MicroOp op;
    op.cls = OpClass::IntAlu;
    op.dst = static_cast<std::int8_t>(dst);
    op.src1 = static_cast<std::int8_t>(src1);
    op.src2 = static_cast<std::int8_t>(src2);
    return op;
}

MicroOp
fpalu(int dst, int src1)
{
    MicroOp op;
    op.cls = OpClass::FpAlu;
    op.dst = static_cast<std::int8_t>(dst);
    op.src1 = static_cast<std::int8_t>(src1);
    op.src2 = static_cast<std::int8_t>(kFirstFpReg);
    return op;
}

/** Feed the tracker until a sample is ready; returns it. */
IlpSample
drive(IlpTracker &t, const std::function<MicroOp(int)> &gen)
{
    int i = 0;
    while (!t.sampleReady())
        t.onRename(gen(i++));
    return t.takeSample();
}

} // namespace

TEST(IlpTracker, SerialChainSaturatesTimestamps)
{
    IlpTracker t;
    // One long chain: r8 <- r8 forever. M_N == min(N, ts_max).
    IlpSample s = drive(t, [](int) { return alu(8, 8); });
    // ILP16 uses 4-bit timestamps: M saturates at 15.
    EXPECT_EQ(s.m_int[0], 15u);
    // ILP32 (5 bits): saturates at 31 exactly as the window ends.
    EXPECT_EQ(s.m_int[1], 31u);
    // ILP48 (6 bits): the chain deepens to 48 without saturating.
    EXPECT_EQ(s.m_int[2], 48u);
    // ILP64 (6 bits): saturates at 63.
    EXPECT_EQ(s.m_int[3], 63u);
    EXPECT_EQ(s.n_int[0], 16u);
    EXPECT_EQ(s.n_int[3], 64u);
}

TEST(IlpTracker, IndependentOpsHaveIlpN)
{
    IlpTracker t;
    // Every op reads the zero register: all timestamps are 1.
    IlpSample s = drive(t, [](int i) {
        return alu(8 + (i % 20), kZeroReg);
    });
    for (int k = 0; k < 4; ++k)
        EXPECT_EQ(s.m_int[static_cast<size_t>(k)], 1u);
}

TEST(IlpTracker, SegmentedChainsShowDistantParallelism)
{
    IlpTracker t;
    // Four chains in segments of 16: within a 16-op window one chain
    // of depth 16 is visible; across 64 ops each chain only deepens
    // to 16.
    IlpSample s = drive(t, [](int i) {
        int chain = (i / 16) % 4;
        int reg = 8 + chain;
        return alu(reg, reg);
    });
    EXPECT_EQ(s.m_int[0], 15u);  // 16-op window: one chain, saturated.
    EXPECT_EQ(s.m_int[3], 16u);  // 64-op window: 4 chains of depth 16.
    double ilp16 = 16.0 / s.m_int[0];
    double ilp64 = 64.0 / s.m_int[3];
    EXPECT_GT(ilp64, 3.0 * ilp16);
}

TEST(IlpTracker, FpAndIntTrackedSeparately)
{
    IlpTracker t;
    // Alternate int and fp chains.
    IlpSample s = drive(t, [](int i) {
        if (i % 2 == 0)
            return alu(8, 8);
        return fpalu(kFirstFpReg + 8, kFirstFpReg + 8);
    });
    EXPECT_GT(s.m_int[3], 20u);
    EXPECT_GT(s.m_fp[3], 20u);
    // Window ends when EITHER type reaches N: both types got ~N ops.
    EXPECT_LE(s.n_int[0], 16u);
    EXPECT_LE(s.n_fp[0], 16u);
}

TEST(IlpTracker, DominantTypeStiflesTheOther)
{
    IlpTracker t;
    // Pure integer stream: the fp count stays 0, so fp windows end
    // with no fp evidence (m_fp == 0).
    IlpSample s = drive(t, [](int) { return alu(8, 8); });
    EXPECT_EQ(s.m_fp[0], 0u);
    EXPECT_EQ(s.n_fp[0], 0u);
}

TEST(IlpTracker, SamplesRestartCleanly)
{
    IlpTracker t;
    drive(t, [](int) { return alu(8, 8); });
    EXPECT_EQ(t.samples(), 1u);
    // Second interval with independent ops must not inherit depth.
    IlpSample s = drive(t, [](int i) {
        return alu(8 + (i % 20), kZeroReg);
    });
    EXPECT_EQ(s.m_int[0], 1u);
    EXPECT_EQ(t.samples(), 2u);
}

// ---------------------------------------------------------------------
// Issue-queue decision.
// ---------------------------------------------------------------------

namespace
{
IlpSample
sampleWithMInt(std::uint32_t m16, std::uint32_t m32, std::uint32_t m48,
               std::uint32_t m64)
{
    IlpSample s{};
    s.m_int = {m16, m32, m48, m64};
    s.n_int = {16, 32, 48, 64};
    s.m_fp = {0, 0, 0, 0};
    s.n_fp = {0, 0, 0, 0};
    return s;
}
} // namespace

TEST(QueueController, SerialCodePicksSmallestQueue)
{
    // Chain depth == window: ILP ~1 everywhere; frequency wins.
    QueueDecision d =
        chooseIssueQueue(sampleWithMInt(15, 31, 47, 63), false);
    EXPECT_EQ(d.best_index, 0);
}

TEST(QueueController, DistantParallelismPicksLargeQueue)
{
    // Four chains in long segments: M stays ~16 at every window.
    QueueDecision d =
        chooseIssueQueue(sampleWithMInt(15, 16, 16, 16), false);
    EXPECT_EQ(d.best_index, 3);
    // Score ratio beats the frequency ratio.
    EXPECT_GT(d.score[3], d.score[0]);
}

TEST(QueueController, AbundantNearParallelismStaysSmall)
{
    // ILP ~8 already visible at window 16: N/M grows linearly with N
    // only if M stays flat; here M grows proportionally.
    QueueDecision d =
        chooseIssueQueue(sampleWithMInt(2, 4, 6, 8), false);
    EXPECT_EQ(d.best_index, 0);
}

TEST(QueueController, NoEvidenceDefaultsToSmallest)
{
    // fp stream, but the sample has no fp ops.
    QueueDecision d =
        chooseIssueQueue(sampleWithMInt(15, 16, 16, 16), true);
    EXPECT_EQ(d.best_index, 0);
    EXPECT_EQ(d.score[0], 0.0);
}

TEST(QueueController, MidWindowSweetSpot)
{
    // Two chains, segments of 16: window 32 sees both; windows 48/64
    // see no additional chains (M grows again).
    QueueDecision d =
        chooseIssueQueue(sampleWithMInt(15, 16, 24, 32), false);
    EXPECT_EQ(d.best_index, 1);
}

// ---------------------------------------------------------------------
// The phase controller's vote rule (ReconfigUnit::queueSample): the
// hysteresis margin picks a proposal, the persistence count decides
// when it becomes a re-lock request (one ReconfigTrace event each).
// ---------------------------------------------------------------------

namespace
{

/** A domain unit that does nothing; the rule under test only needs
 * somewhere to dispatch resizes. */
class IdleDomain final : public Domain
{
  public:
    using Domain::Domain;
    Tick step(Tick) override { return kTickMax; }
    void resizeStructure(int) override {}
};

/** MCD phase-adaptive config, integer queue at `iq_int` at start. */
MachineConfig
phaseConfig(int iq_int, double queue_hysteresis)
{
    MachineConfig cfg = MachineConfig::mcdPhaseAdaptive();
    cfg.adaptive.iq_int = iq_int;
    cfg.queue_hysteresis = queue_hysteresis;
    return cfg;
}

/** One core's ReconfigUnit over idle domains and a one-core L2. */
struct ControllerRig
{
    explicit ControllerRig(const MachineConfig &c)
        : cfg(c), cur(c.adaptive), clocks(makeCoreClocks(c)),
          timing(clocks.data(), false),
          fabric(clocks.data(), kNumDomains),
          hub(fabric, 0, kNumDomains), reclock(hub), l2(l2Params()),
          icp(l2, 1),
          unit(cfg, cur, timing, reclock, l1i, l1d, icp, 0)
    {
        unit.attachDomains({&fe, &int_cluster, &fp_cluster, &ls});
    }

    static SharedL2::Params
    l2Params()
    {
        SharedL2::Params p;
        p.cores = 1;
        p.banks = 1;
        return p;
    }

    /** Feed one sample at the current tick; returns the number of
     * requests the unit has started so far. */
    size_t
    feed(const IlpSample &s)
    {
        unit.queueSample(s, now, 0);
        return unit.trace().events().size();
    }

    /** Move past every re-lock window and land pending changes, as
     * the domains' next steps would. */
    void
    settle()
    {
        now += 100'000'000; // 100 us: beyond any PLL lock time.
        for (int d = 0; d < kNumDomains; ++d)
            unit.applyPending(static_cast<DomainId>(d), now);
    }

    MachineConfig cfg;
    AdaptiveConfig cur;
    std::array<Clock, kNumDomains> clocks;
    CoreTiming timing;
    WakeFabric fabric;
    WakeHub hub;
    ReclockPort reclock;
    AccountingCache l1i{"l1i", 64 * 1024, 4};
    AccountingCache l1d{"l1d", 256 * 1024, 8};
    SharedL2 l2;
    InterconnectPort icp;
    IdleDomain fe{DomainId::FrontEnd, timing};
    IdleDomain int_cluster{DomainId::Integer, timing};
    IdleDomain fp_cluster{DomainId::FloatingPoint, timing};
    IdleDomain ls{DomainId::LoadStore, timing};
    ReconfigUnit unit;
    Tick now = 1'000'000;
};

// Integer-stream samples (no FP evidence, so the FP queue always
// proposes its current size 0).
const IlpSample kSerial = sampleWithMInt(15, 31, 47, 63);  // best 0.
const IlpSample kDistant = sampleWithMInt(15, 16, 16, 16); // best 3.
const IlpSample kMid = sampleWithMInt(15, 16, 24, 32);     // best 1.

} // namespace

TEST(PhaseController, ProposingTheCurrentConfigResetsTheCount)
{
    ControllerRig rig(phaseConfig(0, 0.08));
    rig.cfg.queue_persistence = 3;
    EXPECT_EQ(rig.feed(kDistant), 0u);
    EXPECT_EQ(rig.feed(kDistant), 0u);
    EXPECT_EQ(rig.feed(kSerial), 0u); // proposes size 0 = current.
    EXPECT_EQ(rig.feed(kDistant), 0u);
    EXPECT_EQ(rig.feed(kDistant), 0u);
    ASSERT_EQ(rig.feed(kDistant), 1u);
    EXPECT_EQ(rig.unit.trace().events()[0],
              (ReconfigEvent{0, Structure::IntIssueQueue, 0, 3}));
}

TEST(PhaseController, NewProposalRestartsTheCountAtOne)
{
    ControllerRig rig(phaseConfig(0, 0.08));
    rig.cfg.queue_persistence = 3;
    EXPECT_EQ(rig.feed(kDistant), 0u);
    EXPECT_EQ(rig.feed(kDistant), 0u);
    EXPECT_EQ(rig.feed(kMid), 0u); // a different target: count 1.
    EXPECT_EQ(rig.feed(kMid), 0u);
    ASSERT_EQ(rig.feed(kMid), 1u);
    EXPECT_EQ(rig.unit.trace().events()[0],
              (ReconfigEvent{0, Structure::IntIssueQueue, 0, 1}));
}

TEST(PhaseController, RequestFiresAfterExactlyPersistenceThenCountResets)
{
    // Start at the largest queue: shrinking it speeds the clock up,
    // so the change applies at once and its PLL stays busy through
    // the lock window.
    ControllerRig rig(phaseConfig(3, 0.08));
    const int need = rig.cfg.queue_persistence;
    ASSERT_GT(need, 1);
    for (int i = 1; i < need; ++i)
        ASSERT_EQ(rig.feed(kSerial), 0u) << "interval " << i;
    ASSERT_EQ(rig.feed(kSerial), 1u);
    EXPECT_EQ(rig.cur.iq_int, 0);

    // Inside the lock window: `need` votes for size 3 fire a request
    // the busy PLL drops, and the fire resets the count all the same.
    for (int i = 0; i < need; ++i)
        ASSERT_EQ(rig.feed(kDistant), 1u);
    rig.settle();
    for (int i = 1; i < need; ++i)
        ASSERT_EQ(rig.feed(kDistant), 1u) << "interval " << i;
    ASSERT_EQ(rig.feed(kDistant), 2u);
    EXPECT_EQ(rig.unit.trace().events()[1],
              (ReconfigEvent{0, Structure::IntIssueQueue, 0, 3}));
}

TEST(PhaseController, CandidateInsideTheMarginNeverProposes)
{
    // Size 1 scores ~4.7% above the current size 0: better, but
    // inside the 8% margin.
    const IlpSample close = sampleWithMInt(16, 21, 48, 64);
    QueueDecision d = chooseIssueQueue(close, false);
    ASSERT_EQ(d.best_index, 1);
    ASSERT_GT(d.score[1], d.score[0]);
    ASSERT_LT(d.score[1], d.score[0] * 1.08);

    ControllerRig rig(phaseConfig(0, 0.08));
    for (int i = 0; i < 4 * rig.cfg.queue_persistence; ++i) {
        ASSERT_EQ(rig.feed(close), 0u) << "interval " << i;
        rig.settle();
    }

    // Without the margin the same samples do propose.
    ControllerRig bare(phaseConfig(0, 0.0));
    for (int i = 1; i < bare.cfg.queue_persistence; ++i)
        ASSERT_EQ(bare.feed(close), 0u);
    EXPECT_EQ(bare.feed(close), 1u);
}

// ---------------------------------------------------------------------
// Cache controllers.
// ---------------------------------------------------------------------

namespace
{
IntervalCounts
counts8(std::initializer_list<std::uint64_t> hits, std::uint64_t misses)
{
    IntervalCounts c;
    c.mru_hits.assign(hits);
    c.misses = misses;
    for (auto h : hits)
        c.accesses += h;
    c.accesses += misses;
    return c;
}
} // namespace

TEST(CacheController, SmallWorkingSetPicksMinimalPair)
{
    // All hits at MRU position 0 in both caches.
    IntervalCounts l1 = counts8({10000, 0, 0, 0, 0, 0, 0, 0}, 50);
    IntervalCounts l2 = counts8({50, 0, 0, 0, 0, 0, 0, 0}, 10);
    CacheDecision d = chooseDCachePair(l1, l2, memoryLineFillPs());
    EXPECT_EQ(d.best_index, 0);
    EXPECT_LT(d.cost_ps[0], d.cost_ps[3]);
}

TEST(CacheController, DeepReusePicksLargePair)
{
    // Most hits sit at MRU positions 4..7: only the 8-way A captures
    // them at the fast A latency, and misses to memory are costly.
    IntervalCounts l1 =
        counts8({500, 200, 200, 200, 2000, 2000, 2000, 2000}, 800);
    IntervalCounts l2 =
        counts8({100, 50, 50, 50, 800, 800, 800, 800}, 500);
    CacheDecision d = chooseDCachePair(l1, l2, memoryLineFillPs());
    EXPECT_EQ(d.best_index, 3);
}

TEST(CacheController, ICacheFollowsSameRule)
{
    IntervalCounts fits = counts8({20000, 0, 0, 0}, 20);
    CacheDecision d0 = chooseICache(fits, 20'000);
    EXPECT_EQ(d0.best_index, 0);

    IntervalCounts deep = counts8({2000, 4000, 4000, 4000}, 500);
    CacheDecision d3 = chooseICache(deep, 20'000);
    EXPECT_GT(d3.best_index, 0);
}

TEST(CacheController, CostlyMissesPushTowardCapacity)
{
    IntervalCounts borderline = counts8({5000, 1500, 0, 0}, 100);
    // Cheap misses: stay small. Expensive misses: same counters now
    // favor capacity.
    CacheDecision cheap = chooseICache(borderline, 5'000);
    CacheDecision dear = chooseICache(borderline, 400'000);
    EXPECT_LE(cheap.best_index, dear.best_index);
}

TEST(CacheController, DecisionCyclesFromGateModel)
{
    // Table 4: ~32 cycles of decision hardware (scored by repro).
    EXPECT_EQ(GateCostModel().decisionCycles(), 32);
}

// ---------------------------------------------------------------------
// Reconfiguration trace.
// ---------------------------------------------------------------------

TEST(ReconfigTrace, RecordsAndFilters)
{
    ReconfigTrace t;
    t.record(1000, Structure::ICache, 0, 1);
    t.record(2000, Structure::DCachePair, 0, 2);
    t.record(3000, Structure::ICache, 1, 0);
    EXPECT_EQ(t.events().size(), 3u);
    EXPECT_EQ(t.countFor(Structure::ICache), 2u);
    auto ic = t.eventsFor(Structure::ICache);
    ASSERT_EQ(ic.size(), 2u);
    EXPECT_EQ(ic[1].committed_instrs, 3000u);
    EXPECT_EQ(ic[1].to_index, 0);
    t.clear();
    EXPECT_TRUE(t.events().empty());
}

TEST(ReconfigTrace, StructureNames)
{
    EXPECT_STREQ(structureName(Structure::ICache), "I-cache");
    EXPECT_STREQ(structureName(Structure::IntIssueQueue), "int-IQ");
}
