/** @file Tests for ROB, issue queue, LSQ, store buffer, FUs and
 * rename. */

#include <gtest/gtest.h>

#include "core/machine_config.hh"
#include "core/regfile.hh"
#include "core/structures.hh"

using namespace gals;

TEST(Rob, CapacityAndAgePositions)
{
    Rob rob(4);
    EXPECT_EQ(rob.capacity(), 4u);
    EXPECT_EQ(rob.freeSlots(), 4u);
    size_t a = rob.alloc();
    size_t b = rob.alloc();
    rob[a].seq = 10;
    rob[b].seq = 11;
    EXPECT_EQ(rob.freeSlots(), 2u);
    EXPECT_EQ(rob.indexAt(0), a);
    EXPECT_EQ(rob.indexAt(1), b);
    rob.retireHead();
    // Wrap: allocate past the physical end of the ring.
    size_t c = rob.alloc();
    size_t d = rob.alloc();
    size_t e = rob.alloc();
    rob[c].seq = 12;
    rob[d].seq = 13;
    rob[e].seq = 14;
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.indexAt(0), b);
    EXPECT_EQ(rob[rob.indexAt(3)].seq, 14u);
}

TEST(Rob, CircularAllocation)
{
    Rob rob(4);
    EXPECT_TRUE(rob.empty());
    size_t a = rob.alloc();
    size_t b = rob.alloc();
    rob[a].seq = 1;
    rob[b].seq = 2;
    EXPECT_EQ(rob.size(), 2u);
    EXPECT_EQ(rob[rob.headIndex()].seq, 1u);
    rob.retireHead();
    EXPECT_EQ(rob[rob.headIndex()].seq, 2u);
    rob.alloc();
    rob.alloc();
    rob.alloc();
    EXPECT_TRUE(rob.full());
}

namespace
{

/** Allocate a candidate slot with the given age and ROB index. */
std::int32_t
allocCandidate(IssueQueue &iq, SeqNum seq, std::uint32_t rob_idx)
{
    std::int32_t id = iq.alloc();
    iq.slot(id).seq = seq;
    iq.slot(id).rob_idx = rob_idx;
    iq.pushCandidate(id, true);
    return id;
}

/** Take the oldest candidate off the ring (kept live in the pool). */
std::int32_t
popOldest(IssueQueue &iq)
{
    std::int32_t got = -1;
    iq.walkCandidates([&](std::int32_t id) {
        if (got != -1)
            return IssueQueue::CandAction::Stop;
        got = id;
        return IssueQueue::CandAction::Drop;
    });
    return got;
}

} // namespace

TEST(IssueQueue, CapacityAndResize)
{
    IssueQueue iq(2);
    allocCandidate(iq, 1, 10);
    allocCandidate(iq, 2, 11);
    EXPECT_TRUE(iq.full());
    iq.setCapacity(4);
    EXPECT_FALSE(iq.full());
    allocCandidate(iq, 3, 12);
    // Shrinking below occupancy is legal; it only blocks new pushes.
    iq.setCapacity(2);
    EXPECT_TRUE(iq.full());
    EXPECT_EQ(iq.size(), 3u);
    // Selection pops candidates oldest-first regardless of capacity.
    std::int32_t id = popOldest(iq);
    EXPECT_EQ(iq.slot(id).rob_idx, 10u);
    iq.freeSlot(id);
    EXPECT_EQ(iq.size(), 2u);
    EXPECT_TRUE(iq.full()); // occupancy drained exactly to capacity.
}

TEST(IssueQueue, CandidatePopsFollowAgeOrder)
{
    IssueQueue iq(8);
    // Push out of age order; pops must come back oldest-first.
    allocCandidate(iq, 7, 107);
    allocCandidate(iq, 3, 103);
    allocCandidate(iq, 5, 105);
    allocCandidate(iq, 1, 101);
    SeqNum prev = 0;
    while (iq.hasCandidates()) {
        std::int32_t id = popOldest(iq);
        EXPECT_GT(iq.slot(id).seq, prev);
        prev = iq.slot(id).seq;
        iq.freeSlot(id);
    }
    EXPECT_EQ(prev, 7u);
    EXPECT_EQ(iq.size(), 0u);
}

TEST(IssueQueue, ReadyRingWrapAroundRecyclesSlots)
{
    // The slot pool and both rings must survive churn far past
    // capacity: ids recycle through the free list while the heaps
    // keep age order.
    IssueQueue iq(4);
    SeqNum seq = 1;
    SeqNum expect_pop = 1;
    for (int round = 0; round < 100; ++round) {
        while (!iq.full())
            allocCandidate(iq, seq++, 0);
        // Retire the two oldest, keep the rest: pops must follow
        // global age order across every wrap of the slot pool.
        for (int k = 0; k < 2; ++k) {
            ASSERT_TRUE(iq.hasCandidates());
            std::int32_t id = popOldest(iq);
            ASSERT_EQ(iq.slot(id).seq, expect_pop++);
            iq.freeSlot(id);
        }
    }
    EXPECT_EQ(iq.size(), 2u);
    EXPECT_GT(seq, 100u);
}

TEST(IssueQueue, WaiterChainsWakeExactlyTheirRegister)
{
    IssueQueue iq(8);
    iq.initWaiterIndex(96, 96);
    std::int32_t a = iq.alloc();
    iq.slot(a).seq = 1;
    std::int32_t b = iq.alloc();
    iq.slot(b).seq = 2;

    PhysRef r5{5, false};
    PhysRef r9{9, true};
    iq.addWaiter(r5, a, 0);
    iq.addWaiter(r9, a, 1); // a waits on both files.
    iq.addWaiter(r5, b, 0);

    // The fold stands in for the completion port's slotReadyAt; it
    // must run exactly for the slots a completion frees (logged by
    // age key).
    std::vector<SeqNum> folded;
    auto fold = [&folded](Tick at) {
        return [&folded, at](const IqSlot &s) {
            folded.push_back(s.seq);
            return at;
        };
    };

    // Completing an unrelated register wakes nobody.
    EXPECT_FALSE(iq.wakeWaiters(PhysRef{6, false}, fold(0)));
    EXPECT_TRUE(folded.empty());

    // Completing r5 frees b, which lands in the timer ring at its
    // folded time; a still waits on r9 and stays parked, unfolded.
    EXPECT_TRUE(iq.wakeWaiters(r5, fold(700)));
    EXPECT_EQ(folded, std::vector<SeqNum>{2});
    EXPECT_FALSE(iq.hasCandidates());
    EXPECT_EQ(iq.minTimed(), 700u);
    EXPECT_TRUE(iq.slot(b).in_timed);
    EXPECT_FALSE(iq.slot(b).needs_eval);
    EXPECT_EQ(iq.slot(b).ready_at, 700u);
    EXPECT_FALSE(iq.slot(a).in_timed || iq.slot(a).in_cand);
    EXPECT_EQ(iq.slot(a).next_wait[0], kIqNotChained);
    EXPECT_NE(iq.slot(a).next_wait[1], kIqNotChained);

    // A second completion of the same register is a no-op chain walk.
    EXPECT_FALSE(iq.wakeWaiters(r5, fold(0)));
    EXPECT_EQ(folded.size(), 1u);

    // r9 frees a at an earlier folded time: the timer ring orders by
    // ready time, and both arrive as proven-ready candidates in age
    // order once due.
    EXPECT_TRUE(iq.wakeWaiters(r9, fold(600)));
    EXPECT_EQ(folded, (std::vector<SeqNum>{2, 1}));
    EXPECT_EQ(iq.minTimed(), 600u);
    iq.promoteDue(700);
    EXPECT_EQ(iq.candCount(), 2u);
    EXPECT_FALSE(iq.slot(a).needs_eval);
    EXPECT_EQ(popOldest(iq), a);
    EXPECT_EQ(popOldest(iq), b);
}

TEST(IssueQueue, TimedPromotionAndEpochInvalidation)
{
    IssueQueue iq(8);
    std::int32_t a = iq.alloc();
    iq.slot(a).seq = 1;
    iq.slot(a).ready_at = 500;
    std::int32_t b = iq.alloc();
    iq.slot(b).seq = 2;
    iq.slot(b).ready_at = 300;
    iq.pushTimed(a);
    iq.pushTimed(b);
    EXPECT_EQ(iq.minTimed(), 300u);

    // Nothing due yet: the ring is untouched.
    iq.promoteDue(299);
    EXPECT_FALSE(iq.hasCandidates());

    // b matures first; it arrives as a no-reevaluation candidate.
    iq.promoteDue(300);
    EXPECT_EQ(iq.candCount(), 1u);
    EXPECT_EQ(iq.minTimed(), 500u);
    std::int32_t id = popOldest(iq);
    EXPECT_EQ(id, b);
    EXPECT_FALSE(iq.slot(b).needs_eval);
    iq.pushCandidate(b, false);

    // An epoch bump stales every memoized time: the timer ring
    // drains into the candidate ring and everything re-evaluates.
    iq.invalidateTimes();
    EXPECT_EQ(iq.minTimed(), kTickMax);
    EXPECT_EQ(iq.candCount(), 2u);
    EXPECT_TRUE(iq.slot(a).needs_eval);
    EXPECT_TRUE(iq.slot(b).needs_eval);
}

TEST(Lsq, ProgramOrderAndArrivals)
{
    Lsq lsq(4);
    lsq.allocate(0, false, 100);
    lsq.allocate(1, true, 101);
    lsq.allocate(2, false, 100);
    lsq.markArrived(50);
    lsq.markArrived(60);
    EXPECT_EQ(lsq.at(0).arrived_at, 50u);
    EXPECT_EQ(lsq.at(1).arrived_at, 60u);
    EXPECT_EQ(lsq.at(2).arrived_at, kTickMax);
    EXPECT_EQ(lsq.front().rob_idx, 0u);
    lsq.popFront();
    EXPECT_TRUE(lsq.front().is_store);
    EXPECT_EQ(lsq.size(), 2u);
}

TEST(Lsq, EntriesJoinWalkListsAtAgenIssueInAgeOrder)
{
    Lsq lsq(8);
    std::uint64_t ld0 = lsq.allocate(0, false, 100);
    std::uint64_t st1 = lsq.allocate(1, true, 101);
    std::uint64_t ld2 = lsq.allocate(2, false, 102);
    std::uint64_t st3 = lsq.allocate(3, true, 103);
    std::uint64_t ld4 = lsq.allocate(4, false, 104);
    // Allocation alone puts nothing on a walk list.
    EXPECT_TRUE(lsq.waitingLoads().empty());
    EXPECT_TRUE(lsq.pendingStores().empty());

    // Agen issues out of age order; each list stays age-ordered.
    lsq.agenIssued(ld4);
    lsq.agenIssued(st3);
    lsq.agenIssued(ld0);
    EXPECT_EQ(lsq.waitingLoads(), (std::vector<std::uint64_t>{ld0, ld4}));
    EXPECT_EQ(lsq.pendingStores(), std::vector<std::uint64_t>{st3});
    lsq.agenIssued(ld2);
    lsq.agenIssued(st1);
    EXPECT_EQ(lsq.waitingLoads(),
              (std::vector<std::uint64_t>{ld0, ld2, ld4}));
    EXPECT_EQ(lsq.pendingStores(),
              (std::vector<std::uint64_t>{st1, st3}));
}

TEST(FuPool, AluWidthEnforced)
{
    FuPool fu;
    fu.alus = 2;
    fu.newCycle();
    EXPECT_TRUE(fu.claim(OpClass::IntAlu, 100, 101));
    EXPECT_TRUE(fu.claim(OpClass::Branch, 100, 101));
    EXPECT_FALSE(fu.claim(OpClass::IntAlu, 100, 101));
    fu.newCycle();
    EXPECT_TRUE(fu.claim(OpClass::IntAlu, 200, 201));
}

TEST(FuPool, DivideOccupiesUnit)
{
    FuPool fu;
    fu.newCycle();
    EXPECT_TRUE(fu.claim(OpClass::IntDiv, 100, 2100));
    fu.newCycle();
    // Pipelined multiply cannot start while the divide occupies the
    // shared unit.
    EXPECT_FALSE(fu.claim(OpClass::IntMul, 200, 500));
    fu.newCycle();
    EXPECT_TRUE(fu.claim(OpClass::IntMul, 2100, 2400));
}

TEST(FuPool, MultipliesArePipelinedOnePerCycle)
{
    FuPool fu;
    fu.newCycle();
    EXPECT_TRUE(fu.claim(OpClass::FpMul, 100, 500));
    EXPECT_FALSE(fu.claim(OpClass::FpMul, 100, 500));
    fu.newCycle();
    EXPECT_TRUE(fu.claim(OpClass::FpMul, 200, 600));
}

TEST(OpLatency, AlphaFlavoredLatencies)
{
    EXPECT_EQ(opLatency(OpClass::IntAlu), 1);
    EXPECT_EQ(opLatency(OpClass::Branch), 1);
    EXPECT_GT(opLatency(OpClass::IntDiv), opLatency(OpClass::IntMul));
    EXPECT_GT(opLatency(OpClass::FpDiv), opLatency(OpClass::FpMul));
}

TEST(ExecDomain, ClassesRouteToDomains)
{
    EXPECT_EQ(execDomain(OpClass::IntAlu), DomainId::Integer);
    EXPECT_EQ(execDomain(OpClass::Branch), DomainId::Integer);
    EXPECT_EQ(execDomain(OpClass::FpMul), DomainId::FloatingPoint);
    EXPECT_EQ(execDomain(OpClass::Load), DomainId::LoadStore);
    EXPECT_EQ(execDomain(OpClass::FpLoad), DomainId::LoadStore);
    EXPECT_EQ(execDomain(OpClass::Store), DomainId::LoadStore);
}

// ---------------------------------------------------------------------
// Register files.
// ---------------------------------------------------------------------

TEST(RegisterFiles, RenameReleaseCycle)
{
    RegisterFiles rf(96, 96);
    EXPECT_EQ(rf.freeIntRegs(), 64);
    auto [fresh, old] = rf.renameDest(5);
    EXPECT_EQ(rf.freeIntRegs(), 63);
    EXPECT_EQ(old.index, 5);
    EXPECT_EQ(rf.lookup(5).index, fresh.index);
    rf.release(old);
    EXPECT_EQ(rf.freeIntRegs(), 64);
}

TEST(RegisterFiles, FpRegsUseSeparateFile)
{
    RegisterFiles rf(96, 96);
    auto [fresh, old] = rf.renameDest(kFirstFpReg + 3);
    EXPECT_TRUE(fresh.fp);
    EXPECT_TRUE(old.fp);
    EXPECT_EQ(rf.freeFpRegs(), 63);
    EXPECT_EQ(rf.freeIntRegs(), 64);
}

TEST(RegisterFiles, ExhaustionReported)
{
    RegisterFiles rf(40, 40);
    // 8 free int regs (40 - 32 logical).
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(rf.canAlloc(false));
        rf.renameDest(8 + i);
    }
    EXPECT_FALSE(rf.canAlloc(false));
    EXPECT_TRUE(rf.canAlloc(true));
}

TEST(RegisterFiles, ScoreboardTracksCompletion)
{
    RegisterFiles rf(96, 96);
    auto [fresh, old] = rf.renameDest(9);
    rf.markPending(fresh);
    EXPECT_TRUE(rf.state(fresh).pending);
    rf.complete(fresh, 12345, DomainId::LoadStore);
    EXPECT_FALSE(rf.state(fresh).pending);
    EXPECT_EQ(rf.state(fresh).ready_at, 12345u);
    EXPECT_EQ(rf.state(fresh).producer, DomainId::LoadStore);
}

TEST(RegisterFiles, ConsistencyHoldsThroughRenameCycles)
{
    RegisterFiles rf(40, 40);
    EXPECT_TRUE(rf.checkConsistent());
    // Churn the map: rename the same logical registers repeatedly,
    // releasing the displaced mappings as a retire would.
    for (int round = 0; round < 100; ++round) {
        int logical = 1 + round % 8;
        if (!rf.canAlloc(false))
            break;
        auto [fresh, old] = rf.renameDest(logical);
        rf.markPending(fresh);
        rf.complete(fresh, static_cast<Tick>(round), DomainId::Integer);
        rf.release(old);
        ASSERT_TRUE(rf.checkConsistent()) << round;
    }
    EXPECT_TRUE(rf.checkConsistent());
}

TEST(RegisterFiles, ZeroRegistersAlwaysReady)
{
    RegisterFiles rf(96, 96);
    PhysRef zero{-1, false};
    EXPECT_FALSE(rf.state(zero).pending);
    EXPECT_EQ(rf.state(zero).ready_at, 0u);
    EXPECT_EQ(rf.lookup(kZeroReg).index, -1);
    EXPECT_EQ(rf.lookup(kFirstFpReg).index, -1);
}

// ---------------------------------------------------------------------
// Machine configuration.
// ---------------------------------------------------------------------

TEST(MachineConfig, PenaltiesPerMode)
{
    MachineConfig sync = MachineConfig::bestSynchronous();
    EXPECT_EQ(sync.feDepth(), 9);
    EXPECT_EQ(sync.dispatchDepth(), 7);
    MachineConfig mcd = MachineConfig::mcdProgram({});
    EXPECT_EQ(mcd.feDepth(), 10);
    EXPECT_EQ(mcd.dispatchDepth(), 9);
}

TEST(MachineConfig, BestSynchronousMatchesPaper)
{
    MachineConfig c = MachineConfig::bestSynchronous();
    EXPECT_EQ(c.sync_icache_opt, 4); // 64KB direct-mapped.
    EXPECT_EQ(c.adaptive.dcache, 0); // 32KB/256KB direct-mapped.
    EXPECT_EQ(c.adaptive.iq_int, 0); // 16-entry queues.
    EXPECT_EQ(c.adaptive.iq_fp, 0);
    EXPECT_NEAR(c.synchronousFreqGHz(), 1.275, 0.02);
}

TEST(MachineConfig, DomainFrequenciesFollowConfig)
{
    MachineConfig mcd = MachineConfig::mcdProgram({1, 2, 3, 0});
    EXPECT_DOUBLE_EQ(mcd.domainFreqGHz(DomainId::FrontEnd,
                                       mcd.adaptive),
                     frontEndFreqAdaptive(1));
    EXPECT_DOUBLE_EQ(mcd.domainFreqGHz(DomainId::LoadStore,
                                       mcd.adaptive),
                     loadStoreFreqAdaptive(2));
    EXPECT_DOUBLE_EQ(mcd.domainFreqGHz(DomainId::Integer,
                                       mcd.adaptive),
                     issueQueueFreqGHz(3));
}

TEST(MachineConfig, ForceFreqOverridesEverything)
{
    MachineConfig mcd = MachineConfig::mcdProgram({});
    mcd.force_freq_ghz = 1.0;
    for (int d = 0; d < kNumDomains; ++d) {
        EXPECT_DOUBLE_EQ(mcd.domainFreqGHz(static_cast<DomainId>(d),
                                           mcd.adaptive),
                         1.0);
    }
}

TEST(MachineConfig, AdaptiveConfigPrinting)
{
    AdaptiveConfig c{1, 2, 3, 0};
    EXPECT_EQ(c.str(), "I1 D2 Qi3 Qf0");
    EXPECT_EQ(c, (AdaptiveConfig{1, 2, 3, 0}));
    EXPECT_FALSE((c == AdaptiveConfig{}));
}
