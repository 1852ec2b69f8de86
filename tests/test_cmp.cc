/**
 * @file
 * Chip-multiprocessor tests.
 *
 * The CMP subsystem's contract has three legs, and each gets pinned
 * here:
 *
 *  - *N=1 knob inertness*: every run routes through the shared banked
 *    L2 and the interconnect port, which arbitrates only across
 *    cores; so a single-core chip with random bank counts, fill
 *    slots, bank occupancy and coherence delay must produce RunStats
 *    bit-identical to simulate() at the default knobs, for any
 *    machine x workload draw.
 *  - *Kernel bit-identity at N>=2*: the event kernel must agree with
 *    the step-every-edge reference oracle on multi-core chips too;
 *    this is what makes every cross-core wake provably precise (a
 *    late wake diverges, an early one is only a wasted step).
 *  - *Interconnect semantics*: bank conflicts delay only cross-core
 *    requests, per-bank fill slots (MSHRs) are arbitrated across
 *    cores, in-flight merges hold only other cores' hits, the shared
 *    row follows core 0, and a mis-ordered cross-core publication is
 *    rejected by the port's tripwire, not silently delivered.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "cache/accounting_cache.hh"
#include "cache/shared_l2.hh"
#include "cmp/chip.hh"
#include "harness.hh"
#include "sim/report.hh"
#include "sim/result_store.hh"
#include "sim/sweep.hh"
#include "timing/frequency_model.hh"
#include "workload/generator.hh"

using namespace gals;
using namespace gals::harness;

namespace
{

/** A bare shared L2 + port for the arbitration unit tests. */
SharedL2::Params
bareParams(int cores, int banks, int bank_mshrs, Tick occupancy_ps)
{
    SharedL2::Params p;
    p.size_bytes = 2048 * 1024;
    p.ways = 8;
    p.a_ways = 8;
    p.phase_adaptive = false;
    p.row = 0;
    p.cores = cores;
    p.banks = banks;
    p.bank_mshrs = bank_mshrs;
    p.bank_occupancy_ps = occupancy_ps;
    return p;
}

constexpr Tick kPeriod = 300; // requester load/store period, ps.

/** One chip run on an explicit kernel. */
ChipRunStats
runChip(const ChipConfig &cc, const std::vector<WorkloadParams> &mix,
        Kernel kernel)
{
    Chip chip(cc, mix, kernel);
    return chip.run();
}

/** bareParams plus a coherent shared window at kSharedBase. */
SharedL2::Params
sharedParams(int cores, std::uint64_t shared_bytes, Tick coh_delay_ps)
{
    SharedL2::Params p = bareParams(cores, 1, 0, 0);
    p.shared_base = kSharedBase;
    p.shared_bytes = shared_bytes;
    p.coh_delay_ps = coh_delay_ps;
    return p;
}

} // namespace

// ---------------------------------------------------------------------
// Interconnect arbitration semantics.
// ---------------------------------------------------------------------

TEST(CmpInterconnect, BankConflictDelaysOnlyCrossCoreRequests)
{
    SharedL2 l2(bareParams(2, 2, 0, 500));
    InterconnectPort icp(l2, 2);

    // Two different lines of the same bank (bank stride = banks *
    // line bytes), plus one line of the other bank.
    Addr a1 = 0x0000;  // bank 0
    Addr a2 = 0x0080;  // bank 0 (banks=2: line 2)
    Addr b1 = 0x0040;  // bank 1

    L2Reply r1 = icp.requestLine(0, a1, 10'000, kPeriod, 10'000);
    EXPECT_FALSE(r1.hit);
    EXPECT_EQ(l2.bankConflicts(), 0u);

    // Another core behind the busy bank: delayed by the occupancy
    // window left on the bank.
    L2Reply r2 = icp.requestLine(1, a2, 10'000, kPeriod, 10'000);
    EXPECT_EQ(l2.bankConflicts(), 1u);
    // The other bank at the same tick is free.
    L2Reply r3 = icp.requestLine(1, b1, 10'000, kPeriod, 10'000);
    EXPECT_EQ(l2.bankConflicts(), 1u);
    // Both missed to memory; the conflicting one is exactly the bank
    // occupancy later.
    EXPECT_EQ(r2.done, r3.done + 500);

    // Same-core back-to-back requests to one bank never conflict
    // (own bandwidth is modeled by the core's mem ports and MSHRs).
    SharedL2 own(bareParams(2, 1, 0, 500));
    InterconnectPort own_icp(own, 2);
    L2Reply o1 = own_icp.requestLine(0, a1, 10'000, kPeriod, 10'000);
    L2Reply o2 = own_icp.requestLine(0, a2, 10'000, kPeriod, 10'000);
    EXPECT_EQ(own.bankConflicts(), 0u);
    EXPECT_EQ(o1.done, o2.done);
}

TEST(CmpInterconnect, BankMshrsArbitrateAcrossCoresOnly)
{
    // One bank, one fill slot, no occupancy window: pure fill-slot
    // pressure.
    SharedL2 l2(bareParams(2, 1, 1, 0));
    InterconnectPort icp(l2, 2);
    const Tick fill_ps = l2.memory().lineFillPs();

    L2Reply r1 = icp.requestLine(1, 0x0000, 1'000, kPeriod, 1'000);
    ASSERT_FALSE(r1.hit);

    // A core is never blocked behind its own fills: core 1's second
    // miss issues immediately even though its first fill holds the
    // bank's only slot.
    L2Reply r1b = icp.requestLine(1, 0x2000, 2'000, kPeriod, 2'000);
    ASSERT_FALSE(r1b.hit);
    EXPECT_EQ(l2.bankMshrWaits(), 0u);
    EXPECT_EQ(r1b.done, r1.done + 1'000);

    // The other core's miss must wait for core 1's in-flight fills
    // to release the bank's only slot before its own fill can issue.
    L2Reply r2 = icp.requestLine(0, 0x1000, 3'000, kPeriod, 3'000);
    ASSERT_FALSE(r2.hit);
    EXPECT_EQ(l2.bankMshrWaits(), 1u);
    EXPECT_EQ(r2.done, r1b.done + fill_ps);
}

TEST(CmpInterconnect, InFlightMergeHoldsOnlyOtherCoresHits)
{
    SharedL2 l2(bareParams(2, 1, 0, 0));
    InterconnectPort icp(l2, 2);

    L2Reply miss = icp.requestLine(1, 0x0000, 1'000, kPeriod, 1'000);
    ASSERT_FALSE(miss.hit);

    // The tag is installed instantly (accounting-cache semantics), so
    // the other core hits — but its data cannot arrive before the
    // fill does.
    L2Reply other = icp.requestLine(0, 0x0000, 2'000, kPeriod, 2'000);
    EXPECT_TRUE(other.hit);
    EXPECT_EQ(other.done, miss.done);
    EXPECT_EQ(l2.fillMerges(), 1u);

    // The filling core's own re-access keeps plain hit timing (its
    // same-line serialization is its own L1D and MSHRs' concern).
    L2Reply own = icp.requestLine(1, 0x0000, 3'000, kPeriod, 3'000);
    EXPECT_TRUE(own.hit);
    EXPECT_EQ(own.done,
              3'000 + static_cast<Tick>(
                          dcachePairConfig(0).l2_a_lat) *
                          kPeriod);
    EXPECT_EQ(l2.fillMerges(), 1u);
}

TEST(CmpInterconnect, SharedRowFollowsCoreZeroOnly)
{
    SharedL2 l2(bareParams(2, 1, 0, 0));
    InterconnectPort icp(l2, 2);

    icp.reconfigure(1, 3); // not the owner: L1-only decision.
    EXPECT_EQ(l2.row(), 0);
    icp.reconfigure(0, 3);
    EXPECT_EQ(l2.row(), 3);
    EXPECT_EQ(l2.cache().aWays(), dcachePairConfig(3).l2_adapt.assoc);
}

TEST(CmpInterconnect, PerCoreAccountingSplitsTraffic)
{
    SharedL2 l2(bareParams(2, 1, 0, 0));
    InterconnectPort icp(l2, 2);

    icp.requestLine(0, 0x0000, 1'000, kPeriod, 1'000);   // miss.
    icp.requestLine(1, 0x0000, 2'000, kPeriod, 2'000);   // hit.
    icp.requestIcacheLine(1, 0x4000, 3'000, kPeriod, 3'000); // miss.

    EXPECT_EQ(l2.accesses(0), 1u);
    EXPECT_EQ(l2.misses(0), 1u);
    EXPECT_EQ(l2.accesses(1), 2u);
    EXPECT_EQ(l2.misses(1), 1u);
    EXPECT_EQ(l2.interval(0).accesses, 1u);
    EXPECT_EQ(l2.interval(1).accesses, 2u);
    icp.resetInterval(1);
    EXPECT_EQ(l2.interval(1).accesses, 0u);
    EXPECT_EQ(l2.accesses(1), 2u); // lifetime totals unaffected.
}

TEST(CmpPortsDeathTest, MisorderedCrossCorePublicationAsserts)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    SharedL2 l2(bareParams(2, 1, 0, 0));
    InterconnectPort icp(l2, 2);

    // Core 1's load/store unit (global domain 7) touches the bank at
    // t; core 0's (global domain 3) claiming the same tick afterwards
    // would consume state the reference kernel's step order provably
    // hides from it — the tripwire must reject it.
    icp.requestLine(1, 0x0000, 1'000, kPeriod, 1'000);
    EXPECT_DEATH(icp.requestLine(0, 0x0080, 1'000, kPeriod, 1'000),
                 "publication order");
}

TEST(CmpBoundaryDeathTest, SynchronousPhaseAdaptiveMachineIsRejected)
{
    // Every machine builds the same cache arrays and turns B on
    // exactly when it is phase-adaptive; a synchronous machine has no
    // per-domain clock to re-lock, so the combination is refused at
    // construction instead of running with B partitions.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ChipConfig cc;
    cc.machine = MachineConfig::bestSynchronous();
    cc.machine.phase_adaptive = true;
    std::vector<WorkloadParams> mix{goldenWorkload("gzip")};
    EXPECT_DEATH(Chip(cc, mix, Kernel::EventDriven),
                 "phase-adaptive machine needs MCD clocking");
}

// ---------------------------------------------------------------------
// N=1: the shared-L2 knobs must be inert on a single-core chip.
// ---------------------------------------------------------------------

namespace
{

/** A one-core chip of `m` with every shared-L2 knob drawn at random
 * (fill slots from 0 = unbounded). */
ChipConfig
randomSingleCoreChip(Pcg32 &rng, const MachineConfig &m)
{
    ChipConfig cc;
    cc.machine = m;
    cc.cores = 1;
    cc.l2_banks = 1 << rng.nextRange(0, 3);
    cc.l2_bank_mshrs = rng.nextRange(0, 4);
    cc.l2_bank_occupancy_ps = static_cast<Tick>(rng.nextRange(100, 1200));
    cc.coh_delay_ps = static_cast<Tick>(rng.nextRange(1'000, 40'000));
    return cc;
}

/**
 * Run `wl` on `cc` under `kernel` and require the result to equal
 * simulate() (a one-core chip at the default knobs) bit-exactly, with
 * no interconnect or coherence traffic: arbitration is cross-core
 * only, so one core can never conflict, wait or merge.
 */
void
expectKnobsInert(const ChipConfig &cc, const WorkloadParams &wl,
                 Kernel kernel)
{
    RunStats direct = simulate(cc.machine, wl, kernel);
    ChipRunStats cs = runChip(cc, {wl}, kernel);
    ASSERT_EQ(cs.cores.size(), 1u);
    expectSameStats(direct, cs.cores[0]);
    EXPECT_EQ(cs.bank_conflicts, 0u);
    EXPECT_EQ(cs.bank_mshr_waits, 0u);
    EXPECT_EQ(cs.fill_merges, 0u);
    EXPECT_EQ(cs.invalidations, 0u);
    EXPECT_EQ(cs.ownership_transfers, 0u);
}

} // namespace

TEST(CmpEquivalence, SingleCoreChipMatchesProcessorBitExactly)
{
    Pcg32 rng(0xC3A11);
    for (int i = 0; i < 20; ++i) {
        MachineConfig m = randomMachine(rng);
        WorkloadParams wl = randomWorkload(rng);
        ChipConfig cc = randomSingleCoreChip(rng, m);
        SCOPED_TRACE("case " + std::to_string(i) + ": banks=" +
                     std::to_string(cc.l2_banks) + " " +
                     describe(m, wl));

        expectKnobsInert(cc, wl, Kernel::EventDriven);
        if (i % 4 == 0)
            expectKnobsInert(cc, wl, Kernel::Reference);
    }
}

// ---------------------------------------------------------------------
// N>=2: event kernel vs reference oracle, and real interconnect
// traffic.
// ---------------------------------------------------------------------

TEST(CmpDifferential, EventKernelMatchesReferenceOnMultiCoreChips)
{
    Pcg32 rng(0xD1FF2);
    for (int i = 0; i < 12; ++i) {
        int cores = randomCoreCount(rng);
        ChipConfig cc = randomChipConfig(rng, cores);
        std::vector<WorkloadParams> mix =
            randomChipWorkloads(rng, cores);
        SCOPED_TRACE("case " + std::to_string(i) + ": cores=" +
                     std::to_string(cores) + " banks=" +
                     std::to_string(cc.l2_banks) + " " +
                     describe(cc.machine, mix[0]));

        Chip event_chip(cc, mix, Kernel::EventDriven);
        if (i % 3 == 0)
            event_chip.setInvariantCheckInterval(64);
        ChipRunStats ev = event_chip.run();

        Chip ref_chip(cc, mix, Kernel::Reference);
        if (i % 3 == 0)
            ref_chip.setInvariantCheckInterval(64);
        ChipRunStats ref = ref_chip.run();

        expectSameChipStats(ev, ref);
    }
}

TEST(CmpDifferential, SixteenCoreMigratoryChipMatchesReference)
{
    // A full-width coherent chip — 16 cores sharing one migratory
    // window — is the widest calendar and the densest cross-core
    // invalidation traffic the chip supports.
    ChipConfig cc;
    cc.machine = MachineConfig::mcdPhaseAdaptive();
    cc.cores = static_cast<int>(kMaxCores);
    cc.l2_banks = 4;
    cc.l2_bank_mshrs = 2;
    std::vector<WorkloadParams> mix =
        sharingMix(goldenWorkload("gzip"), cc.cores, "migratory");

    ChipRunStats ev = runChip(cc, mix, Kernel::EventDriven);
    ChipRunStats ref = runChip(cc, mix, Kernel::Reference);
    expectSameChipStats(ev, ref);
    EXPECT_GT(ev.invalidations, 0u);
}

TEST(CmpDifferential, MultiprogrammedRunExercisesTheInterconnect)
{
    // A deliberately contended chip: one bank, one fill slot, large
    // random pools on every core.
    ChipConfig cc;
    cc.machine = MachineConfig::mcdProgram({});
    cc.cores = 2;
    cc.l2_banks = 1;
    cc.l2_bank_mshrs = 1;
    cc.l2_bank_occupancy_ps = 900;

    std::vector<WorkloadParams> mix =
        multiprogrammedMix(benchmarkSuite(), 2, 0);
    for (WorkloadParams &wl : mix) {
        wl.sim_instrs = 6'000;
        wl.warmup_instrs = 500;
        for (PhaseParams &p : wl.phases) {
            p.rand_bytes = 2 * 1024 * 1024;
            p.rand_frac = 0.9;
            p.load_frac = 0.4;
        }
    }

    Chip chip(cc, mix);
    ChipRunStats s = chip.run();
    ASSERT_EQ(s.cores.size(), 2u);
    EXPECT_GT(s.cores[0].committed, 0u);
    EXPECT_GT(s.cores[1].committed, 0u);
    EXPECT_GT(s.l2_accesses, 0u);
    // Cross-core contention actually happened.
    EXPECT_GT(s.bank_conflicts, 0u);
    EXPECT_GT(s.total_committed,
              s.cores[0].committed); // both cores contributed.
}

TEST(CmpDifferential, ChipRunsAreDeterministic)
{
    Pcg32 rng(0xDE7);
    ChipConfig cc = randomChipConfig(rng, 3);
    std::vector<WorkloadParams> mix = randomChipWorkloads(rng, 3);

    Chip a(cc, mix);
    ChipRunStats ra = a.run();
    Chip b(cc, mix);
    ChipRunStats rb = b.run();
    expectSameChipStats(ra, rb);
}

// ---------------------------------------------------------------------
// CMP sweep: rows served from the result store are byte-identical.
// ---------------------------------------------------------------------

TEST(CmpSweep, WarmRunIsByteIdenticalToCacheOff)
{
    std::vector<WorkloadParams> suite(benchmarkSuite().begin(),
                                      benchmarkSuite().begin() + 3);
    for (WorkloadParams &wl : suite) {
        wl.sim_instrs = 2'000;
        wl.warmup_instrs = 200;
    }
    const std::vector<int> core_counts = {1, 2};

    auto sweepJson = [&] {
        return cmpSweepJson(sweepCmpRaw(suite, core_counts),
                            suite.size(), core_counts);
    };
    std::string off = sweepJson();

    // Cold then warm against one store: every ChipRunStats goes
    // through its key, record and payload decoder.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("gals_cmp_sweep_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    configureResultStore(dir.string());
    std::string cold = sweepJson();
    std::string warm = sweepJson();
    ResultStore::Counters c = resultStore().counters();
    configureResultStore("");
    fs::remove_all(dir);

    EXPECT_EQ(cold, off);
    EXPECT_EQ(warm, off);
    EXPECT_EQ(c.misses, 6u); // 2 core counts x 3 rotations.
    EXPECT_EQ(c.hits, 6u);
    EXPECT_EQ(c.rejects, 0u);

    // The summary renders one row per core count.
    std::vector<CmpPointResult> rows = sweepCmpRaw(suite, core_counts);
    std::string summary = renderCmpSummary(rows);
    EXPECT_NE(summary.find("Chip multiprocessor scaling"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Workload layer: per-core streams.
// ---------------------------------------------------------------------

TEST(CmpWorkloads, PerCoreStreamsKeepCoreZeroExact)
{
    const WorkloadParams &gzip = findBenchmark("gzip");
    WorkloadParams c0 = perCoreWorkload(gzip, 0);
    EXPECT_EQ(c0.seed, gzip.seed);
    EXPECT_EQ(c0.name, gzip.name);

    WorkloadParams c1 = perCoreWorkload(gzip, 1);
    WorkloadParams c2 = perCoreWorkload(gzip, 2);
    EXPECT_NE(c1.seed, gzip.seed);
    EXPECT_NE(c1.seed, c2.seed);
    EXPECT_EQ(c1.name, "gzip#c1");

    std::vector<WorkloadParams> mix =
        multiprogrammedMix(benchmarkSuite(), 3, 1);
    ASSERT_EQ(mix.size(), 3u);
    EXPECT_EQ(mix[0].name, benchmarkSuite()[1].name); // rotation.
    EXPECT_EQ(mix[1].name, benchmarkSuite()[2].name + "#c1");
}

// ---------------------------------------------------------------------
// Cross-core L1 coherence: sharer directory, invalidation delivery,
// ownership transfers — the first genuine cross-core wakes.
// ---------------------------------------------------------------------

TEST(CmpCoherence, SharerDirectoryInvalidatesRemoteL1s)
{
    SharedL2 l2(sharedParams(2, 4096, 5'000));
    InterconnectPort icp(l2, 2);
    EXPECT_TRUE(l2.coherent());
    const Addr line = kSharedBase;

    // Both cores install the line: both become sharers.
    icp.requestLine(0, line, 1'000, kPeriod, 1'000);
    icp.requestLine(1, line, 2'000, kPeriod, 2'000);

    // Core 0 stores into the line (sub-line address maps to it): one
    // invalidation to the remote sharer only, delivered coh_delay
    // later.
    icp.publishStore(0, line + 8, 3'000);
    EXPECT_EQ(l2.invalidationsSent(), 1u);
    EXPECT_EQ(icp.nextCoherenceAt(1), 8'000u);
    EXPECT_EQ(icp.nextCoherenceAt(0), kTickMax);

    // Delivery drops the line from the target's L1D — and not one
    // tick before the transfer latency has elapsed.
    AccountingCache l1d("l1d", 32 * 1024, 4);
    l1d.access(line);
    EXPECT_EQ(icp.consumeInvalidations(1, 7'999, l1d), 0);
    EXPECT_EQ(icp.nextCoherenceAt(1), 8'000u);
    EXPECT_EQ(icp.consumeInvalidations(1, 8'000, l1d), 1);
    EXPECT_FALSE(l1d.invalidate(line)); // already dropped.
    EXPECT_EQ(icp.nextCoherenceAt(1), kTickMax);

    // The store left the writer as the only sharer: a second store
    // finds no remote copy to invalidate.
    icp.publishStore(0, line, 9'000);
    EXPECT_EQ(l2.invalidationsSent(), 1u);

    // Private addresses never touch the directory.
    icp.publishStore(0, 0x1000, 10'000);
    EXPECT_EQ(l2.invalidationsSent(), 1u);
}

TEST(CmpCoherence, OwnershipTransferDelaysRemoteReadersOnly)
{
    // A transfer latency far above any fill completion, so the settle
    // time provably dominates the reply.
    SharedL2 l2(sharedParams(2, 4096, 2'000'000));
    InterconnectPort icp(l2, 2);
    const Addr line = kSharedBase + 0x40;

    icp.requestLine(1, line, 1'000, kPeriod, 1'000);
    // The writer is its only sharer: no invalidations, but the store
    // starts a transfer window.
    icp.publishStore(1, line, 2'000);
    EXPECT_EQ(l2.invalidationsSent(), 0u);

    // A remote read before the store settles waits for the ownership
    // transfer...
    L2Reply r = icp.requestLine(0, line, 3'000, kPeriod, 3'000);
    EXPECT_EQ(r.done, 2'000u + 2'000'000u);
    EXPECT_EQ(l2.ownershipTransfers(), 1u);
    // ...the writer's own re-read does not...
    L2Reply own = icp.requestLine(1, line, 4'000, kPeriod, 4'000);
    EXPECT_LT(own.done, 2'000u + 2'000'000u);
    EXPECT_EQ(l2.ownershipTransfers(), 1u);
    // ...and once settled, remote reads run at plain timing again.
    L2Reply late = icp.requestLine(0, line, 2'010'000, kPeriod,
                                   2'010'000);
    EXPECT_LT(late.done, 2'010'000u + 2'000'000u);
    EXPECT_EQ(l2.ownershipTransfers(), 1u);
}

TEST(CmpCoherenceDeathTest, MisorderedCoherencePublicationAsserts)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    SharedL2 l2(sharedParams(2, 4096, 5'000));
    InterconnectPort icp(l2, 2);

    // Core 1's store publishes directory state at t through its bank;
    // core 0's load/store unit (lower global domain index) claiming
    // the same tick afterwards is an order the reference kernel
    // cannot produce — the same tripwire that guards requests.
    icp.publishStore(1, kSharedBase, 1'000);
    EXPECT_DEATH(icp.publishStore(0, kSharedBase, 1'000),
                 "publication order");
}

TEST(CmpCoherence, SingleCoreSharingChipMatchesProcessorBitExactly)
{
    // With one core the directory is inert (coherent() needs a second
    // core), so a sharing workload on a single-core chip must replay
    // simulate() bit-exactly whatever the coherence delay and bank
    // knobs — the knob-inertness check extended over the coherent
    // window.
    Pcg32 rng(0x51A8E);
    for (int i = 0; i < 6; ++i) {
        MachineConfig m = randomMachine(rng);
        WorkloadParams wl = randomWorkload(rng);
        wl.shared_bytes = 64ULL << rng.nextRange(2, 9);
        for (PhaseParams &p : wl.phases)
            p.shared_frac = 0.15 + 0.35 * rng.nextDouble();
        ChipConfig cc = randomSingleCoreChip(rng, m);
        SCOPED_TRACE("case " + std::to_string(i) + ": banks=" +
                     std::to_string(cc.l2_banks) + " " +
                     describe(m, wl));

        expectKnobsInert(cc, wl, Kernel::EventDriven);
        if (i % 2 == 0)
            expectKnobsInert(cc, wl, Kernel::Reference);
    }
}

TEST(CmpCoherence, SharingMixesAgreeAcrossKernelsAndCarryRealWakes)
{
    // Randomized sharing chips must agree between the event kernel
    // and the reference oracle while producing genuine invalidation
    // traffic: every invalidation is a cross-core wake, so a late or
    // mis-ordered one diverges.
    Pcg32 rng(0xC0E7EA);
    static const char *kKinds[] = {"producer-consumer", "migratory",
                                   "lock"};
    std::uint64_t total_invalidations = 0;
    for (int i = 0; i < 20; ++i) {
        int cores = randomCoreCount(rng);
        ChipConfig cc = randomChipConfig(rng, cores);
        std::vector<WorkloadParams> mix =
            sharingMix(randomWorkload(rng), cores, kKinds[i % 3]);
        SCOPED_TRACE("case " + std::to_string(i) + ": cores=" +
                     std::to_string(cores) + " kind=" + kKinds[i % 3] +
                     " " + describe(cc.machine, mix[0]));

        ChipRunStats ev =
            runChip(cc, mix, Kernel::EventDriven);
        ChipRunStats ref =
            runChip(cc, mix, Kernel::Reference);
        expectSameChipStats(ev, ref);
        total_invalidations += ev.invalidations;
    }
    EXPECT_GT(total_invalidations, 0u);
}
