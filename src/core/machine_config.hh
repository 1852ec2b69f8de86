/**
 * @file
 * Machine configuration: Table 5 parameters, clocking mode, structure
 * configuration, and the derived per-domain frequencies.
 *
 * Three kinds of machine are built from this one description:
 *  - Synchronous: one global clock at the minimum of the four
 *    structure frequencies (optimal timing tables), 9+7 mispredict
 *    penalty, no synchronizer costs, no B partitions;
 *  - MCD whole-program: four domain clocks from the adaptive timing
 *    tables, a fixed adaptive configuration, B partitions unused,
 *    10+9 mispredict penalty, synchronizers on every crossing;
 *  - MCD phase-adaptive: as above plus B partitions and the on-line
 *    controllers (accounting caches, ILP tracker) driving PLL-timed
 *    reconfigurations.
 */

#ifndef GALS_CORE_MACHINE_CONFIG_HH
#define GALS_CORE_MACHINE_CONFIG_HH

#include <array>
#include <cstdint>
#include <string>

#include "clock/pll.hh"
#include "common/types.hh"
#include "timing/frequency_model.hh"

namespace gals
{

/** Clock organization of the machine. */
enum class ClockingMode : std::uint8_t
{
    Synchronous,
    MCD,
};

/** Indices into the four adaptive-structure configuration tables. */
struct AdaptiveConfig
{
    int icache = 0;  //!< Table 2 row (paired branch predictor).
    int dcache = 0;  //!< Table 1 row (L1D/L2 pair).
    int iq_int = 0;  //!< integer issue-queue size index.
    int iq_fp = 0;   //!< floating-point issue-queue size index.

    bool operator==(const AdaptiveConfig &) const = default;

    /** The index of structure `s` (kAdaptiveStructures names the
     * member). */
    int &operator[](Structure s);
    int operator[](Structure s) const;

    /** e.g. "I1 D2 Qi0 Qf0". */
    std::string str() const;
};

/** One row of the adaptive-structure table. */
struct AdaptiveStructure
{
    Structure structure;
    /** The clock domain that owns (and resizes) the structure. */
    DomainId domain;
    /** The structure's configuration index in an AdaptiveConfig. */
    int AdaptiveConfig::*index;
    /** The owning domain's MCD frequency at configuration `k`. */
    double (*freq_ghz)(int k);
};

/**
 * The adaptive-structure table, in Structure order. Each MCD clock
 * domain owns exactly one adaptive structure; this is the one place
 * that pairing, the structure's AdaptiveConfig member and its
 * domain's frequency model are named. The reconfiguration unit,
 * the per-domain clocks, the residency counters, the staged search
 * and the reports all reach a structure through it.
 */
inline constexpr std::array<AdaptiveStructure, kNumStructures>
    kAdaptiveStructures{{
        {Structure::ICache, DomainId::FrontEnd, &AdaptiveConfig::icache,
         frontEndFreqAdaptive},
        {Structure::DCachePair, DomainId::LoadStore,
         &AdaptiveConfig::dcache, loadStoreFreqAdaptive},
        {Structure::IntIssueQueue, DomainId::Integer,
         &AdaptiveConfig::iq_int, issueDomainFreqAdaptive},
        {Structure::FpIssueQueue, DomainId::FloatingPoint,
         &AdaptiveConfig::iq_fp, issueDomainFreqAdaptive},
    }};

static_assert([] {
    for (size_t i = 0; i < kAdaptiveStructures.size(); ++i) {
        if (kAdaptiveStructures[i].structure != static_cast<Structure>(i))
            return false;
    }
    return true;
}(), "kAdaptiveStructures rows must follow Structure order");

/** The table row of structure `s`. */
constexpr const AdaptiveStructure &
adaptiveStructure(Structure s)
{
    return kAdaptiveStructures[static_cast<size_t>(s)];
}

/** The domain that owns structure `s`. */
constexpr DomainId
domainOf(Structure s)
{
    return adaptiveStructure(s).domain;
}

/** The structure core domain `d` owns (panics on DomainId::External). */
Structure structureOf(DomainId d);

inline int &
AdaptiveConfig::operator[](Structure s)
{
    return this->*adaptiveStructure(s).index;
}

inline int
AdaptiveConfig::operator[](Structure s) const
{
    return this->*adaptiveStructure(s).index;
}

/** Full machine description. */
struct MachineConfig
{
    ClockingMode mode = ClockingMode::MCD;
    /** Enable B partitions and on-line controllers (MCD only). */
    bool phase_adaptive = false;

    /** Structure configuration (initial configuration in phase mode). */
    AdaptiveConfig adaptive{};
    /** Synchronous mode only: Table 3 I-cache option, 0..15. */
    int sync_icache_opt = 4;

    // ------------------------------------------------------------------
    // Table 5 parameters.
    // ------------------------------------------------------------------
    int fetch_queue_entries = 16;
    int fetch_width = 8;
    int decode_width = 8;
    int issue_width = 6;
    int retire_width = 11;
    int rob_entries = 256;
    int phys_int_regs = 96;
    int phys_fp_regs = 96;
    int lsq_entries = 64;
    int store_buffer_entries = 16;
    int int_alus = 4;       //!< plus 1 mult/div unit.
    int fp_alus = 4;        //!< plus 1 mult/div/sqrt unit.
    int mem_ports = 2;
    int mshrs = 8;
    int dispatch_fifo_entries = 16;

    /** Front-end pipe depth: 9 sync, 10 adaptive MCD (Table 5). */
    int feDepth() const { return mode == ClockingMode::MCD ? 10 : 9; }
    /** Dispatch-to-issue depth: 7 sync, 9 adaptive MCD. */
    int dispatchDepth() const
    {
        return mode == ClockingMode::MCD ? 9 : 7;
    }
    /** Load/store domain dispatch depth (address-generation path). */
    int lsDispatchDepth() const { return 2; }

    // ------------------------------------------------------------------
    // Clocking.
    // ------------------------------------------------------------------
    /**
     * Per-edge Gaussian clock jitter (MCD domains); 0 disables.
     * Synchronization-time uncertainty is already captured by the
     * 30%-of-the-faster-period guard band (as in the MCD simulator's
     * synchronizer model), so the default leaves the edge grid
     * clean; set a sigma to additionally wobble delivered edges.
     */
    double jitter_sigma_ps = 0.0;
    std::uint64_t seed = 12345;
    /**
     * Ablation hook: when positive, every domain runs at this
     * frequency (synchronizer costs, penalties and structures keep
     * their mode-specific behavior). Used to isolate the cost of
     * inter-domain synchronization (the <3% claim of [28]).
     */
    double force_freq_ghz = 0.0;

    // ------------------------------------------------------------------
    // Phase control.
    //
    // The paper uses 15K-instruction intervals and ~15us PLL locks
    // against 100M+-instruction windows. Our windows are scaled down
    // ~1000x (docs/testing.md, "Fidelity scorecard"), so the
    // adaptation timescales are scaled too, preserving the
    // interval:phase:window proportions. Paper-faithful values are
    // restored by setting cache_interval_instrs to 15'000 and pll to
    // PllParams{15.0, 1.7, 10.0, 20.0}.
    // ------------------------------------------------------------------
    /** Cache-controller interval (committed instructions). */
    std::uint64_t cache_interval_instrs = 2'000;
    /** PLL lock-time distribution for frequency changes. */
    PllParams pll{1.5, 0.17, 1.0, 2.0};
    /**
     * Relative score advantage a queue-size candidate needs over the
     * current size before a PLL re-lock is initiated.
     */
    double queue_hysteresis = 0.08;
    /**
     * Relative cost advantage a cache configuration needs over the
     * current one before a PLL re-lock is initiated. Damps
     * interval-boundary flapping, which our scaled-down windows make
     * relatively more expensive than in the paper.
     */
    double cache_hysteresis = 0.02;
    /**
     * The I-cache threshold is stiffer: fetch supply is the most
     * reconfiguration-sensitive pipe (predictor re-warming, refill),
     * so borderline cost differences must not flip it.
     */
    double icache_hysteresis = 0.08;
    /**
     * Consecutive agreeing decisions required before a change is
     * applied: reconfiguration costs (PLL re-lock, predictor state
     * loss) span multiple decision intervals, so one-sample blips
     * must not trigger them.
     */
    int queue_persistence = 8;
    int cache_persistence = 2;

    /** Frequency of one domain under the given structure config. */
    double domainFreqGHz(DomainId d, const AdaptiveConfig &cur) const;

    /** Global clock in Synchronous mode. */
    double synchronousFreqGHz() const;

    // ------------------------------------------------------------------
    // Factories.
    // ------------------------------------------------------------------
    /** The paper's best-overall fully synchronous machine (§4). */
    static MachineConfig bestSynchronous();

    /** Any synchronous design point (for the 1,024-config sweep). */
    static MachineConfig synchronous(int opt_icache, int dcache,
                                     int iq_int, int iq_fp);

    /** MCD with a fixed adaptive configuration (whole-program mode). */
    static MachineConfig mcdProgram(const AdaptiveConfig &cfg);

    /** MCD with on-line phase-adaptive control. */
    static MachineConfig mcdPhaseAdaptive();
};

/** Every MachineConfig field, nested structs inlined (common/types.hh). */
template <FieldsOf<MachineConfig> M, class F>
void
forEachField(M &m, F &&f)
{
    auto &[mode, phase, adaptive, sync_ic, fq, fw, dw, iw, rw, rob, pint,
           pfp, lsq, sb, ialu, falu, mp, mshr, dfifo, jit, seed, ff, ival,
           pll, qhys, chys, ihys, qper, cper] = m;
    auto &[ic, dc, qi, qf] = adaptive;
    auto &[pll_m, pll_s, pll_lo, pll_hi] = pll;
    f("mode", mode); f("phase", phase); f("ic", ic); f("dc", dc); f("qi", qi);
    f("qf", qf); f("sync_ic", sync_ic); f("fq", fq); f("fw", fw); f("dw", dw);
    f("iw", iw); f("rw", rw); f("rob", rob); f("pint", pint); f("pfp", pfp);
    f("lsq", lsq); f("sb", sb); f("ialu", ialu); f("falu", falu); f("mp", mp);
    f("mshr", mshr); f("dfifo", dfifo); f("jit", jit); f("seed", seed);
    f("ff", ff); f("ival", ival); f("pll_m", pll_m); f("pll_s", pll_s);
    f("pll_lo", pll_lo); f("pll_hi", pll_hi); f("qhys", qhys); f("chys", chys);
    f("ihys", ihys); f("qper", qper); f("cper", cper);
}

} // namespace gals

#endif // GALS_CORE_MACHINE_CONFIG_HH
