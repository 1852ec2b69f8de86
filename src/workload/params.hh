/**
 * @file
 * Parameter blocks describing a synthetic benchmark.
 *
 * Each phase controls exactly the application properties the paper's
 * adaptive hardware responds to:
 *  - hot/total code footprint        -> I-cache configuration;
 *  - streamed + random data pools    -> D-cache/L2 configuration;
 *  - dependence-chain count/segment  -> issue-queue size (ILP
 *    distance: a window of W entries exposes ~min(chains, W/segment)
 *    ready chains);
 *  - branch pattern period + noise   -> predictor pressure;
 *  - int/fp mix                      -> which issue domain matters.
 */

#ifndef GALS_WORKLOAD_PARAMS_HH
#define GALS_WORKLOAD_PARAMS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace gals
{

/** Behavior of the instruction stream during one phase. */
struct PhaseParams
{
    /** Committed-instruction length of the phase (cycled). */
    std::uint64_t length_instrs = 1'000'000'000;

    /** Instructions per basic block (a branch ends each block). */
    int block_len = 16;

    /** Hot code footprint in bytes, walked as nested loop episodes. */
    std::uint64_t code_hot_bytes = 4 * 1024;
    /** Total code footprint reachable by excursions. */
    std::uint64_t code_total_bytes = 8 * 1024;
    /** Per-block probability of an excursion into cold code. */
    double excursion_frac = 0.01;
    /** Cold-code blocks executed per excursion. */
    int excursion_len = 8;
    /**
     * Inner-loop episode shape: a run of up to loop_lines_max code
     * lines is iterated up to loop_iters_max times before the walk
     * advances. Reuse distance across the hot footprint stays
     * code_hot_bytes (the capacity the I-cache must hold), while
     * short-range reuse keeps miss rates and active branch-site
     * counts realistic.
     */
    int loop_lines_max = 8;
    int loop_iters_max = 6;

    /** Interleaved dependence chains and ops per chain visit. */
    int num_chains = 4;
    int chain_segment_len = 4;
    /** Probability an op reads another chain's tail as src2. */
    double cross_chain_frac = 0.1;

    /** Instruction-mix fractions (remainder is ALU work). */
    double load_frac = 0.25;
    double store_frac = 0.10;
    /**
     * Fraction of loads whose result extends the dependence chain
     * (pointer chasing); the rest are off-chain (their latency is
     * hidden by independent work, as in most real code).
     */
    double load_chain_frac = 0.5;
    /**
     * Fraction of branches that test the chain tail (data-dependent
     * branches resolving late); the rest test an always-ready loop
     * counter.
     */
    double branch_dep_frac = 0.3;
    /** Fraction of chains doing floating-point work. */
    double fp_frac = 0.0;
    /** Among ALU ops: multiplies and divides. */
    double mul_frac = 0.05;
    double div_frac = 0.01;

    /** Streamed (strided) data region size in bytes. */
    std::uint64_t stream_bytes = 16 * 1024;
    /** Stream advance per access (word-granular, so a 64-byte line
     * serves several consecutive accesses before the walk leaves
     * it). */
    std::uint64_t stream_stride_bytes = 8;
    /** Randomly accessed pool size in bytes. */
    std::uint64_t rand_bytes = 16 * 1024;
    /** Fraction of data accesses that go to the random pool. */
    double rand_frac = 0.3;
    /**
     * Fraction of data accesses that go to the chip-shared window at
     * kSharedBase (drawn before the stream/random split). Only
     * meaningful on a multi-core chip whose WorkloadParams declares
     * shared_bytes > 0; otherwise no RNG draw is consumed and the
     * stream is bit-identical to a workload without the knob.
     */
    double shared_frac = 0.0;

    /**
     * Branch-site population: a loop-branch minority follows a
     * periodic taken-except-every-Pth pattern (learnable from local
     * history); the remaining sites are fixed-direction biased
     * branches (85% of them always-taken), which stay predictable
     * even under predictor-table aliasing — matching real branch
     * demographics.
     */
    double loop_site_frac = 0.25;
    /** Period P of each loop site's pattern. */
    int branch_pattern_len = 8;
    /** Fraction of branch outcomes replaced by coin flips. */
    double branch_noise = 0.02;
};

/** Every PhaseParams field (common/types.hh). */
template <FieldsOf<PhaseParams> P, class F>
void
forEachField(P &p, F &&f)
{
    auto &[len, blk, hot, tot, exf, exl, llm, lim, nch, seg, xch, ld, st,
           ldc, brd, fp, mul, div, strb, strs, rndb, rnd, shf, lsf, bpl,
           bn] = p;
    f("len", len); f("blk", blk); f("hot", hot); f("tot", tot); f("exf", exf);
    f("exl", exl); f("llm", llm); f("lim", lim); f("nch", nch); f("seg", seg);
    f("xch", xch); f("ld", ld); f("st", st); f("ldc", ldc); f("brd", brd);
    f("fp", fp); f("mul", mul); f("div", div); f("strb", strb);
    f("strs", strs); f("rndb", rndb); f("rnd", rnd); f("shf", shf);
    f("lsf", lsf); f("bpl", bpl); f("bn", bn);
}

/** A complete synthetic benchmark: identity plus a phase schedule. */
struct WorkloadParams
{
    std::string name;
    /** "MediaBench", "Olden", "SPEC2000-Int" or "SPEC2000-Fp". */
    std::string suite;
    /** Measured window (committed instructions). */
    std::uint64_t sim_instrs = 120'000;
    /** Cache/predictor warmup before measurement. */
    std::uint64_t warmup_instrs = 12'000;
    /** RNG seed; fixed per benchmark for reproducibility. */
    std::uint64_t seed = 1;
    /** Phase schedule, cycled for the whole run. */
    std::vector<PhaseParams> phases;

    /**
     * Size of the chip-shared coherent window this workload touches
     * (0 = private workload; every phase's shared_frac is inert).
     * All sharers address the same window at kSharedBase.
     */
    std::uint64_t shared_bytes = 0;
    /**
     * Displacement added to the private regions (code stays put;
     * stream/random pools shift). Multiprogrammed mixes give each
     * core a distinct offset so private footprints never alias the
     * shared window or each other in the physically-shared L2.
     */
    Addr addr_offset = 0;

    /** The paper's original simulation window, for Tables 6-8. */
    std::string paper_window;
};

/** Every WorkloadParams field (common/types.hh); each phase is
 * visited as one "phase" element. */
template <FieldsOf<WorkloadParams> W, class F>
void
forEachField(W &w, F &&f)
{
    // paper_window is bound, not visited: nothing simulated uses it.
    auto &[name, suite, sim, warm, seed, phase, shared, off,
           paper_window] = w;
    f("name", name); f("suite", suite); f("sim", sim); f("warm", warm);
    f("seed", seed); f("shared", shared); f("off", off); f("phase", phase);
}

} // namespace gals

#endif // GALS_WORKLOAD_PARAMS_HH
