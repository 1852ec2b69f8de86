/**
 * @file
 * Deterministic synthetic instruction-stream generator.
 *
 * The generator walks a hot code loop (one basic block per step, with
 * occasional excursions into cold code), emits interleaved dependence
 * chains in segments, issues loads/stores against a streamed region
 * and a random pool, and ends every block with a conditional branch
 * whose outcome follows a per-site periodic pattern perturbed by
 * noise. All state advances from one Pcg32 stream, so a given
 * WorkloadParams always produces the identical instruction sequence.
 */

#ifndef GALS_WORKLOAD_GENERATOR_HH
#define GALS_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "workload/params.hh"
#include "workload/uop.hh"

namespace gals
{

/**
 * Address-space layout of the synthetic program. Data lives at
 * kStreamBase: the streamed region first, then (padded by a few
 * lines) the random pool — contiguous, as a real heap would lay
 * them out, so small working sets do not suffer artificial
 * direct-mapped conflicts.
 */
constexpr Addr kCodeBase = 0x0001'0000;
constexpr Addr kStreamBase = 0x1000'0000;
/**
 * Base of the chip-shared coherent window. Every workload that
 * declares shared_bytes addresses the same lines here, far above any
 * private region (per-core addr_offsets are bounded well below it),
 * so the shared-L2 directory covers exactly [kSharedBase,
 * kSharedBase + shared_bytes).
 */
constexpr Addr kSharedBase = 0x4000'0000;

/** The synthetic benchmark instruction stream. */
class SyntheticWorkload
{
  public:
    explicit SyntheticWorkload(const WorkloadParams &params);

    // cur_phase_ points into this object's own params_; a copied or
    // moved instance would keep aiming at the source's storage.
    SyntheticWorkload(const SyntheticWorkload &) = delete;
    SyntheticWorkload &operator=(const SyntheticWorkload &) = delete;

    /** Generate the next micro-op in program order. */
    MicroOp next();

    /**
     * Generate the next `n` micro-ops in program order into `out` —
     * bit-exact with `n` successive next() calls (the generator is
     * open-loop: nothing it draws depends on simulation state, so
     * batching moves no RNG draw and changes no stream; the pinned
     * stream-hash goldens and the batch-equivalence test verify it).
     * The batch form lets fetch pre-generate its ops in one tight,
     * cache-hot loop instead of one call per fetch slot interleaved
     * with the whole simulator working set.
     */
    void nextBatch(MicroOp *out, int n);

    /** Number of ops generated so far. */
    std::uint64_t generated() const { return generated_; }

    /** Index into params().phases of the current phase. */
    int currentPhase() const { return phase_idx_; }

    const WorkloadParams &params() const { return params_; }

    /** Current phase's parameters. */
    const PhaseParams &phase() const;

  private:
    struct Chain
    {
        bool is_fp = false;
        std::int8_t tail = kZeroReg;
        Addr stream_pos = 0;
        /** Dedicated logical-register window (no cross-chain
         * aliasing: a chain's tail is never overwritten by another
         * chain's destinations). */
        int reg_base = 8;
        int reg_count = 1;
        int reg_next = 0;
    };

    void startPhase(int idx);
    void advanceBlock();
    std::int8_t allocReg(Chain &chain);
    bool branchOutcome();
    Addr dataAddress(Chain &chain);
    MicroOp makeBranch();
    MicroOp makeWork();

    /**
     * Per-phase constants hoisted off the per-op hot path (the
     * generator costs 14-16 ns per op, `workload.gen_ns_per_op` of
     * suite_serial on a 4-vCPU Xeon host, and these divisions, maxima
     * and draw thresholds are pure functions of the phase).
     * Recomputed at startPhase; every cached value gives the answer
     * of the inline expression it replaces, and no RNG draw moves —
     * the determinism goldens and the pinned stream hashes
     * (tests/test_workload.cc) verify the stream is unchanged.
     */
    struct PhaseCache
    {
        /** Base of the streamed region (kStreamBase + addr_offset). */
        Addr stream_base = 0;
        /** Base of the random pool (after the streamed region). */
        Addr rand_base = 0;
        /** Shared-window size in lines; 0 disables shared draws (and
         * with them the extra RNG consumption) entirely. */
        std::uint32_t shared_lines = 0;
        /** Random-pool size in lines, clamped to 32 bits. */
        std::uint32_t rand_lines = 1;
        /** p.rand_bytes >= one line (pool draws enabled). */
        bool rand_pool = false;
        /** max(p.stream_bytes, line) / max(p.stream_stride_bytes, 1). */
        std::uint64_t stream_region = 1;
        std::uint64_t stream_stride = 1;
        /** p.cross_chain_frac > 0 and more than one chain. */
        bool cross_chain = false;
        /**
         * Pcg32::rollThreshold of the op-class rolls: load_frac,
         * load_frac + store_frac, div_frac and div_frac + mul_frac.
         */
        std::uint64_t load_roll = 0;
        std::uint64_t store_roll = 0;
        std::uint64_t div_roll = 0;
        std::uint64_t mul_roll = 0;
        /** Pcg32::chanceThreshold of each per-op chance draw. */
        std::uint64_t excursion_chance = 0;
        std::uint64_t shared_chance = 0;
        std::uint64_t rand_chance = 0;
        std::uint64_t cross_chain_chance = 0;
        std::uint64_t load_chain_chance = 0;
        std::uint64_t branch_dep_chance = 0;
        /** branch_noise's, for a positive fraction only. */
        std::uint64_t noise_chance = 0;
        std::uint32_t pattern_len = 1;
    };

    WorkloadParams params_;
    Pcg32 rng_;
    /** Current phase (stable: params_.phases never resizes). */
    const PhaseParams *cur_phase_ = nullptr;
    PhaseCache pc_;

    int phase_idx_ = -1;
    std::uint64_t instrs_in_phase_ = 0;
    std::uint64_t generated_ = 0;

    // Code walk (loop episodes over the hot footprint).
    std::uint64_t hot_lines_ = 1;
    std::uint64_t total_lines_ = 1;
    std::uint64_t loop_start_ = 0;
    std::uint64_t loop_len_ = 1;
    int loop_iters_left_ = 1;
    std::uint64_t pos_in_loop_ = 0;
    std::uint64_t cur_line_ = 0;
    bool in_excursion_ = false;
    int excursion_left_ = 0;
    std::uint64_t excursion_pos_ = 0;
    int instr_in_block_ = 0;

    void newLoopEpisode();

    // Dependence chains.
    std::vector<Chain> chains_;
    size_t chain_idx_ = 0;
    int ops_in_segment_ = 0;

    // Per-branch-site iteration counters (indexed by hot line).
    std::vector<std::uint32_t> site_counter_;
    /** Per-site behavior: 0 unset, 1 loop, 2 taken, 3 not-taken. */
    std::vector<std::uint8_t> site_kind_;
};

} // namespace gals

#endif // GALS_WORKLOAD_GENERATOR_HH
