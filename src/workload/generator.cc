#include "workload/generator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gals
{

namespace
{
constexpr int kLineBytes = 64;
constexpr int kInstrBytes = 4;

std::uint64_t
linesOf(std::uint64_t bytes)
{
    return std::max<std::uint64_t>(1, bytes / kLineBytes);
}
} // namespace

SyntheticWorkload::SyntheticWorkload(const WorkloadParams &params)
    : params_(params), rng_(params.seed, 0x2545f4914f6cdd1dULL)
{
    GALS_ASSERT(!params_.phases.empty(),
                "workload '%s' has no phases", params_.name.c_str());
    startPhase(0);
}

const PhaseParams &
SyntheticWorkload::phase() const
{
    return params_.phases[static_cast<size_t>(phase_idx_)];
}

void
SyntheticWorkload::startPhase(int idx)
{
    phase_idx_ = idx;
    instrs_in_phase_ = 0;
    cur_phase_ = &params_.phases[static_cast<size_t>(idx)];
    const PhaseParams &p = phase();

    GALS_ASSERT(p.block_len >= 2, "block_len must be at least 2");
    GALS_ASSERT(p.num_chains >= 1 && p.chain_segment_len >= 1,
                "chain parameters must be positive");

    hot_lines_ = linesOf(p.code_hot_bytes);
    total_lines_ = std::max(linesOf(p.code_total_bytes), hot_lines_);
    loop_start_ = loop_start_ % hot_lines_;
    newLoopEpisode();
    pos_in_loop_ = 0;
    cur_line_ = loop_start_;
    in_excursion_ = false;
    excursion_left_ = 0;
    instr_in_block_ = 0;

    // Keep per-site branch state across phases when the layout allows;
    // grow it to cover the whole footprint.
    if (site_counter_.size() < total_lines_) {
        site_counter_.resize(total_lines_, 0);
        site_kind_.resize(total_lines_, 0);
    }

    chains_.resize(static_cast<size_t>(p.num_chains));
    int window = std::max(1, (kNumIntRegs - 8) / p.num_chains);
    for (size_t i = 0; i < chains_.size(); ++i) {
        Chain &c = chains_[i];
        c.is_fp = rng_.chance(p.fp_frac);
        c.tail = kZeroReg;
        c.stream_pos = (i * 4096) % std::max<std::uint64_t>(
            p.stream_bytes, static_cast<std::uint64_t>(kLineBytes));
        c.reg_base = 8 + static_cast<int>(i) * window;
        c.reg_count = window;
        c.reg_next = 0;
    }
    chain_idx_ = 0;
    ops_in_segment_ = 0;

    // Hoist the phase-constant hot-path math (bit-exact: each cached
    // value is the very expression the per-op code used to evaluate).
    pc_.rand_pool = p.rand_bytes >= kLineBytes;
    pc_.stream_base = kStreamBase + params_.addr_offset;
    pc_.rand_base =
        pc_.stream_base +
        ((std::max<std::uint64_t>(p.stream_bytes, kLineBytes) +
          3 * kLineBytes) /
         kLineBytes) *
            kLineBytes;
    // Shared draws need both a declared window (workload-level) and a
    // nonzero per-phase fraction; either alone leaves the stream --
    // including its RNG consumption -- bit-identical to a workload
    // without the knobs.
    pc_.shared_lines =
        (p.shared_frac > 0.0 &&
         params_.shared_bytes >= static_cast<std::uint64_t>(kLineBytes))
            ? static_cast<std::uint32_t>(std::min<std::uint64_t>(
                  linesOf(params_.shared_bytes), 0xffffffffULL))
            : 0;
    pc_.rand_lines = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(linesOf(p.rand_bytes),
                                0xffffffffULL));
    pc_.stream_region = std::max<std::uint64_t>(
        p.stream_bytes, static_cast<std::uint64_t>(kLineBytes));
    pc_.stream_stride =
        std::max<std::uint64_t>(p.stream_stride_bytes, 1);
    pc_.cross_chain = p.cross_chain_frac > 0.0 && chains_.size() > 1;
    pc_.load_roll = Pcg32::rollThreshold(p.load_frac);
    pc_.store_roll = Pcg32::rollThreshold(p.load_frac + p.store_frac);
    pc_.div_roll = Pcg32::rollThreshold(p.div_frac);
    pc_.mul_roll = Pcg32::rollThreshold(p.div_frac + p.mul_frac);
    pc_.excursion_chance = Pcg32::chanceThreshold(p.excursion_frac);
    pc_.shared_chance = Pcg32::chanceThreshold(p.shared_frac);
    pc_.rand_chance = Pcg32::chanceThreshold(p.rand_frac);
    pc_.cross_chain_chance = Pcg32::chanceThreshold(p.cross_chain_frac);
    pc_.load_chain_chance = Pcg32::chanceThreshold(p.load_chain_frac);
    pc_.branch_dep_chance = Pcg32::chanceThreshold(p.branch_dep_frac);
    // The noise roll keeps its `branch_noise > 0` guard: no draw for
    // NaN, where chance() alone would draw.
    pc_.noise_chance = Pcg32::chanceThreshold(
        p.branch_noise > 0.0 ? p.branch_noise : 0.0);
    pc_.pattern_len =
        static_cast<std::uint32_t>(p.branch_pattern_len);
}

std::int8_t
SyntheticWorkload::allocReg(Chain &chain)
{
    int r = chain.reg_base + chain.reg_next;
    chain.reg_next = (chain.reg_next + 1) % chain.reg_count;
    if (chain.is_fp)
        r += kFirstFpReg;
    return static_cast<std::int8_t>(r);
}

bool
SyntheticWorkload::branchOutcome()
{
    const PhaseParams &p = *cur_phase_;
    // The walk keeps cur_line_ < total_lines_ (hot positions are
    // reduced mod hot_lines_, excursions stay in [hot, total)), so
    // the line *is* the site index.
    size_t site = static_cast<size_t>(cur_line_);
    std::uint32_t &counter = site_counter_[site];
    ++counter;

    std::uint8_t &kind = site_kind_[site];
    if (kind == 0) {
        // First execution decides the site's behavior.
        if (rng_.chance(p.loop_site_frac))
            kind = 1;
        else
            kind = rng_.chance(0.85) ? 2 : 3;
    }

    bool taken = true;
    switch (kind) {
      case 1:
        // Loop backedge: taken except every pattern_len-th run.
        taken = pc_.pattern_len <= 1 ||
                (counter % pc_.pattern_len) != 0;
        break;
      case 2:
        taken = true;
        break;
      default:
        taken = false;
        break;
    }
    if (rng_.chanceAt(pc_.noise_chance))
        taken = rng_.chance(0.5);
    return taken;
}

void
SyntheticWorkload::newLoopEpisode()
{
    const PhaseParams &p = phase();
    std::uint64_t max_len = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(std::max(p.loop_lines_max, 1)),
        hot_lines_);
    loop_len_ = 1 + rng_.nextBounded(
        static_cast<std::uint32_t>(max_len));
    loop_iters_left_ =
        1 + static_cast<int>(rng_.nextBounded(static_cast<std::uint32_t>(
            std::max(p.loop_iters_max, 1))));
}

void
SyntheticWorkload::advanceBlock()
{
    const PhaseParams &p = phase();
    if (in_excursion_) {
        if (--excursion_left_ <= 0) {
            in_excursion_ = false;
            cur_line_ = (loop_start_ + pos_in_loop_) % hot_lines_;
        } else {
            excursion_pos_ = hot_lines_ +
                             (excursion_pos_ - hot_lines_ + 1) %
                                 (total_lines_ - hot_lines_);
            cur_line_ = excursion_pos_;
        }
        return;
    }
    if (total_lines_ > hot_lines_ &&
        rng_.chanceAt(pc_.excursion_chance)) {
        in_excursion_ = true;
        excursion_left_ = p.excursion_len;
        excursion_pos_ = hot_lines_ +
                         rng_.nextBounded(static_cast<std::uint32_t>(
                             total_lines_ - hot_lines_));
        cur_line_ = excursion_pos_;
        return;
    }

    // Advance within the current loop episode; iterate it; then move
    // the episode window onward through the hot footprint.
    ++pos_in_loop_;
    if (pos_in_loop_ >= loop_len_) {
        pos_in_loop_ = 0;
        if (--loop_iters_left_ <= 0) {
            loop_start_ = (loop_start_ + loop_len_) % hot_lines_;
            newLoopEpisode();
        }
    }
    cur_line_ = (loop_start_ + pos_in_loop_) % hot_lines_;
}

Addr
SyntheticWorkload::dataAddress(Chain &chain)
{
    if (pc_.shared_lines != 0 && rng_.chanceAt(pc_.shared_chance)) {
        // Chip-shared window: every sharing core draws lines from the
        // same [kSharedBase, kSharedBase + shared_bytes) range, so
        // stores here are the (only) source of cross-core coherence
        // traffic.
        std::uint64_t line = rng_.nextBounded(pc_.shared_lines);
        return kSharedBase + line * kLineBytes;
    }
    if (pc_.rand_pool && rng_.chanceAt(pc_.rand_chance)) {
        // The pool sits contiguously after the streamed region (as a
        // real heap would), so small working sets do not suffer
        // artificial direct-mapped conflicts.
        std::uint64_t line = rng_.nextBounded(pc_.rand_lines);
        return pc_.rand_base + line * kLineBytes;
    }
    // stream_pos stays < region, so one conditional reduction equals
    // the modulo.
    std::uint64_t pos = chain.stream_pos + pc_.stream_stride;
    if (pos >= pc_.stream_region)
        pos %= pc_.stream_region;
    chain.stream_pos = pos;
    return pc_.stream_base + pos;
}

MicroOp
SyntheticWorkload::makeBranch()
{
    MicroOp op;
    op.cls = OpClass::Branch;
    Chain &chain = chains_[chain_idx_];
    bool data_dep = !chain.is_fp &&
                    rng_.chanceAt(pc_.branch_dep_chance);
    op.src1 = data_dep ? chain.tail : kZeroReg;
    op.src2 = -1;
    op.dst = -1;
    op.taken = branchOutcome();
    return op;
}

MicroOp
SyntheticWorkload::makeWork()
{
    const PhaseParams &p = *cur_phase_;
    Chain &chain = chains_[chain_idx_];

    MicroOp op;
    op.src1 = chain.tail;
    op.src2 = kZeroReg;
    if (pc_.cross_chain && rng_.chanceAt(pc_.cross_chain_chance)) {
        size_t other = rng_.nextBounded(
            static_cast<std::uint32_t>(chains_.size()));
        op.src2 = chains_[other].tail;
    }

    std::uint32_t roll = rng_.next();
    if (roll < pc_.load_roll) {
        op.cls = chain.is_fp ? OpClass::FpLoad : OpClass::Load;
        op.mem_addr = dataAddress(chain);
        op.dst = allocReg(chain);
        if (rng_.chanceAt(pc_.load_chain_chance))
            chain.tail = op.dst;
    } else if (roll < pc_.store_roll) {
        op.cls = OpClass::Store;
        op.mem_addr = dataAddress(chain);
        op.src2 = chain.tail;
        op.dst = -1;
    } else {
        std::uint32_t alu = rng_.next();
        if (chain.is_fp) {
            op.cls = alu < pc_.div_roll   ? OpClass::FpDiv
                     : alu < pc_.mul_roll ? OpClass::FpMul
                                          : OpClass::FpAlu;
        } else {
            op.cls = alu < pc_.div_roll   ? OpClass::IntDiv
                     : alu < pc_.mul_roll ? OpClass::IntMul
                                          : OpClass::IntAlu;
        }
        op.dst = allocReg(chain);
        chain.tail = op.dst;
    }

    if (++ops_in_segment_ >= p.chain_segment_len) {
        ops_in_segment_ = 0;
        if (++chain_idx_ >= chains_.size())
            chain_idx_ = 0;
    }
    return op;
}

MicroOp
SyntheticWorkload::next()
{
    const PhaseParams &p = *cur_phase_;

    MicroOp op;
    bool end_of_block = instr_in_block_ == p.block_len - 1;
    op = end_of_block ? makeBranch() : makeWork();
    op.pc = kCodeBase + cur_line_ * kLineBytes +
            static_cast<Addr>((instr_in_block_ * kInstrBytes) %
                              kLineBytes);

    if (end_of_block) {
        instr_in_block_ = 0;
        advanceBlock();
    } else {
        ++instr_in_block_;
    }

    ++generated_;
    if (++instrs_in_phase_ >= p.length_instrs) {
        int next_phase =
            (phase_idx_ + 1) % static_cast<int>(params_.phases.size());
        startPhase(next_phase);
    }
    return op;
}

void
SyntheticWorkload::nextBatch(MicroOp *out, int n)
{
    // A plain loop over next() is the whole point: the generator's
    // state (RNG, chains, site tables) stays resident in L1 for the
    // full batch, where the per-op interleave evicted it against the
    // simulator's working set between every call. Bit-exactness is
    // by construction — the op sequence is the same function of the
    // same state either way.
    for (int i = 0; i < n; ++i)
        out[i] = next();
}

} // namespace gals
