/**
 * @file
 * The front-end domain unit: I-cache, branch predictor, fetch queue,
 * rename (ROB, register files) and retire.
 *
 * One front-end edge runs retire, rename and fetch in program-flow
 * order (retire frees resources rename needs; rename frees
 * fetch-queue space) and accumulates the domain's exact next-progress
 * tick in `fe_next_`. Cross-domain traffic — dispatch into the
 * execution domains, committed stores into the store buffer, the
 * halt/resume handshake with the resolving cluster — goes exclusively
 * through the typed ports (core/ports.hh).
 *
 * The fetch queue is a SyncFifo like every other timed hand-off in
 * the core: each fetched op carries the tick at which rename may
 * consume it (`now + feDepth * period`, the front-end pipe latency).
 *
 * On a phase-adaptive machine this step is where the core's phase
 * controller (core/reconfig.hh) is sampled: retire hands it each
 * cache-interval boundary and rename each completed ILP-tracker
 * interval. The decisions and their state live there.
 */

#ifndef GALS_CORE_FRONT_END_HH
#define GALS_CORE_FRONT_END_HH

#include <array>
#include <functional>
#include <memory>

#include "cache/accounting_cache.hh"
#include "clock/sync_fifo.hh"
#include "control/ilp_tracker.hh"
#include "core/domain.hh"
#include "core/machine_config.hh"
#include "core/run_stats.hh"
#include "core/structures.hh"
#include "predictor/hybrid_predictor.hh"
#include "workload/generator.hh"

namespace gals
{

struct CorePorts;
class LoadStoreUnit;
class ReconfigUnit;

/** One fetched op waiting for rename, with decode-invariant fields. */
struct FetchedOp
{
    MicroOp uop;
    bool mispredict = false;

    // Decode-invariant classification, filled at fetch so rename and
    // the front-end sleep gate never recompute it.
    DomainId dom = DomainId::Integer;
    bool is_mem = false;
    bool needs_dst = false;
    bool dst_fp = false;
};

/** Front end: fetch, rename, retire — the progress-owning domain. */
class FrontEnd final : public Domain
{
  public:
    FrontEnd(const MachineConfig &cfg, const AdaptiveConfig &cur_cfg,
             CoreTiming &timing, const WorkloadParams &wl);

    /** Connect ports and peer units (composition root, once). */
    void wire(CorePorts &ports, LoadStoreUnit &lsu,
              ReconfigUnit &reconfig);

    Tick step(Tick now) override;

    /** Re-partition the I-cache and predictor to Table 2 row
     * `index`. */
    void resizeStructure(int index) override;

    // ------------------------------------------------------------------
    // Progress and measurement (read by the composition root).
    // ------------------------------------------------------------------
    std::uint64_t committed() const { return committed_; }
    /** Stable reference the scheduler's stop condition polls. */
    const std::uint64_t &committedRef() const { return committed_; }
    std::uint64_t flushes() const { return flushes_; }
    Tick lastCommitTime() const { return last_commit_time_; }
    /** Measured-window residency (RunStats::residency). */
    const RunStats::Residency &residency() const { return residency_; }

    /** Zero-warmup runs measure from t=0 (calls the baseline hook). */
    void beginMeasurementAtZero();

    /** Hook run when the measurement window opens (baselines). */
    void onMeasureStart(std::function<void(Tick)> hook)
    {
        on_measure_start_ = std::move(hook);
    }

    /** Deep-invariant hook + cadence in front-end steps (0 = off). */
    void
    setInvariantCheck(std::function<void()> hook, std::uint32_t every)
    {
        validate_ = std::move(hook);
        inv_interval_ = every;
        inv_countdown_ = every;
    }

    // ------------------------------------------------------------------
    // Structure access (invariants, statistics).
    // ------------------------------------------------------------------
    const Rob &rob() const { return rob_; }
    Rob &rob() { return rob_; }
    const RegisterFiles &regs() const { return regs_; }
    RegisterFiles &regs() { return regs_; }
    AccountingCache &l1i() { return *l1i_; }
    const AccountingCache &l1i() const { return *l1i_; }
    HybridPredictor &predictor() { return *predictor_; }
    const HybridPredictor &predictor() const { return *predictor_; }

  private:
    // Stages (program-flow order within one step).
    void doRetire(Tick now);
    void doRename(Tick now);
    void doFetch(Tick now);
    Tick icacheMissTime(Addr pc, Tick now);

    /**
     * Record a next-progress bound discovered during the current
     * step: the earliest tick at which the recording stage could do
     * more work. 0 = progress possible at the very next edge;
     * anything a cross-domain port must provide is *not* recorded
     * (the port wakes cover it).
     */
    void
    feNote(Tick t)
    {
        if (t < fe_next_)
            fe_next_ = t;
    }

    const MachineConfig &cfg_;
    const AdaptiveConfig &cur_cfg_;
    const WorkloadParams &wl_params_;

    SyntheticWorkload workload_;

    // Owned front-end structures.
    std::unique_ptr<AccountingCache> l1i_;
    std::unique_ptr<HybridPredictor> predictor_;
    RegisterFiles regs_;
    Rob rob_;
    SyncFifo<FetchedOp> fetch_queue_;

    // Fetch state.
    /** L1I A/B latencies of the live config (hoisted off doFetch). */
    int fetch_a_lat_;
    int fetch_b_lat_;
    /**
     * Pre-generated op batch: fetch refills it with one tight
     * nextBatch() call instead of generating one op per fetch slot,
     * which takes the generator's call overhead off the per-op fetch
     * path; streams are bit-exact by construction (generation is
     * open-loop). Fetch reads the next op in place at
     * op_batch_[op_batch_head_] and advances the head only once the
     * op is pushed, so an op stalled on an I-cache gate stays the
     * head for the next edge. Ops past the progress target are
     * generated but never consumed — the generator has no side
     * effects outside its own state.
     */
    static constexpr int kOpBatch = 32;
    std::array<MicroOp, kOpBatch> op_batch_{};
    int op_batch_head_ = 0;
    int op_batch_count_ = 0;
    Addr cur_fetch_line_ = ~0ULL;
    Tick fetch_line_ready_ = 0;
    /**
     * Provenance of fetch_line_ready_: true when it came from an
     * L2/memory line fill, i.e. a cross-domain grid extrapolation of
     * fetch_line_fill_done_ (the serve time in the load/store
     * domain). A PLL re-lock moves the grid, so the memo is
     * epoch-tagged and recomputed on mismatch while the fill is still
     * pending. Hit-path ready times are short same-domain offsets and
     * are not re-extrapolated.
     */
    bool fetch_line_is_fill_ = false;
    Tick fetch_line_fill_done_ = 0;
    std::uint32_t fetch_line_epoch_ = 0;
    bool fetch_halted_ = false;

    /** Fed by rename; each completed interval is a queue sample for
     * the phase controller (ReconfigUnit::queueSample). */
    IlpTracker ilp_tracker_;

    // Progress.
    SeqNum next_seq_ = 0;
    std::uint64_t committed_ = 0;
    std::uint64_t interval_commits_ = 0;
    Tick last_commit_time_ = 0;
    std::uint64_t flushes_ = 0;

    // Measurement window.
    bool measuring_ = false;
    RunStats::Residency residency_{};

    /**
     * Front-end next-progress summary: the earliest tick at which any
     * stage can do more work, accumulated by the stages *during* the
     * step (via feNote) instead of being re-derived afterwards.
     * kTickMax = every stage is blocked on a cross-domain event, all
     * of which are covered by port wakes. Recorded afresh by every
     * step; a period change landing after the step is the
     * scheduler's to handle (it re-steps the domain at its next
     * edge).
     */
    Tick fe_next_ = 0;

    /** Invariant-check cadence in front-end steps; 0 = off. */
    std::uint32_t inv_interval_ = 0;
    std::uint32_t inv_countdown_ = 0;

    // Wired peers (set once by wire()).
    CorePorts *ports_ = nullptr;
    LoadStoreUnit *lsu_ = nullptr;
    ReconfigUnit *reconfig_ = nullptr;
    Lsq *lsq_ = nullptr;

    std::function<void(Tick)> on_measure_start_;
    std::function<void()> validate_;
};

} // namespace gals

#endif // GALS_CORE_FRONT_END_HH
