/**
 * @file
 * The load/store domain unit: LSQ, MSHRs and the L1 data cache. The
 * unified L2 and main memory sit behind the chip's interconnect port
 * (core/ports.hh). The D-cache pair's phase decisions belong to the
 * core's ReconfigUnit (core/reconfig.hh), which resizes the pair
 * through resizeStructure.
 *
 * The unit serves three traffic classes per edge — dispatch arrivals
 * from the front end, the store-ready and load-issue walks over the
 * LSQ, and the post-commit store-buffer drain — and records a walk
 * summary so the event kernel can sleep when nothing can change.
 * Cross-domain traffic (store-ready publications, completion wakes,
 * store-buffer handoff, the front end's I-cache fills through the
 * unified L2) goes exclusively through the typed ports.
 */

#ifndef GALS_CORE_LSU_HH
#define GALS_CORE_LSU_HH

#include "cache/accounting_cache.hh"
#include "core/domain.hh"
#include "core/machine_config.hh"
#include "core/structures.hh"

namespace gals
{

struct CorePorts;
class DispatchPort;
class CompletionPort;
class StoreBufferPort;
class WakePort;
class ReconfigUnit;
class InterconnectPort;

/** Load/store unit: LSQ, L1D, MSHRs, store-buffer drain. */
class LoadStoreUnit final : public Domain
{
  public:
    /**
     * `icp` carries this unit's L2-and-below traffic to the chip's
     * shared banked L2; the L1D and its MSHRs stay local to the core.
     */
    LoadStoreUnit(const MachineConfig &cfg,
                  const AdaptiveConfig &cur_cfg, CoreTiming &timing,
                  Rob &rob, InterconnectPort &icp, int core_index);

    /** Connect ports and the reconfiguration unit (once). */
    void wire(CorePorts &ports, ReconfigUnit &reconfig);

    Tick step(Tick now) override;

    // ------------------------------------------------------------------
    // Cross-domain services.
    // ------------------------------------------------------------------
    /**
     * Serve an I-cache line fill through the unified L2 (and memory
     * on an L2 miss) for the front end. `t_req` is the request's
     * arrival on this domain's grid; the returned serve time is on
     * this grid too (the front end extrapolates it back). `now` is
     * the front end's step tick performing the request (the shared
     * interconnect's publication-order bookkeeping needs it).
     */
    Tick serveIcacheFill(Addr pc, Tick t_req, Tick now);

    /** L1D line shift (rename derives LSQ line addresses with it). */
    int dcacheLineShift() const { return l1d_.lineShift(); }

    /** Re-partition the D-cache pair to Table 1 row `index`. */
    void resizeStructure(int index) override;

    // ------------------------------------------------------------------
    // Structure access (rename, retire, invariants, statistics).
    // ------------------------------------------------------------------
    Lsq &lsq() { return lsq_; }
    const Lsq &lsq() const { return lsq_; }
    AccountingCache &l1d() { return l1d_; }
    const AccountingCache &l1d() const { return l1d_; }

    /** L2 lifetime totals of *this core's* slice of the shared L2. */
    std::uint64_t l2TotalAccesses() const;
    std::uint64_t l2TotalMisses() const;
    std::uint64_t l2TotalBHits() const;

    /** Load-issue attempts that found no free MSHR / an older
     * same-line store without data (each retried by a later walk;
     * the `lsu.retry.*` metrics). */
    std::uint64_t retriesMshrBusy() const { return retry_mshr_busy_; }
    std::uint64_t retriesBlocked() const { return retry_blocked_; }
    /** Entries visited by the load-issue / store-ready walks (the
     * `lsu.*_walk` metrics). */
    std::uint64_t loadWalkVisits() const { return load_walk_; }
    std::uint64_t storeWalkVisits() const { return store_walk_; }

  private:
    /** The bound step() returns (Domain::step). */
    Tick wakeBound() const;

    /** Outcome of a load-issue attempt. */
    enum class LoadStart
    {
        Issued,   //!< access started; entry leaves the waiting list.
        Blocked,  //!< older same-line store lacks data: retried.
        MshrBusy, //!< no free MSHR: retried.
    };

    LoadStart tryStartLoad(LsqEntry &entry, Tick now, int &ports_used);
    void drainStoreBuffer(Tick now, int &ports_used, int max_ports);
    Tick dataHierarchyTime(Addr addr, Tick now);
    /** Occupy the free MSHR the caller verified exists until `done`. */
    void claimMshr(Tick now, Tick done);
    /** resizeStructure's L1 half; the constructor's first row too. */
    void
    setL1Row(int index)
    {
        l1d_.setPartition(dcachePairConfig(index).l1_adapt.assoc,
                          cfg_.phase_adaptive);
    }

    const MachineConfig &cfg_;
    const AdaptiveConfig &cur_cfg_;
    Rob &rob_;

    Lsq lsq_;
    AccountingCache l1d_;
    std::vector<Tick> mshr_busy_;
    /** min(mshr_busy_): one compare decides "any MSHR free". */
    Tick mshr_min_free_ = 0;

    /**
     * Walk summary of the last step's LSQ walks: what bounds the
     * domain's sleep. Event wakes (an agen issue, a dispatch arrival,
     * a store-buffer push, an epoch bump) reach the scheduler through
     * their ports; every step walks every agen-issued waiting entry.
     */
    struct LsSummary
    {
        /** Loads were left unevaluated (memory ports ran out). */
        bool must_walk = true;
        /** Earliest agen-visibility / MSHR-free time among waiters. */
        Tick min_time = kTickMax;
    };
    LsSummary ls_sum_;

    /** Walk-local event counts (observation only; Chip::run folds
     * them into the metrics registry once per run). */
    std::uint64_t retry_mshr_busy_ = 0;
    std::uint64_t retry_blocked_ = 0;
    std::uint64_t load_walk_ = 0;
    std::uint64_t store_walk_ = 0;

    // Wired peers.
    DispatchPort *disp_ = nullptr;
    CompletionPort *completion_ = nullptr;
    StoreBufferPort *sb_ = nullptr;
    WakePort *store_ready_ = nullptr;
    ReconfigUnit *reconfig_ = nullptr;
    /** Shared-L2 channel. */
    InterconnectPort &icp_;
    int core_index_ = 0;
};

} // namespace gals

#endif // GALS_CORE_LSU_HH
