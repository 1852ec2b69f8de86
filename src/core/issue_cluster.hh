/**
 * @file
 * An execution-cluster domain unit: one issue queue with its
 * push-based ready list and a function-unit pool. The integer and
 * floating-point domains are two instances of this class; memory ops
 * issue their address-generation uop from the integer instance and
 * hand off to the load/store unit through the agen port. The queue's
 * size decisions belong to the core's ReconfigUnit
 * (core/reconfig.hh), which resizes it through resizeStructure.
 */

#ifndef GALS_CORE_ISSUE_CLUSTER_HH
#define GALS_CORE_ISSUE_CLUSTER_HH

#include "core/domain.hh"
#include "core/machine_config.hh"
#include "core/structures.hh"

namespace gals
{

struct CorePorts;
class DispatchPort;
class CompletionPort;
class RedirectPort;
class AgenPort;
class ReconfigUnit;

/** Integer or floating-point execution cluster. */
class IssueCluster final : public Domain
{
  public:
    /** The queue starts at `cur_cfg`'s size for the structure this
     * cluster's domain owns. */
    IssueCluster(DomainId id, const MachineConfig &cfg,
                 const AdaptiveConfig &cur_cfg, CoreTiming &timing,
                 Rob &rob, RegisterFiles &regs);

    /** Connect ports and the reconfiguration unit (once). */
    void wire(CorePorts &ports, ReconfigUnit &reconfig);

    Tick step(Tick now) override;

    /** Resize the issue queue to size index `index`. Occupancy above
     * a smaller capacity drains naturally. */
    void
    resizeStructure(int index) override
    {
        iq_.setCapacity(kIssueQueueSizes[index]);
    }

    IssueQueue &iq() { return iq_; }
    const IssueQueue &iq() const { return iq_; }

    /** Select-walk work (the `iq.*` metrics): candidates handed to
     * select, and the source folds among them. */
    std::uint64_t candWalks() const { return cand_walks_; }
    std::uint64_t srcEvals() const { return src_evals_; }

  private:
    /** The bound step() returns (Domain::step). */
    Tick wakeBound() const;

    /** `slotReadyAt(s, ...) <= now` at this cluster's own edge,
     * through visibleOnEdge (no grid extrapolation). */
    bool slotReadyOnEdge(const IqSlot &s, Tick now) const;

    const MachineConfig &cfg_;
    Rob &rob_;
    RegisterFiles &regs_;

    IssueQueue iq_;
    FuPool fu_;
    /**
     * Per-queue epoch tag of the ready-list timing state: ready_at
     * values and the timer-ring order extrapolate clock grids, so a
     * mismatch with the core epoch forces invalidateTimes at the next
     * step (the one O(queue) path left in the back end).
     */
    std::uint32_t iq_epoch_ = 1;

    /** Walk-local work counts (observation only; Chip::run folds
     * them into the metrics registry once per run). */
    std::uint64_t cand_walks_ = 0;
    std::uint64_t src_evals_ = 0;

    // Wired peers.
    DispatchPort *disp_ = nullptr;
    CompletionPort *completion_ = nullptr;
    RedirectPort *redirect_ = nullptr;
    AgenPort *agen_ = nullptr;
    ReconfigUnit *reconfig_ = nullptr;
};

} // namespace gals

#endif // GALS_CORE_ISSUE_CLUSTER_HH
