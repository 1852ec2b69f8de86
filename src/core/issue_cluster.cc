#include "core/issue_cluster.hh"

#include "core/ports.hh"
#include "core/reconfig.hh"

namespace gals
{

IssueCluster::IssueCluster(DomainId id, const MachineConfig &cfg,
                           const AdaptiveConfig &cur_cfg,
                           CoreTiming &timing, Rob &rob,
                           RegisterFiles &regs)
    : Domain(id, timing), cfg_(cfg), cur_cfg_(cur_cfg), rob_(rob),
      regs_(regs), iq_(kIssueQueueSizes[cur_cfg[structureOf(id)]]),
      qctl_(id == DomainId::FloatingPoint)
{
    fu_.alus = id == DomainId::Integer ? cfg.int_alus : cfg.fp_alus;
    iq_.initWaiterIndex(cfg.phys_int_regs, cfg.phys_fp_regs);
}

void
IssueCluster::wire(CorePorts &ports, ReconfigUnit &reconfig)
{
    disp_ = id_ == DomainId::Integer ? &ports.disp_int
                                     : &ports.disp_fp;
    completion_ = &ports.completion;
    redirect_ = &ports.redirect;
    agen_ = &ports.agen;
    reconfig_ = &reconfig;
}

Tick
IssueCluster::step(Tick now)
{
    if (pending_->active)
        reconfig_->applyPending(id_, now);

    const DomainId dom = id_;
    Tick period = timing_.clock(dom).period();

    // Dispatch arrivals enter the ready ring as unevaluated
    // candidates; their sources are folded in the select walk below,
    // at this very edge — exactly where the reference scan first
    // evaluates them. The port wakes rename when a pop drained a
    // previously full FIFO.
    disp_->consume(now, [&](size_t idx) {
        if (iq_.full())
            return false;
        InFlightOp &op = rob_[idx];
        op.in_queue = true;
        std::int32_t id = iq_.alloc();
        IqSlot &slot = iq_.slot(id);
        slot.rob_idx = static_cast<std::uint32_t>(idx);
        slot.cls = op.uop.cls;
        slot.is_mem = op.is_mem;
        slot.mispredict = op.mispredict;
        slot.psrc1 = op.psrc1;
        slot.psrc2 = op.psrc2;
        slot.pdst = op.pdst;
        slot.seq = op.seq;
        slot.issue_eligible = now;
        iq_.pushCandidate(id, true);
        return true;
    });

    // A landed period change staled every memoized ready time, the
    // ones the completion port folded since this queue last stepped
    // included: timed and ready slots re-fold at this edge.
    if (iq_epoch_ != timing_.epoch()) {
        iq_.invalidateTimes();
        iq_epoch_ = timing_.epoch();
    }
    iq_.promoteDue(now);
    if (!iq_.hasCandidates())
        return wakeBound();

    fu_.newCycle();
    int issued = 0;
    // Select walks the ready ring oldest-first, so issue order, the
    // width cutoff and FU allocation match the reference scan's
    // age-ordered walk exactly. Ops a completion frees mid-walk are
    // consumers of the issuing op: the completion port times them
    // past this edge, so they never join the walked ring.
    iq_.walkCandidates([&](std::int32_t id) {
        if (issued >= cfg_.issue_width)
            return IssueQueue::CandAction::Stop;
        ++cand_walks_;
        IqSlot &slot = iq_.slot(id);
        if (slot.needs_eval) {
            slot.needs_eval = false;
            ++src_evals_;
            bool pending_src = false;
            for (int si = 0; si < 2; ++si) {
                PhysRef ref = si == 0 ? slot.psrc1 : slot.psrc2;
                if (ref.index >= 0 && regs_.state(ref).pending) {
                    // Producer not issued: completion time is
                    // unknowable. Park on the register's waiter
                    // chain; the completion freeing the last pending
                    // source folds the slot into the timer ring.
                    pending_src = true;
                    iq_.addWaiter(ref, id, si);
                }
            }
            if (pending_src)
                return IssueQueue::CandAction::Drop;
            slot.ready_at = slotReadyAt(slot, regs_, timing_, dom);
            if (slot.ready_at > now) {
                iq_.pushTimed(id); // exact future ready time.
                return IssueQueue::CandAction::Drop;
            }
        }
        // Ready now: attempt issue. Memory ops in the integer queue
        // are address-generation uops: one ALU cycle, then the LSQ
        // takes over.
        bool agen = slot.is_mem;
        OpClass fu_cls = agen ? OpClass::IntAlu : slot.cls;
        Tick complete =
            now + static_cast<Tick>(opLatency(fu_cls)) * period;
        if (!fu_.claim(fu_cls, now, complete)) {
            // Structural stall: stays ready in place, retried every
            // edge; select keeps walking younger candidates.
            return IssueQueue::CandAction::Keep;
        }
        InFlightOp &op = rob_[slot.rob_idx];
        op.in_queue = false;
        if (agen) {
            // Hand off to the load/store unit: the port records the
            // agen completion, clears the LSQ entry's agen wait in
            // place, and wakes the load/store domain.
            agen_->agenIssued(op, complete, now);
        } else {
            op.complete_at = complete;
            completion_->complete(slot.pdst, complete, dom,
                                  slot.rob_idx, now);
        }
        if (slot.cls == OpClass::Branch && slot.mispredict) {
            redirect_->resolve(complete, dom, now);
        }
        iq_.freeSlot(id);
        ++issued;
        return IssueQueue::CandAction::Drop;
    });
    return wakeBound();
}

Tick
IssueCluster::wakeBound() const
{
    Tick w = kTickMax;
    if (iq_.size() != 0) {
        // The ready list partitions the queue by what each op is
        // provably waiting for: candidates need this domain's next
        // edge, timed slots an exact future tick, chained waiters a
        // completion (the completion port's chain walk wakes us at
        // the value's visibility).
        if (iq_.hasCandidates())
            return 0;
        w = std::min(w, iq_.minTimed());
    }
    // A full queue refuses the FIFO head, so a visible head is no
    // work: the queue regains room only through one of the wakes
    // above or a capacity increase, which the reconfiguration port
    // publishes. A structurally blocked consumer never polls.
    if (!disp_->empty() && !iq_.full())
        w = std::min(w, disp_->frontVisibleAt());
    return w;
}

void
IssueCluster::control(const IlpSample &sample, Tick now,
                      std::uint64_t committed)
{
    QueueDecision d = qctl_.decide(sample);
    const Structure s = structureOf(id_);
    int cur = cur_cfg_[s];
    bool passes =
        d.best_index != cur &&
        d.score[static_cast<size_t>(d.best_index)] >
            d.score[static_cast<size_t>(cur)] *
                (1.0 + cfg_.queue_hysteresis);
    int prop = passes ? d.best_index : cur;
    if (damper_.vote(prop, cur, cfg_.queue_persistence))
        reconfig_->request(s, prop, now, committed);
}

} // namespace gals
