#include "core/lsu.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/ports.hh"
#include "core/reconfig.hh"
#include "timing/frequency_model.hh"

namespace gals
{

namespace
{

constexpr std::uint64_t KB = 1024;

} // namespace

LoadStoreUnit::LoadStoreUnit(const MachineConfig &cfg,
                             const AdaptiveConfig &cur_cfg,
                             CoreTiming &timing, Rob &rob,
                             InterconnectPort &icp, int core_index)
    : Domain(DomainId::LoadStore, timing), cfg_(cfg),
      cur_cfg_(cur_cfg), rob_(rob), lsq_(cfg.lsq_entries),
      mshr_busy_(static_cast<size_t>(cfg.mshrs), 0), icp_(icp),
      core_index_(core_index)
{
    const DCachePairConfig &dc = dcachePairConfig(cur_cfg_.dcache);
    if (cfg_.mode == ClockingMode::MCD) {
        l1d_ = std::make_unique<AccountingCache>("l1d", 256 * KB, 8);
        l1d_->setPartition(dc.l1_adapt.assoc, cfg_.phase_adaptive);
    } else {
        l1d_ = std::make_unique<AccountingCache>(
            "l1d", dc.l1_opt.size_bytes, dc.l1_opt.assoc);
        l1d_->setPartition(dc.l1_opt.assoc, false);
    }
}

void
LoadStoreUnit::wire(CorePorts &ports, ReconfigUnit &reconfig)
{
    disp_ = &ports.disp_ls;
    completion_ = &ports.completion;
    sb_ = &ports.store_buffer;
    store_ready_ = &ports.store_ready;
    reconfig_ = &reconfig;
}

std::uint64_t
LoadStoreUnit::l2TotalAccesses() const
{
    return icp_.accesses(core_index_);
}

std::uint64_t
LoadStoreUnit::l2TotalMisses() const
{
    return icp_.misses(core_index_);
}

std::uint64_t
LoadStoreUnit::l2TotalBHits() const
{
    return icp_.bHits(core_index_);
}

// ---------------------------------------------------------------------
// Reconfiguration and control.
// ---------------------------------------------------------------------

void
LoadStoreUnit::resizeStructure(int index)
{
    const DCachePairConfig &dc = dcachePairConfig(index);
    l1d_->setPartition(dc.l1_adapt.assoc, cfg_.phase_adaptive);
    icp_.reconfigure(core_index_, index);
}

CacheDecision
LoadStoreUnit::decideDCache() const
{
    return chooseDCachePair(l1d_->interval(),
                            icp_.interval(core_index_),
                            memoryLineFillPs());
}

void
LoadStoreUnit::resetDCacheIntervals()
{
    l1d_->resetInterval();
    icp_.resetInterval(core_index_);
}

void
LoadStoreUnit::voteDCache(const CacheDecision &dd, Tick now,
                          std::uint64_t committed)
{
    int prop =
        cacheClearlyBetter(dd, cur_cfg_.dcache, cfg_.cache_hysteresis)
            ? dd.best_index
            : cur_cfg_.dcache;
    if (damp_dcache_.vote(prop, cur_cfg_.dcache,
                          cfg_.cache_persistence)) {
        reconfig_->request(Structure::DCachePair, prop, now,
                           committed);
    }
}

// ---------------------------------------------------------------------
// Data hierarchy timing.
// ---------------------------------------------------------------------

Tick
LoadStoreUnit::serveIcacheFill(Addr pc, Tick t_req, Tick now)
{
    Tick ls_period = timing_.clock(DomainId::LoadStore).period();
    return icp_.requestIcacheLine(core_index_, pc, t_req, ls_period, now)
        .done;
}

Tick
LoadStoreUnit::dataHierarchyTime(Addr addr, Tick now)
{
    const DCachePairConfig &dc = dcachePairConfig(cur_cfg_.dcache);
    Tick period = timing_.clock(DomainId::LoadStore).period();
    bool b_on = l1d_->bEnabled();

    AccessOutcome l1 = l1d_->access(addr);
    if (l1.where == HitWhere::APartition)
        return now + static_cast<Tick>(dc.l1_a_lat) * period;
    if (l1.where == HitWhere::BPartition) {
        return now +
               static_cast<Tick>(dc.l1_a_lat + dc.l1_b_lat) * period;
    }

    Tick probe = static_cast<Tick>(
        dc.l1_a_lat + (b_on && dc.l1_b_lat > 0 ? dc.l1_b_lat : 0));

    // The interconnect port arbitrates the banked L2 and the shared
    // memory channel; an L2 miss also holds one of this core's MSHRs
    // until the fill returns (the caller verified one is free).
    L2Reply r = icp_.requestLine(core_index_, addr, now + probe * period,
                                 period, now);
    if (!r.hit)
        claimMshr(now, r.done);
    return r.done;
}

void
LoadStoreUnit::claimMshr(Tick now, Tick done)
{
    // Claim the MSHR slot the caller verified was free.
    for (Tick &slot : mshr_busy_) {
        if (slot <= now) {
            slot = done;
            mshr_min_free_ = mshr_busy_[0];
            for (Tick s : mshr_busy_)
                mshr_min_free_ = std::min(mshr_min_free_, s);
            return;
        }
    }
    panic("data hierarchy access without a free MSHR");
}

// ---------------------------------------------------------------------
// LSQ walks.
// ---------------------------------------------------------------------

LoadStoreUnit::LoadStart
LoadStoreUnit::tryStartLoad(LsqEntry &entry, Tick now, int &ports_used)
{
    InFlightOp &op = rob_[entry.rob_idx];

    // Memory disambiguation against older stores (exact, since all
    // addresses are known at rename): blocked while any older
    // same-line store lacks its data; forward once all (at least one)
    // have it. The flat store list replaces the seed's scan over
    // every older queue entry.
    Lsq::OlderStores older = lsq_.olderStores(entry.line_addr, entry.id);
    if (older == Lsq::OlderStores::Blocked)
        return LoadStart::Blocked; // wait for the store's data.
    bool forward = older == Lsq::OlderStores::AllReady ||
                   sb_->hasLine(entry.line_addr);

    Tick done;
    if (forward) {
        done = now + timing_.clock(DomainId::LoadStore).period();
    } else {
        // Conservatively require a free MSHR before starting an
        // access that might miss.
        if (mshr_min_free_ > now)
            return LoadStart::MshrBusy;
        done = dataHierarchyTime(op.uop.mem_addr, now);
    }

    entry.issued = true;
    op.complete_at = done;
    completion_->complete(op.pdst, done, DomainId::LoadStore,
                          entry.rob_idx, now);
    ++ports_used;
    return LoadStart::Issued;
}

void
LoadStoreUnit::drainStoreBuffer(Tick now, int &ports_used,
                                int max_ports)
{
    while (ports_used < max_ports && sb_->frontReady(now)) {
        if (mshr_min_free_ > now)
            break;
        // Retirement blocks only on a *full* store buffer, so only
        // the pop that frees the first slot needs to wake the front
        // end — the port handles that transition.
        Addr addr = sb_->front() << l1d_->lineShift();
        dataHierarchyTime(addr, now);
        // A drained store to the coherent shared region publishes
        // invalidations to remote sharers through the interconnect
        // (no-op for private addresses and single-core chips).
        icp_.publishStore(core_index_, addr, now);
        sb_->pop(now);
        ++ports_used;
    }
}

Tick
LoadStoreUnit::step(Tick now)
{
    if (pending_->active)
        reconfig_->applyPending(id_, now);

    // Cross-core coherence delivery: invalidations whose transfer
    // latency has elapsed drop their lines from the L1D and charge
    // one mem port each — the timing visibility that makes the
    // publisher's remote wake load-bearing.
    int coh_ports = icp_.consumeInvalidations(core_index_, now, *l1d_);

    disp_->consume(now, [&](size_t) {
        lsq_.markArrived(now);
        return true;
    });

    bool need_every_edge = false;
    Tick min_time = kTickMax;

    // Stores become ready once their address-generation uop (which
    // also captures the data register) completes and its result
    // crosses into this domain; the ROB then retires them into the
    // store buffer. Only stores still waiting for data are walked
    // (their ids compacted in place, like the waiting loads).
    {
        auto &pending = lsq_.pendingStores();
        size_t keep = 0;
        const size_t n = pending.size();
        for (size_t i = 0; i < n; ++i) {
            std::uint64_t id = pending[i];
            LsqEntry &e = lsq_.byId(id);
            if (e.wait_kind == 1) {
                pending[keep++] = id; // agen still not issued.
                continue;
            }
            InFlightOp &op = rob_[e.rob_idx];
            if (op.agen_done == kTickMax) {
                e.wait_kind = 1; // cleared by the agen issue itself.
                pending[keep++] = id;
                continue;
            }
            if (e.arrived_at <= now) {
                Tick vis = timing_.visibleAt(
                    op.agen_done, DomainId::Integer,
                    DomainId::LoadStore);
                if (vis <= now) {
                    op.store_ready = true;
                    op.complete_at = now;
                    e.data_ready = true; // leaves the pending walk.
                    // Retire blocks only on the ROB head; a younger
                    // store becoming ready cannot unblock the front
                    // end. The head becomes retirable *at this very
                    // tick*, which the front end may first consume
                    // per the publication order rule (the port
                    // decides).
                    if (e.rob_idx == rob_.headIndex())
                        store_ready_->publish(now);
                    continue;
                }
                // Waiting on a known agen-visibility time (an
                // unarrived entry is woken by its dispatch arrival).
                min_time = std::min(min_time, vis);
            }
            pending[keep++] = id;
        }
        pending.resize(keep);
    }

    int ports_used = coh_ports;
    // When the store buffer is nearly full it blocks retirement; give
    // it one port first.
    bool sb_pressure = sb_->size() + 1 >= sb_->capacity();
    if (sb_pressure)
        drainStoreBuffer(now, ports_used, 1);

    // Load issue walks only the not-yet-issued loads, oldest first.
    // A load whose agen has not issued is skipped with one compare
    // until the agen port clears its mark; every other load is
    // re-evaluated on each walk.
    {
        auto &loads = lsq_.waitingLoads();
        size_t keep = 0;
        const size_t n = loads.size();
        for (size_t i = 0; i < n; ++i) {
            std::uint64_t id = loads[i];
            if (ports_used >= cfg_.mem_ports) {
                need_every_edge = true; // unevaluated loads remain.
                loads[keep++] = id;
                continue;
            }
            LsqEntry &e = lsq_.byId(id);
            if (e.wait_kind == 1 || e.arrived_at > now) {
                // Agen not issued, or not yet arrived: the agen port
                // or the dispatch arrival wakes this domain.
                loads[keep++] = id;
                continue;
            }
            InFlightOp &op = rob_[e.rob_idx];
            if (op.agen_done == kTickMax) {
                e.wait_kind = 1; // cleared by the agen issue itself.
                loads[keep++] = id;
                continue;
            }
            Tick vis = timing_.visibleAt(op.agen_done, DomainId::Integer,
                                         DomainId::LoadStore);
            if (vis > now) {
                min_time = std::min(min_time, vis);
                loads[keep++] = id; // pure time wait.
                continue;
            }
            LoadStart r = tryStartLoad(e, now, ports_used);
            if (r == LoadStart::Issued)
                continue;
            if (r == LoadStart::Blocked) {
                // The blocking store's data capture happens in this
                // domain's own store walk, which that store's agen
                // issue wakes or its agen visibility already bounds.
                ++retry_blocked_;
            } else {
                // The MSHR free time never moves earlier; a same-line
                // store-buffer push (which wakes this domain) is the
                // only event that can issue the load sooner.
                ++retry_mshr_busy_;
                min_time = std::min(min_time, mshr_min_free_);
            }
            loads[keep++] = id;
        }
        loads.resize(keep);
    }

    drainStoreBuffer(now, ports_used, cfg_.mem_ports);

    ls_sum_.must_walk = need_every_edge;
    ls_sum_.min_time = min_time;
    return wakeBound();
}

Tick
LoadStoreUnit::wakeBound() const
{
    Tick w = kTickMax;
    if (!lsq_.empty()) {
        // Sleep on the walk summary; the event wakes (agen issue,
        // dispatch arrival, store-buffer push, epoch bump) arrive
        // through their ports.
        if (ls_sum_.must_walk)
            return 0;
        w = ls_sum_.min_time;
    }
    if (!disp_->empty())
        w = std::min(w, disp_->frontVisibleAt());
    if (!sb_->empty()) {
        w = std::min(w,
                     std::max(sb_->frontVisibleAt(), mshr_min_free_));
    }
    // An undelivered coherence invalidation bounds the sleep: without
    // this term a step between the publication and its delivery would
    // clobber the fabric wake when the scheduler refolds the bound.
    return std::min(w, icp_.nextCoherenceAt(core_index_));
}

} // namespace gals
