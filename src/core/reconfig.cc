#include "core/reconfig.hh"

#include "common/logging.hh"
#include "core/front_end.hh"
#include "core/issue_cluster.hh"
#include "core/lsu.hh"
#include "obs/trace.hh"

namespace gals
{

ReconfigUnit::ReconfigUnit(const MachineConfig &cfg,
                           AdaptiveConfig &cur, CoreTiming &timing,
                           ReclockPort &reclock)
    : cfg_(cfg), cur_cfg_(cur), timing_(timing), reclock_(reclock)
{
    for (int d = 0; d < kNumDomains; ++d) {
        plls_[static_cast<size_t>(d)] =
            Pll(cfg_.pll, cfg_.seed + 31 * static_cast<unsigned>(d));
    }
}

void
ReconfigUnit::attachDomains(FrontEnd &fe, IssueCluster &int_cluster,
                            IssueCluster &fp_cluster,
                            LoadStoreUnit &lsu)
{
    fe_ = &fe;
    int_cluster_ = &int_cluster;
    fp_cluster_ = &fp_cluster;
    lsu_ = &lsu;
}

DomainId
ReconfigUnit::domainOf(Structure s)
{
    switch (s) {
      case Structure::ICache:        return DomainId::FrontEnd;
      case Structure::DCachePair:    return DomainId::LoadStore;
      case Structure::IntIssueQueue: return DomainId::Integer;
      case Structure::FpIssueQueue:  return DomainId::FloatingPoint;
    }
    panic("bad structure");
}

int
ReconfigUnit::currentIndexOf(Structure s) const
{
    switch (s) {
      case Structure::ICache:        return cur_cfg_.icache;
      case Structure::DCachePair:    return cur_cfg_.dcache;
      case Structure::IntIssueQueue: return cur_cfg_.iq_int;
      case Structure::FpIssueQueue:  return cur_cfg_.iq_fp;
    }
    panic("bad structure");
}

void
ReconfigUnit::applyStructure(Structure s, int target)
{
    switch (s) {
      case Structure::ICache:
        cur_cfg_.icache = target;
        fe_->applyICache(target);
        break;
      case Structure::DCachePair:
        cur_cfg_.dcache = target;
        lsu_->applyDCache(target);
        break;
      case Structure::IntIssueQueue:
        cur_cfg_.iq_int = target;
        int_cluster_->setIqCapacity(kIssueQueueSizes[target]);
        break;
      case Structure::FpIssueQueue:
        cur_cfg_.iq_fp = target;
        fp_cluster_->setIqCapacity(kIssueQueueSizes[target]);
        break;
    }
}

void
ReconfigUnit::request(Structure s, int target, Tick now,
                      std::uint64_t committed)
{
    int cur = currentIndexOf(s);
    if (target == cur)
        return;
    DomainId d = domainOf(s);
    Pll &pll = plls_[static_cast<size_t>(d)];
    if (pll.busy(now) || pending_[static_cast<size_t>(d)].active)
        return;

    AdaptiveConfig probe = cur_cfg_;
    switch (s) {
      case Structure::ICache:        probe.icache = target; break;
      case Structure::DCachePair:    probe.dcache = target; break;
      case Structure::IntIssueQueue: probe.iq_int = target; break;
      case Structure::FpIssueQueue:  probe.iq_fp = target; break;
    }
    double f_new = cfg_.domainFreqGHz(d, probe);
    double f_old = timing_.clock(d).freqGHz();

    Tick lock_done = pll.startRelock(now);
    timing_.clock(d).setPeriod(periodPsFromGHz(f_new), lock_done);
    trace_.record(committed, s, cur, target);
    if (obs::tracing()) {
        // Both land on the front end's track: every controller is
        // sampled inside the front end's step at `now`, so the
        // track's publication order is the decision order.
        obs::Tracer &tr = obs::Tracer::instance();
        const int gd =
            trace_base_ + static_cast<int>(DomainId::FrontEnd);
        tr.sim(gd, obs::Ev::Reconfig, now,
               static_cast<std::uint64_t>(s),
               (static_cast<std::uint64_t>(cur) << 8) |
                   static_cast<std::uint64_t>(target));
        tr.sim(gd, obs::Ev::PllRelock, now, lock_done - now,
               static_cast<std::uint64_t>(d));
    }
    // The re-clocked domain must consume the edge where the period
    // change lands even if it is otherwise idle: other domains read
    // its grid (nextEdgeAfter/period) for synchronizer timing, so a
    // parked clock must not lag across the change.
    reclock_.schedule(d, lock_done, now);

    if (f_new >= f_old) {
        // Speeding up: run the simpler configuration through the
        // lock window (downsize at the start of the change). With a
        // forced frequency every change lands here, growth included.
        applyStructure(s, target);
        reclock_.applied(d, now);
    } else {
        // Slowing down: upsize only once the slower clock is locked.
        pending_[static_cast<size_t>(d)] =
            PendingApply{true, s, target, lock_done};
    }
}

void
ReconfigUnit::applyPending(DomainId d, Tick now)
{
    PendingApply &p = pending_[static_cast<size_t>(d)];
    if (p.active && now >= p.apply_at) {
        applyStructure(p.structure, p.target);
        p.active = false;
    }
}

std::uint64_t
ReconfigUnit::relocks() const
{
    std::uint64_t total = 0;
    for (const Pll &p : plls_)
        total += p.relocks();
    return total;
}

} // namespace gals
