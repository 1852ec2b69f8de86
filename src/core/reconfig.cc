#include "core/reconfig.hh"

#include "control/cache_controller.hh"
#include "obs/trace.hh"
#include "timing/frequency_model.hh"

namespace gals
{

ReconfigUnit::ReconfigUnit(const MachineConfig &cfg,
                           AdaptiveConfig &cur, CoreTiming &timing,
                           ReclockPort &reclock, AccountingCache &l1i,
                           AccountingCache &l1d, InterconnectPort &icp,
                           int core_index)
    : cfg_(cfg), cur_cfg_(cur), timing_(timing), reclock_(reclock),
      l1i_(l1i), l1d_(l1d), icp_(icp), core_index_(core_index)
{
    for (int d = 0; d < kNumDomains; ++d) {
        plls_[static_cast<size_t>(d)] =
            Pll(cfg_.pll, cfg_.seed + 31 * static_cast<unsigned>(d));
    }
}

void
ReconfigUnit::cacheInterval(Tick now, std::uint64_t committed)
{
    // I-cache misses are charged the synchronized round trip to the
    // L2 in the load/store domain.
    const DCachePairConfig &dc = dcachePairConfig(cur_cfg_.dcache);
    Tick fe_period = timing_.clock(DomainId::FrontEnd).period();
    Tick ls_period = timing_.clock(DomainId::LoadStore).period();
    Tick i_miss_extra =
        2 * fe_period + static_cast<Tick>(dc.l2_a_lat) * ls_period;
    CacheDecision di = chooseICache(l1i_.interval(), i_miss_extra);
    CacheDecision dd =
        chooseDCachePair(l1d_.interval(), icp_.interval(core_index_),
                         memoryLineFillPs());
    l1i_.resetInterval();
    l1d_.resetInterval();
    icp_.resetInterval(core_index_);

    auto cacheVote = [&](Structure s, const CacheDecision &d,
                         double hysteresis) {
        int cur = cur_cfg_[s];
        vote(s,
             cacheClearlyBetter(d, cur, hysteresis) ? d.best_index
                                                    : cur,
             now, committed);
    };
    cacheVote(Structure::ICache, di, cfg_.icache_hysteresis);
    cacheVote(Structure::DCachePair, dd, cfg_.cache_hysteresis);
}

void
ReconfigUnit::queueSample(const IlpSample &sample, Tick now,
                          std::uint64_t committed)
{
    for (Structure s :
         {Structure::IntIssueQueue, Structure::FpIssueQueue}) {
        QueueDecision d =
            chooseIssueQueue(sample, s == Structure::FpIssueQueue);
        int cur = cur_cfg_[s];
        bool passes =
            d.best_index != cur &&
            d.score[static_cast<size_t>(d.best_index)] >
                d.score[static_cast<size_t>(cur)] *
                    (1.0 + cfg_.queue_hysteresis);
        vote(s, passes ? d.best_index : cur, now, committed);
    }
}

void
ReconfigUnit::vote(Structure s, int proposal, Tick now,
                   std::uint64_t committed)
{
    Damper &dm = dampers_[static_cast<size_t>(s)];
    if (proposal == cur_cfg_[s]) {
        dm = Damper{};
        return;
    }
    if (proposal == dm.target) {
        ++dm.count;
    } else {
        dm.target = proposal;
        dm.count = 1;
    }
    const bool queue = s == Structure::IntIssueQueue ||
                       s == Structure::FpIssueQueue;
    if (dm.count >= (queue ? cfg_.queue_persistence
                           : cfg_.cache_persistence)) {
        dm = Damper{};
        request(s, proposal, now, committed);
    }
}

void
ReconfigUnit::apply(Structure s, int target)
{
    cur_cfg_[s] = target;
    domains_[static_cast<size_t>(domainOf(s))]->resizeStructure(target);
}

void
ReconfigUnit::request(Structure s, int target, Tick now,
                      std::uint64_t committed)
{
    int cur = cur_cfg_[s];
    DomainId d = domainOf(s);
    Pll &pll = plls_[static_cast<size_t>(d)];
    if (pll.busy(now) || pending_[static_cast<size_t>(d)].active)
        return;

    AdaptiveConfig probe = cur_cfg_;
    probe[s] = target;
    double f_new = cfg_.domainFreqGHz(d, probe);
    double f_old = timing_.clock(d).freqGHz();

    Tick lock_done = pll.startRelock(now);
    timing_.clock(d).setPeriod(periodPsFromGHz(f_new), lock_done);
    trace_.record(committed, s, cur, target);
    if (obs::tracing()) {
        // Both land on the front end's track: every decision runs
        // inside the front end's step at `now`, so the track's
        // publication order is the decision order.
        obs::Tracer &tr = obs::Tracer::instance();
        const int gd = core_index_ * kNumDomains +
                       static_cast<int>(DomainId::FrontEnd);
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
        apply(s, target);
        reclock_.applied(d, now);
    } else {
        // Slowing down: upsize only once the slower clock is locked.
        pending_[static_cast<size_t>(d)] =
            PendingApply{true, target, lock_done};
    }
}

void
ReconfigUnit::applyPending(DomainId d, Tick now)
{
    PendingApply &p = pending_[static_cast<size_t>(d)];
    if (p.active && now >= p.apply_at) {
        apply(structureOf(d), p.target);
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
