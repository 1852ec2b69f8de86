#include "core/reconfig.hh"

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
    if (target == cur)
        return;
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
