#include "control/cache_controller.hh"

#include "cache/cache_cost.hh"
#include "common/types.hh"
#include "timing/frequency_model.hh"

namespace gals
{

CacheDecision
chooseDCachePair(const IntervalCounts &l1, const IntervalCounts &l2,
                 Tick mem_fill_ps)
{
    CacheDecision d{};
    d.best_index = 0;
    Tick best = kTickMax;
    for (int c = 0; c < kNumAdaptiveConfigs; ++c) {
        const DCachePairConfig &cfg = dcachePairConfig(c);
        Tick period = periodPsFromGHz(loadStoreFreqAdaptive(c));

        CacheCostParams l1p{};
        l1p.a_ways = cfg.l1_adapt.assoc;
        l1p.a_lat_cycles = cfg.l1_a_lat;
        l1p.b_lat_cycles = cfg.l1_b_lat;
        l1p.period_ps = period;
        l1p.miss_extra_ps = 0; // L2 time accounted below.

        CacheCostParams l2p{};
        l2p.a_ways = cfg.l2_adapt.assoc;
        l2p.a_lat_cycles = cfg.l2_a_lat;
        l2p.b_lat_cycles = cfg.l2_b_lat;
        l2p.period_ps = period;
        l2p.miss_extra_ps = mem_fill_ps;

        Tick cost = accountingCost(l1, l1p) + accountingCost(l2, l2p);
        d.cost_ps[static_cast<size_t>(c)] = cost;
        if (cost < best) {
            best = cost;
            d.best_index = c;
        }
    }
    return d;
}

CacheDecision
chooseICache(const IntervalCounts &l1i, Tick miss_extra_ps)
{
    CacheDecision d{};
    d.best_index = 0;
    Tick best = kTickMax;
    for (int c = 0; c < kNumAdaptiveConfigs; ++c) {
        const ICacheConfig &cfg = icacheConfig(c);
        Tick period = periodPsFromGHz(frontEndFreqAdaptive(c));

        CacheCostParams p{};
        p.a_ways = cfg.org.assoc;
        p.a_lat_cycles = cfg.a_lat;
        p.b_lat_cycles = cfg.b_lat;
        p.period_ps = period;
        p.miss_extra_ps = miss_extra_ps;

        Tick cost = accountingCost(l1i, p);
        d.cost_ps[static_cast<size_t>(c)] = cost;
        if (cost < best) {
            best = cost;
            d.best_index = c;
        }
    }
    return d;
}

QueueDecision
chooseIssueQueue(const IlpSample &sample, bool fp)
{
    QueueDecision d{};
    d.best_index = 0;
    double best = -1.0;
    for (int k = 0; k < 4; ++k) {
        auto m = fp ? sample.m_fp[static_cast<size_t>(k)]
                    : sample.m_int[static_cast<size_t>(k)];
        auto n = fp ? sample.n_fp[static_cast<size_t>(k)]
                    : sample.n_int[static_cast<size_t>(k)];
        double score = 0.0;
        if (m > 0 && n > 0) {
            double ilp = static_cast<double>(n) / m;
            score = ilp * issueQueueFreqGHz(k);
        }
        d.score[static_cast<size_t>(k)] = score;
        // Strict improvement required: ties go to the smaller, faster
        // queue.
        if (score > best + 1e-12) {
            best = score;
            d.best_index = k;
        }
    }
    return d;
}

} // namespace gals
