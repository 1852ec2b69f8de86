#include "sim/sweep.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "cmp/chip.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "sim/parallel.hh"
#include "sim/result_store.hh"
#include "sim/simulation.hh"
#include "workload/suite.hh"

namespace gals
{

SweepMode
sweepModeFromEnv()
{
    const char *env = std::getenv("GALS_SWEEP");
    if (env == nullptr || *env == '\0' || std::strcmp(env, "staged") == 0)
        return SweepMode::Staged;
    if (std::strcmp(env, "exhaustive") == 0)
        return SweepMode::Exhaustive;
    warn("GALS_SWEEP=\"%s\" is not staged|exhaustive; using staged", env);
    return SweepMode::Staged;
}

std::vector<AdaptiveConfig>
allAdaptiveConfigs()
{
    std::vector<AdaptiveConfig> out;
    out.reserve(256);
    for (int i = 0; i < 4; ++i)
        for (int d = 0; d < 4; ++d)
            for (int qi = 0; qi < 4; ++qi)
                for (int qf = 0; qf < 4; ++qf)
                    out.push_back(AdaptiveConfig{i, d, qi, qf});
    return out;
}

namespace
{

/**
 * Run every whole-program adaptive config in `configs` for `wl`, in
 * parallel; returns their window stats in `configs` order. Each run
 * goes through the result store (sim/result_store.hh): with caching
 * disabled — the default — it is exactly simulate().
 */
std::vector<RunStats>
runAdaptiveBatch(const WorkloadParams &wl,
                 const std::vector<AdaptiveConfig> &configs)
{
    std::vector<RunStats> stats(configs.size());
    parallelFor(configs.size(), [&](size_t i) {
        stats[i] = cachedSimulate(MachineConfig::mcdProgram(configs[i]),
                                  wl);
    });
    return stats;
}

ProgramAdaptiveResult
exhaustiveSearch(const WorkloadParams &wl)
{
    std::vector<AdaptiveConfig> configs = allAdaptiveConfigs();
    std::vector<RunStats> stats = runAdaptiveBatch(wl, configs);

    size_t best = 0;
    for (size_t i = 1; i < configs.size(); ++i) {
        if (runtimeNs(stats[i]) < runtimeNs(stats[best]))
            best = i;
    }
    return ProgramAdaptiveResult{configs[best], stats[best],
                                 configs.size()};
}

ProgramAdaptiveResult
stagedSearch(const WorkloadParams &wl)
{
    // Greedy per-structure optimization. Order matters: the cache
    // pair and I-cache dominate the frequency/miss tradeoffs, so they
    // are settled before the issue queues.
    AdaptiveConfig cur{};
    RunStats best_stats = runAdaptiveBatch(wl, {cur}).front();
    double best_time = runtimeNs(best_stats);
    std::uint64_t runs = 1;

    auto optimize = [&](auto set_field) {
        // Evaluate the three non-current candidates in parallel.
        std::vector<AdaptiveConfig> cands;
        for (int idx = 0; idx < 4; ++idx) {
            AdaptiveConfig c = cur;
            set_field(c, idx);
            if (!(c == cur))
                cands.push_back(c);
        }
        std::vector<RunStats> stats = runAdaptiveBatch(wl, cands);
        runs += cands.size();
        for (size_t i = 0; i < cands.size(); ++i) {
            double t = runtimeNs(stats[i]);
            if (t < best_time) {
                best_time = t;
                best_stats = stats[i];
                cur = cands[i];
            }
        }
    };

    optimize([](AdaptiveConfig &c, int v) { c.dcache = v; });
    optimize([](AdaptiveConfig &c, int v) { c.icache = v; });
    optimize([](AdaptiveConfig &c, int v) { c.iq_int = v; });
    optimize([](AdaptiveConfig &c, int v) { c.iq_fp = v; });

    return ProgramAdaptiveResult{cur, best_stats, runs};
}

} // namespace

std::vector<AdaptivePointRuntime>
sweepAdaptiveRaw(const WorkloadParams &wl)
{
    std::vector<AdaptiveConfig> configs = allAdaptiveConfigs();
    std::vector<RunStats> stats = runAdaptiveBatch(wl, configs);
    std::vector<AdaptivePointRuntime> out;
    out.reserve(configs.size());
    for (size_t i = 0; i < configs.size(); ++i)
        out.push_back(AdaptivePointRuntime{configs[i],
                                           runtimeNs(stats[i])});
    obs::MetricsRegistry::instance().add("sweep.adaptive_points",
                                         out.size());
    return out;
}

ProgramAdaptiveResult
findBestAdaptive(const WorkloadParams &wl, SweepMode mode)
{
    return mode == SweepMode::Exhaustive ? exhaustiveSearch(wl)
                                         : stagedSearch(wl);
}

std::vector<SyncPointRuntimes>
sweepSynchronousRaw(const std::vector<WorkloadParams> &suite,
                    bool full)
{
    GALS_ASSERT(!suite.empty(), "empty suite for synchronous sweep");

    struct Point
    {
        int ic, dc, qi, qf;
    };
    std::vector<Point> points;
    if (full) {
        for (int ic = 0; ic < kNumOptICacheConfigs; ++ic)
            for (int dc = 0; dc < 4; ++dc)
                for (int qi = 0; qi < 4; ++qi)
                    for (int qf = 0; qf < 4; ++qf)
                        points.push_back(Point{ic, dc, qi, qf});
    } else {
        for (int ic = 0; ic < kNumOptICacheConfigs; ++ic)
            for (int dc = 0; dc < 4; ++dc)
                points.push_back(Point{ic, dc, 0, 0});
    }

    std::vector<SyncPointRuntimes> out;
    for (const Point &p : points) {
        out.push_back(SyncPointRuntimes{
            p.ic, p.dc, p.qi, p.qf,
            std::vector<double>(suite.size(), 0.0)});
    }

    // Every (point, bench) run is deterministic and independent, so
    // the thread count never changes any value.
    parallelFor(out.size() * suite.size(), [&](size_t k) {
        size_t r = k / suite.size();
        size_t b = k % suite.size();
        SyncPointRuntimes &row = out[r];
        MachineConfig mc = MachineConfig::synchronous(
            row.icache_opt, row.dcache, row.iq_int, row.iq_fp);
        row.runtime_ns[b] = runtimeNs(cachedSimulate(mc, suite[b]));
    });
    return out;
}

std::vector<CmpPointResult>
sweepCmpRaw(const std::vector<WorkloadParams> &suite,
            const std::vector<int> &core_counts)
{
    GALS_ASSERT(!suite.empty(), "empty suite for CMP sweep");
    GALS_ASSERT(!core_counts.empty(), "CMP sweep needs core counts");
    for (int c : core_counts) {
        GALS_ASSERT(c >= 1 && c <= kMaxCores,
                    "CMP sweep core count %d out of range 1..%d", c,
                    kMaxCores);
    }

    std::vector<CmpPointResult> out;
    for (int cores : core_counts) {
        for (size_t rot = 0; rot < suite.size(); ++rot) {
            CmpPointResult row;
            row.cores = cores;
            row.rotation = static_cast<int>(rot);
            out.push_back(std::move(row));
        }
    }

    // Every chip run is deterministic and independent of the thread
    // count (same contract as the other raw sweeps).
    parallelFor(out.size(), [&](size_t k) {
        CmpPointResult &row = out[k];
        ChipConfig cc;
        cc.machine = MachineConfig::mcdProgram({});
        cc.cores = row.cores;
        ChipRunStats s = cachedChipRun(
            cc, multiprogrammedMix(suite, row.cores, row.rotation));
        row.chip_ns =
            static_cast<double>(s.makespan_ps) / 1000.0;
        row.core_ns.reserve(s.cores.size());
        for (const RunStats &cs : s.cores) {
            row.core_ns.push_back(
                static_cast<double>(cs.time_ps) / 1000.0);
        }
        row.l2_misses = s.l2_misses;
        row.bank_conflicts = s.bank_conflicts;
    });
    return out;
}

std::vector<SyncDesignPoint>
sweepSynchronous(const std::vector<WorkloadParams> &suite, bool full)
{
    std::vector<SyncPointRuntimes> raw =
        sweepSynchronousRaw(suite, full);

    // Per-benchmark best for normalization.
    std::vector<double> best_per_bench(suite.size(), 0.0);
    for (size_t b = 0; b < suite.size(); ++b) {
        double best = raw[0].runtime_ns[b];
        for (size_t p = 1; p < raw.size(); ++p)
            best = std::min(best, raw[p].runtime_ns[b]);
        best_per_bench[b] = best;
    }

    std::vector<SyncDesignPoint> out;
    out.reserve(raw.size());
    for (const SyncPointRuntimes &row : raw) {
        double log_sum = 0.0;
        for (size_t b = 0; b < suite.size(); ++b)
            log_sum += std::log(row.runtime_ns[b] /
                                best_per_bench[b]);
        out.push_back(SyncDesignPoint{
            row.icache_opt, row.dcache, row.iq_int, row.iq_fp,
            std::exp(log_sum / static_cast<double>(suite.size()))});
    }
    std::sort(out.begin(), out.end(),
              [](const SyncDesignPoint &a, const SyncDesignPoint &b) {
                  return a.norm_runtime < b.norm_runtime;
              });
    // Re-normalize so the best point reads exactly 1.0.
    double best = out.front().norm_runtime;
    for (SyncDesignPoint &p : out)
        p.norm_runtime /= best;
    return out;
}

} // namespace gals
