#include "workloads.hh"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "cmp/chip.hh"
#include "replay.hh"
#include "sim/parallel.hh"
#include "sim/result_store.hh"
#include "sim/simulation.hh"
#include "sim/study.hh"
#include "workload/suite.hh"

namespace perfbench
{

using namespace gals;
namespace fs = std::filesystem;

namespace
{

/** The paper's Figure 6 averages (%): the repository's only reference
 * results, so the only accuracy figure the benchmark gives. */
constexpr double kPaperProgramPct = 17.6;
constexpr double kPaperPhasePct = 20.4;

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
msSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-6;
}

/** Instructions a leaf commits: warmup plus measured window. */
std::uint64_t
leafInstrs(const WorkloadParams &wl)
{
    return wl.warmup_instrs + wl.sim_instrs;
}

/** One observed leaf call. */
struct Leaf
{
    /** Host time of the call, ms (0 where it is not observable). */
    double ms = 0.0;
    std::uint64_t instrs = 0;
    /** FNV-1a of the leaf's value-exact serialized statistics. */
    std::uint64_t digest = 0;
    /** False when the leaf committed less than its window. */
    bool ok = true;
};

/** One pass over a workload's leaf set. */
struct Pass
{
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::vector<Leaf> leaves;
    /** Every RunStats the pass produced (model.* figures). */
    std::vector<RunStats> stats;
    /** Failed workload-level checks beyond the leaves. */
    std::uint64_t failed_checks = 0;

    std::uint64_t
    instrs() const
    {
        std::uint64_t n = 0;
        for (const Leaf &l : leaves)
            n += l.instrs;
        return n;
    }
};

/** Time `body` as the pass's timed section: wall and process CPU. */
template <typename Fn>
void
timePass(Pass &p, Fn body)
{
    const std::int64_t t0 = nowNs();
    const double c0 = cpuSeconds();
    body();
    p.wall_s = static_cast<double>(nowNs() - t0) * 1e-9;
    p.cpu_s = cpuSeconds() - c0;
}

/** The suite with every workload seed remixed (setup.suite_ms). */
std::vector<WorkloadParams>
remixedSuite(std::uint64_t seed, Report &r)
{
    const std::int64_t t0 = nowNs();
    std::vector<WorkloadParams> suite = benchmarkSuite();
    for (WorkloadParams &wl : suite)
        wl.seed = remixSeed(wl.seed, seed);
    r.set("setup.suite_ms", msSince(t0));
    return suite;
}

MachineConfig
remixed(MachineConfig m, std::uint64_t seed)
{
    m.seed = remixSeed(m.seed, seed);
    return m;
}

/** A fresh, empty directory under the output directory. */
fs::path
freshDir(const Options &o, const std::string &tag)
{
    static int counter = 0;
    fs::path dir = fs::path(o.out_dir) /
                   (tag + "-" + std::to_string(::getpid()) + "-" +
                    std::to_string(counter++));
    fs::remove_all(dir);
    return dir;
}

/** Simulated-model figures over every RunStats of a pass. */
void
modelMetrics(const std::vector<RunStats> &stats, Report &r)
{
    double committed = 0, time_ns = 0, l1i_a = 0, l1i_m = 0, l1d_a = 0,
           l1d_m = 0, l2_a = 0, l2_m = 0, br = 0, mis = 0, relocks = 0,
           reconfigs = 0;
    for (const RunStats &s : stats) {
        committed += static_cast<double>(s.committed);
        time_ns += static_cast<double>(s.time_ps) / 1000.0;
        l1i_a += static_cast<double>(s.l1i_accesses);
        l1i_m += static_cast<double>(s.l1i_misses);
        l1d_a += static_cast<double>(s.l1d_accesses);
        l1d_m += static_cast<double>(s.l1d_misses);
        l2_a += static_cast<double>(s.l2_accesses);
        l2_m += static_cast<double>(s.l2_misses);
        br += static_cast<double>(s.branches);
        mis += static_cast<double>(s.mispredicts);
        relocks += static_cast<double>(s.relocks);
        reconfigs += static_cast<double>(s.trace.events().size());
    }
    r.set("model.ipns", ratio(committed, time_ns));
    r.set("model.l1i_miss_ratio", ratio(l1i_m, l1i_a));
    r.set("model.l1d_miss_ratio", ratio(l1d_m, l1d_a));
    r.set("model.l2_miss_ratio", ratio(l2_m, l2_a));
    r.set("model.mispredict_ratio", ratio(mis, br));
    r.set("model.relocks_per_minstr", ratio(relocks * 1e6, committed));
    r.set("model.reconfigs_per_minstr", ratio(reconfigs * 1e6, committed));
}

/**
 * Per-layer replay figures. `leaf_ns` and `instrs` are the host time
 * and instructions of the leaves whose streams were replayed; the
 * core's self time is that host time minus the replayed child costs,
 * an estimate until the program records its own spans.
 */
void
replayMetrics(const LayerReplay &rep, double leaf_ns, double instrs,
              Report &r)
{
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    r.set("workload.gen_ns_per_op", ratio(rep.gen_ns, d(rep.gen_ops)));
    r.set("workload.ops", d(rep.gen_ops));
    r.set("predictor.ns_per_branch", ratio(rep.pred_ns, d(rep.branches)));
    r.set("predictor.mispredict_ratio",
          ratio(d(rep.mispredicts), d(rep.branches)));
    r.set("cache.l1i_ns_per_access",
          ratio(rep.l1i_ns, d(rep.l1i_accesses)));
    r.set("cache.l1d_ns_per_access",
          ratio(rep.l1d_ns, d(rep.l1d_accesses)));
    const double acc = d(rep.l1i_accesses + rep.l1d_accesses);
    r.set("cache.a_hit_ratio", ratio(d(rep.a_hits), acc));
    r.set("cache.b_hit_ratio", ratio(d(rep.b_hits), acc));
    r.set("cache.miss_ratio", ratio(d(rep.misses), acc));
    r.set("cache.l2_ns_per_access", ratio(rep.l2_ns, d(rep.l2_accesses)));
    r.set("core.self_ns_per_instr",
          ratio(leaf_ns - rep.childNs(), instrs));
}

/** A workload: its inputs, one pass over its leaves, its layers. */
class Workload
{
  public:
    explicit Workload(const Options &o) : opts_(o) {}
    virtual ~Workload() = default;

    /** Build inputs, spin up what the passes use, warm one leaf. */
    virtual void setup(Report &r) = 0;
    /** One pass over the leaf set; `log` is null when untraced. */
    virtual Pass pass(SpanLog *log, int parent) = 0;
    /** Traced-run figures from the untraced `base` pass, the traced
     * pass and its spans (replays add their own spans). */
    virtual void layers(const Pass &base, const Pass &traced,
                        SpanLog &log, Report &r) = 0;

  protected:
    const Options &opts_;
};

/**
 * All 40 suite entries on the three paper machines, one simulate()
 * at a time on one thread. Bypasses the sweep pool, the result store
 * and the chip.
 */
class SuiteSerial : public Workload
{
  public:
    using Workload::Workload;

    void
    setup(Report &r) override
    {
        suite_ = remixedSuite(opts_.seed, r);
        const std::int64_t t0 = nowNs();
        machines_ = {
            remixed(MachineConfig::bestSynchronous(), opts_.seed),
            remixed(MachineConfig::mcdProgram({}), opts_.seed),
            remixed(MachineConfig::mcdPhaseAdaptive(), opts_.seed)};
        r.set("setup.config_us", msSince(t0) * 1e3);
        simulate(machines_[0], suite_[0]); // warm leaf.
    }

    Pass
    pass(SpanLog *log, int parent) override
    {
        Pass p;
        timePass(p, [&] {
            long id = 0;
            for (const MachineConfig &m : machines_) {
                for (const WorkloadParams &wl : suite_) {
                    const std::int64_t t0 = nowNs();
                    RunStats s;
                    {
                        ScopedSpan span(log, "core.simulate", parent, id++);
                        s = simulate(m, wl);
                    }
                    const double ms = msSince(t0);
                    p.leaves.push_back(
                        Leaf{ms, leafInstrs(wl),
                             fnv1a(serializeRunStats(s)),
                             s.committed >= wl.sim_instrs});
                    p.stats.push_back(std::move(s));
                }
            }
        });
        return p;
    }

    void
    layers(const Pass &base, const Pass &, SpanLog &log,
           Report &r) override
    {
        std::vector<double> ms;
        double ns[3] = {}, instrs[3] = {};
        for (std::size_t k = 0; k < base.leaves.size(); ++k) {
            const Leaf &l = base.leaves[k];
            const std::size_t m = k / suite_.size();
            ms.push_back(l.ms);
            ns[m] += l.ms * 1e6;
            instrs[m] += static_cast<double>(l.instrs);
        }
        setLeafTimes(ms, r);
        r.set("core.host_ns_per_instr.sync", ratio(ns[0], instrs[0]));
        r.set("core.host_ns_per_instr.program", ratio(ns[1], instrs[1]));
        r.set("core.host_ns_per_instr.phase", ratio(ns[2], instrs[2]));
        modelMetrics(base.stats, r);

        LayerReplay rep;
        ScopedSpan root(&log, "bench.replay");
        long id = 0;
        for (const MachineConfig &m : machines_) {
            for (const WorkloadParams &wl : suite_) {
                ChipConfig one;
                one.machine = m;
                replayLeaf(one, {wl}, log, root.id(), id++, rep);
            }
        }
        replayMetrics(rep, ns[0] + ns[1] + ns[2],
                      instrs[0] + instrs[1] + instrs[2], r);
    }

  private:
    std::vector<WorkloadParams> suite_;
    std::vector<MachineConfig> machines_;
};

/** Digest of one study row: every simulated value it carries. */
std::uint64_t
rowDigest(const BenchmarkResult &b)
{
    std::uint64_t h = fnv1a(b.suite, fnv1a(b.name));
    for (double v : {b.sync_ns, b.program_ns, b.phase_ns})
        h = fnvFold(h, std::bit_cast<std::uint64_t>(v));
    for (int v : {b.program_cfg.icache, b.program_cfg.dcache,
                  b.program_cfg.iq_int, b.program_cfg.iq_fp})
        h = fnvFold(h, static_cast<std::uint64_t>(v));
    h = fnvFold(h, b.runs);
    return fnv1a(serializeRunStats(b.phase_stats), h);
}

/**
 * The paper's Figure 6 + Table 9 study, runStudy(suite, Staged), on
 * the sweep pool: a cold pass against a fresh result store, so every
 * leaf simulates and writes a record, then a warm replay served from
 * it. The traced pass replays runStudy's row loop through the same
 * public calls (cachedSimulate, findBestAdaptive) so each row and
 * leaf is observable; its digest must equal runStudy's.
 */
class Fig6Study : public Workload
{
  public:
    using Workload::Workload;

    void
    setup(Report &r) override
    {
        suite_ = remixedSuite(opts_.seed, r);
        // runStudy builds these machines itself; their seeds are the
        // factories' own, so only workload seeds are remixed here.
        const std::int64_t t0 = nowNs();
        sync_ = MachineConfig::bestSynchronous();
        phase_ = MachineConfig::mcdPhaseAdaptive();
        r.set("setup.config_us", msSince(t0) * 1e3);
        const std::int64_t t1 = nowNs();
        parallelFor(sweepThreads(), [](std::size_t) {});
        r.set("setup.pool_ms", msSince(t1));
        simulate(sync_, suite_[0]); // warm leaf.
    }

    Pass
    pass(SpanLog *log, int parent) override
    {
        Pass p;
        const fs::path dir = freshDir(opts_, "store");
        configureResultStore(dir.string());
        StudyResult cold;
        timePass(p, [&] {
            cold = log ? tracedStudy(*log, parent, p)
                       : runStudy(suite_, SweepMode::Staged, false);
        });
        const std::int64_t t0 = nowNs();
        StudyResult warm = runStudy(suite_, SweepMode::Staged, false);
        warm_s_.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        counters_.push_back(resultStore().counters());
        if (log)
            storeReplays(*log, parent, cold, p);
        configureResultStore("");
        fs::remove_all(dir);

        const std::size_t n = suite_.size();
        for (std::size_t i = 0; i < n; ++i) {
            const BenchmarkResult &b = cold.benchmarks[i];
            const WorkloadParams &wl = suite_[i];
            p.leaves.push_back(
                Leaf{0.0, b.runs * leafInstrs(wl), rowDigest(b),
                     b.phase_stats.committed >= wl.sim_instrs &&
                         b.sync_ns > 0.0 && b.program_ns > 0.0});
        }
        // A warm row must be byte-identical to its cold row.
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t d = rowDigest(warm.benchmarks[i]);
            p.leaves.push_back(Leaf{0.0, 0, d, d == p.leaves[i].digest});
        }
        study_ = std::move(cold);
        return p;
    }

    void
    layers(const Pass &base, const Pass &traced, SpanLog &log,
           Report &r) override
    {
        const std::vector<Span> spans = log.spans();
        std::vector<double> leaf_ms = durationsMs(spans, "sim.leaf.sync");
        for (double v : durationsMs(spans, "sim.leaf.phase"))
            leaf_ms.push_back(v);
        setLeafTimes(leaf_ms, r);
        r.set("warm_s", warm_s_.front());
        r.set("fig6_err_pts",
              std::abs(100.0 * study_.avgProgramImprovement() -
                       kPaperProgramPct) +
                  std::abs(100.0 * study_.avgPhaseImprovement() -
                           kPaperPhasePct));

        // Host cost per instruction of each study leg.
        double ns[3] = {}, instrs[3] = {};
        const char *legs[3] = {"sim.leaf.sync", "sweep.findBestAdaptive",
                               "sim.leaf.phase"};
        for (const Span &s : spans) {
            for (int k = 0; k < 3; ++k) {
                if (std::string(legs[k]) != s.name)
                    continue;
                const std::size_t i = static_cast<std::size_t>(s.leaf);
                const double runs =
                    k == 1 ? static_cast<double>(
                                 study_.benchmarks[i].runs - 2)
                           : 1.0;
                ns[k] += static_cast<double>(s.durationNs());
                instrs[k] +=
                    runs * static_cast<double>(leafInstrs(suite_[i]));
            }
        }
        r.set("core.host_ns_per_instr.sync", ratio(ns[0], instrs[0]));
        r.set("core.host_ns_per_instr.program", ratio(ns[1], instrs[1]));
        r.set("core.host_ns_per_instr.phase", ratio(ns[2], instrs[2]));

        r.set("sweep.leaf_runs", static_cast<double>(study_.total_runs));
        r.set("sweep.parallel_eff",
              ratio(base.cpu_s, base.wall_s * sweepThreads()));
        const std::vector<double> rows = durationsMs(spans, "sweep.row");
        r.set("sweep.row_ms_p50", median(rows));
        r.set("sweep.row_ms_max", *std::max_element(rows.begin(), rows.end()));

        r.set("store.key_us", key_us_);
        r.set("store.lookup_us_p50", median(lookup_us_));
        r.set("store.write_us_p50", median(write_us_));
        r.set("store.record_bytes", record_bytes_);
        const ResultStore::Counters &c = counters_.front();
        r.set("store.hits", static_cast<double>(c.hits));
        r.set("store.misses", static_cast<double>(c.misses));
        r.set("store.rejects", static_cast<double>(c.rejects));

        modelMetrics(traced.stats, r);

        LayerReplay rep;
        ScopedSpan root(&log, "bench.replay");
        for (std::size_t i = 0; i < suite_.size(); ++i) {
            for (const MachineConfig &m : {sync_, phase_}) {
                ChipConfig one;
                one.machine = m;
                replayLeaf(one, {suite_[i]}, log, root.id(),
                           static_cast<long>(i), rep);
            }
        }
        replayMetrics(rep, ns[0] + ns[2], instrs[0] + instrs[2], r);
    }

  private:
    /** runStudy's row loop from its public calls, one span each. */
    StudyResult
    tracedStudy(SpanLog &log, int parent, Pass &p)
    {
        StudyResult out;
        out.mode = SweepMode::Staged;
        out.benchmarks.resize(suite_.size());
        std::vector<RunStats> stats(3 * suite_.size());
        parallelFor(suite_.size(), [&](std::size_t i) {
            const WorkloadParams &wl = suite_[i];
            const long id = static_cast<long>(i);
            ScopedSpan row(&log, "sweep.row", parent, id);
            BenchmarkResult b;
            b.name = wl.name;
            b.suite = wl.suite;
            {
                ScopedSpan s(&log, "sim.leaf.sync", row.id(), id);
                stats[3 * i] = cachedSimulate(sync_, wl);
            }
            b.sync_ns = runtimeNs(stats[3 * i]);
            ProgramAdaptiveResult pa;
            {
                ScopedSpan s(&log, "sweep.findBestAdaptive", row.id(), id);
                pa = findBestAdaptive(wl, SweepMode::Staged);
            }
            b.program_ns = runtimeNs(pa.best_stats);
            b.program_cfg = pa.best;
            b.runs = pa.runs_performed + 2;
            stats[3 * i + 1] = pa.best_stats;
            {
                ScopedSpan s(&log, "sim.leaf.phase", row.id(), id);
                b.phase_stats = cachedSimulate(phase_, wl);
            }
            b.phase_ns = runtimeNs(b.phase_stats);
            stats[3 * i + 2] = b.phase_stats;
            out.benchmarks[i] = std::move(b);
        });
        for (const BenchmarkResult &b : out.benchmarks)
            out.total_runs += b.runs;
        p.stats = std::move(stats);
        return out;
    }

    /**
     * Key, lookup and write costs of the store, over the three final
     * leaves of every row (sync, best program, phase) as the cold pass
     * recorded them in the still-open global store's directory.
     */
    void
    storeReplays(SpanLog &log, int parent, const StudyResult &cold,
                 Pass &p)
    {
        std::vector<std::string> keys;
        {
            const std::int64_t t0 = nowNs();
            ScopedSpan s(&log, "store.resultKey", parent);
            for (std::size_t i = 0; i < suite_.size(); ++i) {
                const WorkloadParams &wl = suite_[i];
                keys.push_back(resultKey(sync_, wl));
                keys.push_back(resultKey(
                    MachineConfig::mcdProgram(cold.benchmarks[i].program_cfg),
                    wl));
                keys.push_back(resultKey(phase_, wl));
            }
            key_us_ = static_cast<double>(nowNs() - t0) * 1e-3 /
                      static_cast<double>(keys.size());
        }

        ResultStore reader;
        reader.open(resultStore().dir());
        std::vector<std::string> payloads;
        double bytes = 0.0;
        lookup_us_.clear();
        for (const std::string &key : keys) {
            std::string payload;
            RunStats s;
            const std::int64_t t0 = nowNs();
            bool hit;
            {
                ScopedSpan span(&log, "store.lookup", parent);
                hit = reader.lookup(key, payload) &&
                      deserializeRunStats(payload, s);
            }
            lookup_us_.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
            if (!hit) {
                ++p.failed_checks; // the cold pass recorded every key.
                continue;
            }
            bytes += static_cast<double>(
                fs::file_size(reader.recordPath(key)));
            payloads.push_back(std::move(payload));
        }
        record_bytes_ = ratio(bytes, static_cast<double>(payloads.size()));

        const fs::path wdir = freshDir(opts_, "write");
        ResultStore writer;
        writer.open(wdir.string());
        write_us_.clear();
        for (std::size_t k = 0; k < payloads.size(); ++k) {
            const std::int64_t t0 = nowNs();
            {
                ScopedSpan span(&log, "store.write", parent);
                writer.store(keys[k], payloads[k]);
            }
            write_us_.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
        }
        writer.close();
        fs::remove_all(wdir);
    }

    std::vector<WorkloadParams> suite_;
    MachineConfig sync_;
    MachineConfig phase_;
    StudyResult study_;
    std::vector<double> warm_s_;
    std::vector<ResultStore::Counters> counters_;
    double key_us_ = 0.0;
    std::vector<double> lookup_us_;
    std::vector<double> write_us_;
    double record_bytes_ = 0.0;
};

/**
 * Multi-core chips on the mcdProgram machine and the sequential
 * kernel: 16- and 8-core multiprogrammed mixes (rotation 0) and two
 * 4-core sharing mixes (producer-consumer, migratory).
 */
class CmpChips : public Workload
{
  public:
    using Workload::Workload;

    void
    setup(Report &r) override
    {
        const std::vector<WorkloadParams> suite =
            remixedSuite(opts_.seed, r);
        const std::int64_t t0 = nowNs();
        ChipConfig base;
        base.machine = remixed(MachineConfig::mcdProgram({}), opts_.seed);
        auto add = [&](int cores, std::vector<WorkloadParams> mix) {
            ChipConfig cc = base;
            cc.cores = cores;
            chips_.push_back(ChipLeaf{cc, std::move(mix)});
        };
        add(16, multiprogrammedMix(suite, 16, 0));
        add(8, multiprogrammedMix(suite, 8, 0));
        auto gzip = std::find_if(suite.begin(), suite.end(),
                                 [](const WorkloadParams &wl) {
                                     return wl.name == "gzip";
                                 });
        if (gzip == suite.end())
            throw std::runtime_error("suite has no gzip entry");
        add(4, sharingMix(*gzip, 4, "producer-consumer"));
        add(4, sharingMix(*gzip, 4, "migratory"));
        r.set("setup.config_us", msSince(t0) * 1e3);
        // Warm leaf: the last chip on short windows.
        std::vector<WorkloadParams> warm = chips_.back().mix;
        for (WorkloadParams &wl : warm) {
            wl.sim_instrs = 5'000;
            wl.warmup_instrs = 500;
        }
        Chip(chips_.back().config, warm).run();
    }

    Pass
    pass(SpanLog *log, int parent) override
    {
        Pass p;
        chip_stats_.clear();
        timePass(p, [&] {
            for (std::size_t k = 0; k < chips_.size(); ++k) {
                const ChipLeaf &c = chips_[k];
                const long id = static_cast<long>(k);
                const std::int64_t t0 = nowNs();
                ChipRunStats s;
                double ms;
                {
                    ScopedSpan leaf(log, "cmp.leaf", parent, id);
                    std::optional<Chip> chip;
                    {
                        ScopedSpan span(log, "cmp.construct", leaf.id(), id);
                        chip.emplace(c.config, c.mix);
                    }
                    {
                        ScopedSpan span(log, "cmp.run", leaf.id(), id);
                        s = chip->run();
                    }
                    ms = msSince(t0);
                }
                bool ok = s.cores.size() == c.mix.size();
                std::uint64_t instrs = 0;
                for (std::size_t i = 0; ok && i < c.mix.size(); ++i) {
                    ok = s.cores[i].committed >= c.mix[i].sim_instrs;
                    instrs += leafInstrs(c.mix[i]);
                }
                p.leaves.push_back(
                    Leaf{ms, instrs, fnv1a(serializeChipRunStats(s)), ok});
                for (const RunStats &cs : s.cores)
                    p.stats.push_back(cs);
                chip_stats_.push_back(std::move(s));
            }
        });
        return p;
    }

    void
    layers(const Pass &base, const Pass &, SpanLog &log,
           Report &r) override
    {
        std::vector<double> ms;
        double leaf_ns = 0.0, instrs = 0.0;
        double ns_by[3] = {}, instrs_by[3] = {}; // c4, c8, c16.
        for (std::size_t k = 0; k < base.leaves.size(); ++k) {
            const Leaf &l = base.leaves[k];
            const int cores = chips_[k].config.cores;
            const int b = cores == 4 ? 0 : cores == 8 ? 1 : 2;
            ms.push_back(l.ms);
            ns_by[b] += l.ms * 1e6;
            instrs_by[b] += static_cast<double>(l.instrs);
            leaf_ns += l.ms * 1e6;
            instrs += static_cast<double>(l.instrs);
        }
        setLeafTimes(ms, r);
        r.set("cmp.host_ns_per_instr.c4", ratio(ns_by[0], instrs_by[0]));
        r.set("cmp.host_ns_per_instr.c8", ratio(ns_by[1], instrs_by[1]));
        r.set("cmp.host_ns_per_instr.c16", ratio(ns_by[2], instrs_by[2]));
        const std::vector<double> construct =
            durationsMs(log.spans(), "cmp.construct");
        r.set("cmp.construct_ms", median(construct));

        double committed = 0, conflicts = 0, mshr = 0, merges = 0,
               invals = 0, transfers = 0, l2_a = 0, l2_m = 0;
        for (const ChipRunStats &s : chip_stats_) {
            committed += static_cast<double>(s.total_committed);
            conflicts += static_cast<double>(s.bank_conflicts);
            mshr += static_cast<double>(s.bank_mshr_waits);
            merges += static_cast<double>(s.fill_merges);
            invals += static_cast<double>(s.invalidations);
            transfers += static_cast<double>(s.ownership_transfers);
            l2_a += static_cast<double>(s.l2_accesses);
            l2_m += static_cast<double>(s.l2_misses);
        }
        r.set("cmp.bank_conflicts_per_kinstr", ratio(conflicts * 1e3, committed));
        r.set("cmp.bank_mshr_waits_per_kinstr", ratio(mshr * 1e3, committed));
        r.set("cmp.fill_merges_per_kinstr", ratio(merges * 1e3, committed));
        r.set("cmp.invalidations_per_kinstr", ratio(invals * 1e3, committed));
        r.set("cmp.ownership_transfers_per_kinstr",
              ratio(transfers * 1e3, committed));
        r.set("cmp.l2_miss_ratio", ratio(l2_m, l2_a));
        modelMetrics(base.stats, r);

        LayerReplay rep;
        ScopedSpan root(&log, "bench.replay");
        for (std::size_t k = 0; k < chips_.size(); ++k) {
            replayLeaf(chips_[k].config, chips_[k].mix, log, root.id(),
                       static_cast<long>(k), rep);
        }
        replayMetrics(rep, leaf_ns, instrs, r);
    }

  private:
    struct ChipLeaf
    {
        ChipConfig config;
        std::vector<WorkloadParams> mix;
    };

    std::vector<ChipLeaf> chips_;
    std::vector<ChipRunStats> chip_stats_;
};

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "suite_serial")
        return std::make_unique<SuiteSerial>(o);
    if (o.workload == "fig6_study")
        return std::make_unique<Fig6Study>(o);
    return std::make_unique<CmpChips>(o);
}

/**
 * Count leaves and failures over the passes of one run set, and set
 * the workload digest from the first pass. Every pass repeats the
 * first pass's leaves, so a leaf whose digest differs from its first
 * run failed.
 */
void
account(const std::vector<const Pass *> &passes, Report &r)
{
    const Pass &first = *passes.front();
    r.digest = 0xcbf29ce484222325ULL;
    for (const Leaf &l : first.leaves)
        r.digest = fnvFold(r.digest, l.digest);
    for (const Pass *p : passes) {
        r.failed += p->failed_checks;
        r.attempted += std::max(p->leaves.size(), first.leaves.size());
        for (std::size_t i = 0; i < first.leaves.size(); ++i) {
            if (i >= p->leaves.size() || !p->leaves[i].ok ||
                p->leaves[i].digest != first.leaves[i].digest)
                ++r.failed;
        }
    }
}

} // namespace

Report
runWorkload(const Options &o, std::int64_t start_ns)
{
    std::unique_ptr<Workload> w = makeWorkload(o);
    Report r;
    w->setup(r);
    r.setup_s = static_cast<double>(nowNs() - start_ns) * 1e-9;
    if (o.setup_only)
        return r;
    fs::create_directories(o.out_dir);

    if (!o.trace) {
        // Passes until the budget is spent, stopping before a pass
        // that would overrun it; always at least one.
        std::vector<Pass> passes;
        const std::int64_t t0 = nowNs();
        const double budget_ns = o.seconds * 1e9;
        for (std::int64_t last = t0;;) {
            passes.push_back(w->pass(nullptr, -1));
            const std::int64_t t = nowNs();
            if (static_cast<double>((t - t0) + (t - last)) > budget_ns)
                break;
            last = t;
        }
        std::vector<double> walls, ips;
        std::vector<const Pass *> all;
        for (const Pass &p : passes) {
            walls.push_back(p.wall_s);
            ips.push_back(ratio(static_cast<double>(p.instrs()), p.cpu_s));
            all.push_back(&p);
        }
        account(all, r);
        r.set("wall_s", median(walls));
        r.set("sim_ips", median(ips));
        r.set("peak_rss_mb", peakRssMiB());
        return r;
    }

    Pass base = w->pass(nullptr, -1);
    SpanLog log;
    Pass traced;
    {
        ScopedSpan root(&log, "bench.traced_pass");
        traced = w->pass(&log, root.id());
    }
    account({&base, &traced}, r);
    r.set("bench.trace_overhead", ratio(traced.wall_s, base.wall_s));
    w->layers(base, traced, log, r);
    const fs::path spans =
        fs::path(o.out_dir) / ("spans-" + o.workload + ".json");
    if (!writeSpans(log.spans(), spans.string()))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     spans.c_str());
    return r;
}

} // namespace perfbench
