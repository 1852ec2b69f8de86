#include "cmp/chip.hh"

#include <algorithm>
#include <array>
#include <string>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "timing/frequency_model.hh"
#include "workload/generator.hh"

namespace gals
{

namespace
{

/** All cores' clocks, flat in global domain index order. */
std::vector<Clock>
buildClocks(const ChipConfig &cfg)
{
    std::vector<Clock> clocks;
    clocks.reserve(static_cast<size_t>(cfg.cores) * kNumDomains);
    const std::array<Clock, 4> four = makeCoreClocks(cfg.machine);
    for (int c = 0; c < cfg.cores; ++c)
        clocks.insert(clocks.end(), four.begin(), four.end());
    return clocks;
}

/** The chip's L2: l2Array() with A = the configured row's
 * associativity, B retained only on phase-adaptive machines. */
SharedL2::Params
sharedL2Params(const ChipConfig &cfg,
               const std::vector<WorkloadParams> &workloads)
{
    const MachineConfig &m = cfg.machine;
    SharedL2::Params p;
    p.size_bytes = l2Array().size_bytes;
    p.ways = l2Array().assoc;
    p.a_ways = dcachePairConfig(m.adaptive.dcache).l2_adapt.assoc;
    p.phase_adaptive = m.phase_adaptive;
    p.row = m.adaptive.dcache;
    p.cores = cfg.cores;
    p.banks = cfg.l2_banks;
    p.bank_mshrs = cfg.l2_bank_mshrs;
    p.bank_occupancy_ps = cfg.l2_bank_occupancy_ps;
    // The coherent shared region spans the largest region any
    // workload of the mix declares (they all address the same window
    // at kSharedBase). No workload sharing anything leaves
    // shared_bytes at 0: coherence fully disabled, as on every
    // pre-existing mix.
    p.shared_base = kSharedBase;
    for (const WorkloadParams &wl : workloads)
        p.shared_bytes = std::max(p.shared_bytes, wl.shared_bytes);
    p.coh_delay_ps = cfg.coh_delay_ps;
    return p;
}

/** Build and wire the cores (one per workload). */
std::vector<std::unique_ptr<Core>>
buildCores(const ChipConfig &cfg,
           const std::vector<WorkloadParams> &workloads,
           WakeFabric &fabric, std::vector<Clock> &clocks,
           InterconnectPort &icp)
{
    GALS_ASSERT(cfg.cores >= 1 && cfg.cores <= kMaxCores,
                "chip core count out of range");
    GALS_ASSERT(!cfg.machine.phase_adaptive || cfg.machine.isMcd(),
                "a phase-adaptive machine needs MCD clocking");
    GALS_ASSERT(workloads.size() == static_cast<size_t>(cfg.cores),
                "chip needs exactly one workload per core");
    std::vector<std::unique_ptr<Core>> cores;
    cores.reserve(static_cast<size_t>(cfg.cores));
    for (int c = 0; c < cfg.cores; ++c) {
        cores.push_back(std::make_unique<Core>(
            cfg.machine, workloads[static_cast<size_t>(c)], fabric,
            clocks.data() + static_cast<size_t>(c) * kNumDomains, c,
            icp));
    }
    return cores;
}

/** Flat domain table, global (core-major) index order. */
std::vector<Domain *>
buildDomainTable(const std::vector<std::unique_ptr<Core>> &cores)
{
    std::vector<Domain *> table;
    table.reserve(cores.size() * kNumDomains);
    for (const auto &core : cores) {
        for (int d = 0; d < kNumDomains; ++d)
            table.push_back(core->domainUnit(d));
    }
    return table;
}

/** Per-domain epoch-port table (each core's port, repeated). */
std::vector<EpochBumpPort *>
buildEpochTable(const std::vector<std::unique_ptr<Core>> &cores)
{
    std::vector<EpochBumpPort *> table;
    table.reserve(cores.size() * kNumDomains);
    for (const auto &core : cores) {
        for (int d = 0; d < kNumDomains; ++d)
            table.push_back(&core->epochPort());
    }
    return table;
}

} // namespace

Chip::Chip(const ChipConfig &config,
           const std::vector<WorkloadParams> &workloads, Kernel kernel)
    : cfg_(config), clocks_(buildClocks(config)),
      fabric_(clocks_.data(), config.cores * kNumDomains),
      l2_(sharedL2Params(config, workloads)),
      icp_(l2_, config.cores),
      cores_(buildCores(cfg_, workloads, fabric_, clocks_, icp_)),
      domain_table_(buildDomainTable(cores_)),
      epoch_table_(buildEpochTable(cores_)),
      scheduler_(domain_table_.data(), clocks_.data(),
                 cfg_.cores * kNumDomains, fabric_,
                 epoch_table_.data()),
      kernel_(kernel)
{
    // Coherence invalidations wake remote cores through the fabric.
    icp_.attachFabric(&fabric_);
}

void
Chip::setInvariantCheckInterval(std::uint32_t every)
{
    for (auto &core : cores_)
        core->setInvariantCheckInterval(every);
}

ChipRunStats
Chip::run()
{
    std::array<CoreProgress, kMaxCores> progress{};
    for (int c = 0; c < cfg_.cores; ++c) {
        progress[static_cast<size_t>(c)] =
            cores_[static_cast<size_t>(c)]->progressStop();
    }

    obs::ensureInitFromEnv();
    const bool traced =
        obs::Tracer::instance().beginRun("chip", cfg_.cores);

    if (kernel_ == Kernel::Reference)
        scheduler_.runReference(progress.data(), cfg_.cores);
    else
        scheduler_.runEvent(progress.data(), cfg_.cores);

    if (traced)
        obs::Tracer::instance().endRun();

    ChipRunStats out;
    out.cores.reserve(cores_.size());
    for (int c = 0; c < cfg_.cores; ++c) {
        RunStats s = cores_[static_cast<size_t>(c)]->collectStats();
        out.total_committed += s.committed;
        out.makespan_ps = std::max(out.makespan_ps, s.time_ps);
        out.cores.push_back(std::move(s));
        out.l2_accesses += l2_.accesses(c);
        out.l2_misses += l2_.misses(c);
    }
    out.bank_conflicts = l2_.bankConflicts();
    out.bank_mshr_waits = l2_.bankMshrWaits();
    out.fill_merges = l2_.fillMerges();
    out.invalidations = l2_.invalidationsSent();
    out.ownership_transfers = l2_.ownershipTransfers();

    // Chip telemetry folds into the metrics registry (the
    // machine-readable mirror of the ChipRunStats telemetry fields;
    // counters accumulate across the process's chip runs). Purely
    // observational — nothing here feeds back into a simulation.
    obs::MetricsRegistry &m = obs::MetricsRegistry::instance();
    m.add("chip.runs", 1);
    m.add("chip.total_committed", out.total_committed);
    m.add("chip.l2.accesses", out.l2_accesses);
    m.add("chip.l2.misses", out.l2_misses);
    m.add("chip.l2.bank_conflicts", out.bank_conflicts);
    m.add("chip.l2.bank_mshr_waits", out.bank_mshr_waits);
    m.add("chip.l2.fill_merges", out.fill_merges);
    m.add("chip.coh.invalidations", out.invalidations);
    m.add("chip.coh.ownership_transfers", out.ownership_transfers);
    // Kernel work, per local domain kind summed over cores.
    const KernelCounters &k = scheduler_.counters();
    for (int d = 0; d < kNumDomains; ++d) {
        const std::string kind = domainTag(static_cast<DomainId>(d));
        m.add("kernel.steps." + kind, k.steps[static_cast<size_t>(d)]);
        m.add("kernel.skipped_edges." + kind,
              k.skipped_edges[static_cast<size_t>(d)]);
    }
    // Load-issue retries and the back end's walk work, summed over
    // cores.
    std::uint64_t mshr_busy = 0;
    std::uint64_t blocked = 0;
    std::uint64_t load_walk = 0;
    std::uint64_t store_walk = 0;
    std::uint64_t cand_walks = 0;
    std::uint64_t src_evals = 0;
    for (const auto &core : cores_) {
        const LoadStoreUnit &lsu = core->lsu();
        mshr_busy += lsu.retriesMshrBusy();
        blocked += lsu.retriesBlocked();
        load_walk += lsu.loadWalkVisits();
        store_walk += lsu.storeWalkVisits();
        for (const IssueCluster *c :
             {&core->intCluster(), &core->fpCluster()}) {
            cand_walks += c->candWalks();
            src_evals += c->srcEvals();
        }
    }
    m.add("lsu.retry.mshr_busy", mshr_busy);
    m.add("lsu.retry.blocked", blocked);
    m.add("lsu.load_walk", load_walk);
    m.add("lsu.store_walk", store_walk);
    m.add("iq.cand_walks", cand_walks);
    m.add("iq.src_evals", src_evals);
    return out;
}

} // namespace gals
