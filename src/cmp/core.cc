#include "cmp/core.hh"

#include "common/logging.hh"

namespace gals
{

std::array<Clock, 4>
makeCoreClocks(const MachineConfig &cfg, int core_index)
{
    auto make = [&](DomainId d) {
        Tick period =
            periodPsFromGHz(cfg.domainFreqGHz(d, cfg.adaptive));
        double jitter = cfg.mode == ClockingMode::MCD
                            ? cfg.jitter_sigma_ps : 0.0;
        // Stagger MCD first edges so domains do not start artificially
        // aligned; synchronous domains share one grid. The jitter
        // stream is keyed by the *global* domain index so every core
        // of a chip draws independently, and core 0's clocks do not
        // depend on the core count.
        int idx = static_cast<int>(d);
        int global = core_index * kNumDomains + idx;
        Tick first = cfg.mode == ClockingMode::MCD
                         ? period + (period * static_cast<Tick>(idx)) / 5
                         : period;
        return Clock(period, first, jitter,
                     cfg.seed + 0x9e37 * static_cast<Tick>(global));
    };
    return {make(DomainId::FrontEnd), make(DomainId::Integer),
            make(DomainId::FloatingPoint), make(DomainId::LoadStore)};
}

Core::Core(const MachineConfig &config, const WorkloadParams &wl,
           WakeFabric &fabric, Clock *clocks, int core_index,
           InterconnectPort &icp)
    : cfg_(config), wl_params_(wl), cur_cfg_(config.adaptive),
      core_index_(core_index),
      timing_(clocks, config.mode == ClockingMode::Synchronous),
      hub_(fabric, core_index * kNumDomains, kNumDomains),
      fe_(cfg_, cur_cfg_, timing_, wl_params_),
      int_cluster_(DomainId::Integer, cfg_, cur_cfg_, timing_,
                   fe_.rob(), fe_.regs()),
      fp_cluster_(DomainId::FloatingPoint, cfg_, cur_cfg_, timing_,
                  fe_.rob(), fe_.regs()),
      lsu_(cfg_, cur_cfg_, timing_, fe_.rob(), icp, core_index),
      ports_(hub_, timing_, cfg_, fe_.regs(), int_cluster_.iq(),
             fp_cluster_.iq(), fe_.rob(), lsu_.lsq()),
      epoch_port_(hub_, timing_),
      reconfig_(cfg_, cur_cfg_, timing_, ports_.reclock),
      domain_table_{&fe_, &int_cluster_, &fp_cluster_, &lsu_}
{
    // Wire the port layer and shared services into the domain units.
    fe_.wire(ports_, int_cluster_, fp_cluster_, lsu_, reconfig_);
    int_cluster_.wire(ports_, reconfig_);
    fp_cluster_.wire(ports_, reconfig_);
    lsu_.wire(ports_, reconfig_);
    reconfig_.attachDomains(domain_table_);
    reconfig_.setTraceBase(core_index_ * kNumDomains);
    for (Domain *d : domain_table_)
        d->attachPending(&reconfig_.pending(d->id()));
    fe_.onMeasureStart([this](Tick now) { base_ = counters(now); });

    if (wl_params_.warmup_instrs == 0)
        fe_.beginMeasurementAtZero();
}

void
Core::setInvariantCheckInterval(std::uint32_t every)
{
    fe_.setInvariantCheck([this]() { validateInvariants(); }, every);
}

RunStats
Core::counters(Tick now) const
{
    RunStats c;
    c.committed = fe_.committed();
    c.time_ps = now;
    c.l1i_accesses = fe_.l1i().totalAccesses();
    c.l1i_misses = fe_.l1i().totalMisses();
    c.l1i_b_hits = fe_.l1i().totalBHits();
    c.l1d_accesses = lsu_.l1d().totalAccesses();
    c.l1d_misses = lsu_.l1d().totalMisses();
    c.l1d_b_hits = lsu_.l1d().totalBHits();
    c.l2_accesses = lsu_.l2TotalAccesses();
    c.l2_misses = lsu_.l2TotalMisses();
    c.l2_b_hits = lsu_.l2TotalBHits();
    c.branches = fe_.predictor().lookups();
    c.mispredicts = fe_.predictor().mispredicts();
    c.flushes = fe_.flushes();
    c.relocks = reconfig_.relocks();
    return c;
}

CoreProgress
Core::progressStop() const
{
    return CoreProgress{&committedRef(), targetInstrs()};
}

RunStats
Core::collectStats() const
{
    // Every std::uint64_t field is a window counter: its growth since
    // the window opened.
    RunStats stats = counters(fe_.lastCommitTime());
    forEachFieldPair(stats, base_, [](const char *, auto &v, const auto &b) {
        if constexpr (std::is_same_v<std::decay_t<decltype(b)>,
                                     std::uint64_t>)
            v -= b;
    });
    stats.benchmark = wl_params_.name;
    stats.config =
        cfg_.mode == ClockingMode::Synchronous
            ? csprintf("sync(%s,D%d,Qi%d,Qf%d)",
                       optICacheConfig(cfg_.sync_icache_opt).name
                           .c_str(),
                       cfg_.adaptive.dcache, cfg_.adaptive.iq_int,
                       cfg_.adaptive.iq_fp)
            : csprintf("%s(%s)",
                       cfg_.phase_adaptive ? "phase" : "mcd",
                       cfg_.adaptive.str().c_str());
    stats.residency = fe_.residency();
    stats.trace = reconfig_.trace();
    return stats;
}

void
Core::validateInvariants() const
{
    const RegisterFiles &regs = fe_.regs();
    const Rob &rob = fe_.rob();
    const Lsq &lsq = lsu_.lsq();

    // Rename state: the map is a subset of the free-list complement.
    GALS_ASSERT(regs.checkConsistent(),
                "rename map / free-list inconsistency");

    // ROB: sequence numbers strictly ascend from head to tail.
    const size_t n = rob.size();
    for (size_t i = 1; i < n; ++i) {
        GALS_ASSERT(rob[rob.indexAt(i - 1)].seq <
                        rob[rob.indexAt(i)].seq,
                    "ROB age order violated at position %llu",
                    static_cast<unsigned long long>(i));
    }

    // Fetch queue: group accounting matches occupancy and capacity.
    GALS_ASSERT(fe_.fetchQueue().checkConsistent(),
                "fetch-group queue accounting inconsistent");

    // LSQ: the store index and waiting-load list address only
    // in-queue entries, in age order, with matching entry kinds.
    const std::uint64_t first = lsq.firstId();
    const std::uint64_t past = first + lsq.size();
    std::uint64_t prev = 0;
    bool have_prev = false;
    lsq.forEachStore([&](const Lsq::StoreRec &rec) {
        GALS_ASSERT(rec.id >= first && rec.id < past,
                    "LSQ store index references a popped entry");
        GALS_ASSERT(!have_prev || rec.id > prev,
                    "LSQ store index out of age order");
        GALS_ASSERT(lsq.byId(rec.id).is_store,
                    "LSQ store index references a load");
        prev = rec.id;
        have_prev = true;
    });
    have_prev = false;
    for (std::uint64_t id : lsq.pendingStores()) {
        GALS_ASSERT(id >= first && id < past,
                    "LSQ pending-store list references a popped "
                    "entry");
        GALS_ASSERT(!have_prev || id > prev,
                    "LSQ pending-store list out of age order");
        const LsqEntry &e = lsq.byId(id);
        GALS_ASSERT(e.is_store && !e.data_ready,
                    "LSQ pending-store list references a non-pending "
                    "entry");
        prev = id;
        have_prev = true;
    }
    have_prev = false;
    prev = 0;
    for (std::uint64_t id : lsq.waitingLoads()) {
        GALS_ASSERT(id >= first && id < past,
                    "LSQ waiting-load list references a popped entry");
        GALS_ASSERT(!have_prev || id > prev,
                    "LSQ waiting-load list out of age order");
        const LsqEntry &e = lsq.byId(id);
        GALS_ASSERT(!e.is_store && !e.issued,
                    "LSQ waiting-load list references a non-waiting "
                    "entry");
        prev = id;
        have_prev = true;
    }

    // Issue queues: every live slot mirrors a ROB op that is actually
    // marked in-queue (the slot-local ready-list state shadows the
    // ROB record; a desync would evaluate stale registers), sits in
    // exactly one wakeup structure, and every chained waiter really
    // waits on a scoreboard-pending register.
    for (const IssueQueue *iq :
         {&int_cluster_.iq(), &fp_cluster_.iq()}) {
        size_t live = 0;
        size_t chained = 0;
        iq->forEachLive([&](std::int32_t, const IqSlot &slot) {
            ++live;
            GALS_ASSERT(slot.rob_idx < rob.capacity(),
                        "issue-queue slot references an invalid ROB "
                        "index");
            const InFlightOp &op = rob[slot.rob_idx];
            GALS_ASSERT(op.in_queue,
                        "issue-queue slot references an op not "
                        "marked in-queue");
            GALS_ASSERT(op.seq == slot.seq,
                        "issue-queue slot age desynced from its ROB "
                        "op");
            bool in_chain = slot.next_wait[0] != kIqNotChained ||
                            slot.next_wait[1] != kIqNotChained;
            if (in_chain)
                ++chained;
            GALS_ASSERT(slot.in_cand || slot.in_timed || in_chain,
                        "issue-queue slot in no wakeup structure");
            GALS_ASSERT(!(slot.in_cand && slot.in_timed),
                        "issue-queue slot in both rings");
        });
        GALS_ASSERT(live == iq->size(),
                    "issue-queue live count out of sync");
        size_t chain_nodes = 0;
        iq->forEachWaiter([&](bool fp, int reg, std::int32_t id,
                              int si) {
            ++chain_nodes;
            const IqSlot &slot = iq->slot(id);
            GALS_ASSERT(slot.live,
                        "issue-queue waiter chain references a freed "
                        "slot");
            PhysRef src = si == 0 ? slot.psrc1 : slot.psrc2;
            GALS_ASSERT(src.fp == fp && src.index == reg,
                        "issue-queue waiter chained on the wrong "
                        "register");
            GALS_ASSERT(
                regs.state(PhysRef{static_cast<std::int16_t>(reg),
                                   fp})
                    .pending,
                "issue-queue waiter on a completed register");
        });
        GALS_ASSERT(chain_nodes >= chained,
                    "issue-queue chain membership undercounted");
    }

    // Dispatch and store-buffer occupancy bounds.
    GALS_ASSERT(ports_.disp_int.size() <= ports_.disp_int.capacity() &&
                    ports_.disp_fp.size() <=
                        ports_.disp_fp.capacity() &&
                    ports_.disp_ls.size() <= ports_.disp_ls.capacity(),
                "dispatch FIFO over capacity");
    GALS_ASSERT(ports_.store_buffer.size() <=
                    ports_.store_buffer.capacity(),
                "store buffer over capacity");
}

} // namespace gals
