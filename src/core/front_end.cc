#include "core/front_end.hh"

#include <algorithm>

#include "common/logging.hh"
#include "control/cache_controller.hh"
#include "core/issue_cluster.hh"
#include "core/lsu.hh"
#include "core/ports.hh"
#include "core/reconfig.hh"

namespace gals
{

namespace
{

constexpr std::uint64_t KB = 1024;

} // namespace

FrontEnd::FrontEnd(const MachineConfig &cfg,
                   const AdaptiveConfig &cur_cfg, CoreTiming &timing,
                   const WorkloadParams &wl)
    : Domain(DomainId::FrontEnd, timing), cfg_(cfg),
      cur_cfg_(cur_cfg), wl_params_(wl), workload_(wl),
      regs_(cfg.phys_int_regs, cfg.phys_fp_regs),
      rob_(cfg.rob_entries),
      fetch_queue_(static_cast<size_t>(
          cfg.fetch_queue_entries +
          cfg.decode_width * cfg.feDepth()))
{
    if (cfg_.mode == ClockingMode::MCD) {
        const ICacheConfig &ic = icacheConfig(cur_cfg_.icache);
        l1i_ = std::make_unique<AccountingCache>("l1i", 64 * KB, 4);
        l1i_->setPartition(ic.org.assoc, cfg_.phase_adaptive);
        predictor_ = std::make_unique<HybridPredictor>(ic.predictor);
        fetch_a_lat_ = ic.a_lat;
        fetch_b_lat_ = ic.b_lat;
    } else {
        const OptICacheConfig &ic =
            optICacheConfig(cfg_.sync_icache_opt);
        l1i_ = std::make_unique<AccountingCache>(
            "l1i", ic.org.size_bytes, ic.org.assoc);
        l1i_->setPartition(ic.org.assoc, false);
        predictor_ = std::make_unique<HybridPredictor>(ic.predictor);
    }
}

void
FrontEnd::wire(CorePorts &ports, IssueCluster &int_cluster,
               IssueCluster &fp_cluster, LoadStoreUnit &lsu,
               ReconfigUnit &reconfig)
{
    ports_ = &ports;
    int_cluster_ = &int_cluster;
    fp_cluster_ = &fp_cluster;
    lsu_ = &lsu;
    reconfig_ = &reconfig;
    lsq_ = &lsu.lsq();
}

void
FrontEnd::resizeStructure(int index)
{
    const ICacheConfig &ic = icacheConfig(index);
    l1i_->setPartition(ic.org.assoc, cfg_.phase_adaptive);
    predictor_->reconfigure(ic.predictor);
    fetch_a_lat_ = ic.a_lat;
    fetch_b_lat_ = ic.b_lat;
}

void
FrontEnd::beginMeasurementAtZero()
{
    measuring_ = true;
    if (on_measure_start_)
        on_measure_start_(0);
}

// ---------------------------------------------------------------------
// Fetch.
// ---------------------------------------------------------------------

Tick
FrontEnd::icacheMissTime(Tick now)
{
    // The unified L2 lives in the load/store domain: request and
    // response each cross a synchronizer.
    Tick t_req = timing_.crossingAt(now, DomainId::FrontEnd,
                                    DomainId::LoadStore);
    Tick served = lsu_->serveIcacheFill(staged_op_->pc, t_req, now);
    // The ready time below extrapolates the front-end grid from this
    // serve time; keep the serve time so a PLL re-lock landing while
    // the fill is in flight can recompute the extrapolation.
    fetch_line_fill_done_ = served;
    return timing_.crossingAt(served, DomainId::LoadStore,
                              DomainId::FrontEnd);
}

void
FrontEnd::doFetch(Tick now)
{
    if (fetch_halted_) {
        // The redirect port owns the resume memo (and its epoch
        // guard); kTickMax while unresolved — the resolve hook wakes
        // us.
        Tick resume = ports_->redirect.resumeAt(now);
        if (now < resume) {
            feNote(resume);
            return;
        }
        fetch_halted_ = false;
    }

    Tick fe_period = timing_.clock(DomainId::FrontEnd).period();
    int a_lat = fetch_a_lat_;
    int b_lat = fetch_b_lat_;

    int line_shift = l1i_->lineShift();
    Tick fe_ready =
        now + static_cast<Tick>(cfg_.feDepth()) * fe_period;
    // Whole-group bound, hoisted once: the queue only drains through
    // rename, which ran earlier this step.
    int space = static_cast<int>(
        std::min(static_cast<size_t>(cfg_.fetch_width),
                 fetch_queue_.freeOps()));
    int fetched = 0;
    while (fetched < space) {
        if (!staged_op_) {
            if (op_batch_head_ == op_batch_count_) {
                workload_.nextBatch(op_batch_.data(), kOpBatch);
                op_batch_head_ = 0;
                op_batch_count_ = kOpBatch;
            }
            staged_op_ =
                op_batch_[static_cast<size_t>(op_batch_head_++)];
        }
        Addr line = staged_op_->pc >> line_shift;

        if (line == cur_fetch_line_) {
            if (fetch_line_ready_ > now && fetch_line_is_fill_ &&
                fetch_line_epoch_ != timing_.epoch()) {
                // Mid-fill re-lock: the ready time extrapolated a
                // grid that has since moved; recompute it from the
                // stored serve time.
                fetch_line_ready_ = timing_.crossingAt(
                    fetch_line_fill_done_, DomainId::LoadStore,
                    DomainId::FrontEnd);
                fetch_line_epoch_ = timing_.epoch();
            }
            if (fetch_line_ready_ > now) {
                feNote(fetch_line_ready_); // I-cache line fill gate.
                break;
            }
        } else {
            bool sequential = line == cur_fetch_line_ + 1;
            AccessOutcome out = l1i_->access(staged_op_->pc);
            Tick ready;
            bool is_fill = false;
            switch (out.where) {
              case HitWhere::APartition:
                ready = sequential
                            ? now
                            : now + static_cast<Tick>(a_lat - 1) *
                                        fe_period;
                break;
              case HitWhere::BPartition:
                ready = now + static_cast<Tick>(a_lat + b_lat) *
                                  fe_period;
                break;
              default:
                ready = icacheMissTime(now);
                is_fill = true;
                break;
            }
            cur_fetch_line_ = line;
            fetch_line_ready_ = ready;
            fetch_line_is_fill_ = is_fill;
            fetch_line_epoch_ = timing_.epoch();
            if (ready > now) {
                feNote(ready); // line fill / slow-hit gate.
                break;
            }
        }

        FetchedOp f;
        f.uop = *staged_op_;
        staged_op_.reset();
        OpClass cls = f.uop.cls;
        f.dom = execDomain(cls);
        f.is_mem = isMemOp(cls);
        f.needs_dst = f.uop.dst >= 0;
        f.dst_fp = f.needs_dst && f.uop.dst >= kFirstFpReg;
        bool is_branch = cls == OpClass::Branch;
        if (is_branch) {
            BranchPrediction pred = predictor_->predict(f.uop.pc);
            predictor_->update(f.uop.pc, pred, f.uop.taken);
            f.mispredict = pred.taken != f.uop.taken;
        }
        fetch_queue_.push(f, fe_ready);
        ++fetched;

        if (is_branch) {
            if (f.mispredict) {
                // Halt fetch until the branch resolves in its
                // execution domain; resume time arrives through the
                // redirect port at issue.
                fetch_halted_ = true;
                ports_->redirect.arm();
                ++flushes_;
                return; // the resolve hook wakes the front end.
            }
            if (f.uop.taken) {
                // Taken-branch redirect ends the fetch group; the
                // next group starts at the next edge.
                feNote(0);
                return;
            }
        }
    }
    if (fetched == space && fetch_queue_.canPush()) {
        // Width-limited with queue space left: fetch continues at the
        // very next edge. (A full queue instead drains via rename,
        // whose own gates are already recorded.)
        feNote(0);
    }
}

// ---------------------------------------------------------------------
// Rename.
// ---------------------------------------------------------------------

void
FrontEnd::doRename(Tick now)
{
    // Whole-group sizing: one walk over the (few) queued groups gives
    // the consumable prefix, so the loop below runs without per-op
    // visibility checks. One op beyond the decode width is enough to
    // distinguish "width-limited" from "drained everything visible".
    size_t avail = fetch_queue_.visibleOps(
        now, static_cast<size_t>(cfg_.decode_width) + 1);
    if (avail == 0)
        return;

    // The synchronizer crossing time from the front end is the same
    // for every op renamed at this edge; compute it once per target
    // domain (indices 0..2 = Integer, FloatingPoint, LoadStore).
    Tick cross[3];
    bool cross_valid[3] = {false, false, false};
    auto crossingTo = [&](DomainId dd, Tick now_) -> Tick {
        size_t k = static_cast<size_t>(dd) - 1;
        if (!cross_valid[k]) {
            cross[k] = timing_.crossingAt(now_, DomainId::FrontEnd,
                                          dd);
            cross_valid[k] = true;
        }
        return cross[k];
    };

    auto srcRef = [&](std::int8_t logical) -> PhysRef {
        if (logical < 0)
            return PhysRef{-1, false};
        if (logical == kZeroReg)
            return PhysRef{-1, false};
        if (logical == kFirstFpReg)
            return PhysRef{-1, true};
        return regs_.lookup(logical);
    };

    // Flattened resource bounds, hoisted once per group: nothing
    // outside this loop consumes ROB/LSQ/register/FIFO space during
    // the call, so local countdowns replace the per-op structure
    // queries.
    int rob_free = static_cast<int>(rob_.freeSlots());
    int lsq_free = static_cast<int>(lsq_->freeSlots());
    int free_int = regs_.freeIntRegs();
    int free_fp = regs_.freeFpRegs();
    DispatchPort *disp[3] = {&ports_->disp_int, &ports_->disp_fp,
                             &ports_->disp_ls};
    int fifo_free[3] = {
        static_cast<int>(disp[0]->freeSlots()),
        static_cast<int>(disp[1]->freeSlots()),
        static_cast<int>(disp[2]->freeSlots())};
    const int d_shift = lsu_->dcacheLineShift();

    const int budget = static_cast<int>(
        std::min(static_cast<size_t>(cfg_.decode_width), avail));
    int renamed = 0;
    while (renamed < budget) {
        FetchedOp &f = fetch_queue_.front();
        const DomainId dom = f.dom;
        const bool is_mem = f.is_mem;

        if (rob_free == 0)
            break;
        if (f.needs_dst && (f.dst_fp ? free_fp : free_int) == 0)
            break;
        if (is_mem && lsq_free == 0)
            break;
        // Memory ops dispatch twice: an address-generation uop into
        // the integer queue (which therefore gates memory
        // parallelism, as in the 21264) and the access itself into
        // the LSQ.
        const size_t qi =
            dom == DomainId::Integer || is_mem
                ? 0u
                : dom == DomainId::FloatingPoint ? 1u : 2u;
        if (fifo_free[qi] == 0)
            break;
        if (is_mem && fifo_free[2] == 0)
            break;

        size_t idx = rob_.alloc();
        --rob_free;
        InFlightOp &op = rob_[idx];
        op = InFlightOp{};
        op.uop = f.uop;
        op.seq = next_seq_++;
        op.domain = dom;
        op.is_mem = is_mem;
        op.mispredict = f.mispredict;
        op.psrc1 = srcRef(f.uop.src1);
        op.psrc2 = srcRef(f.uop.src2);
        if (f.needs_dst) {
            auto [fresh, old] = regs_.renameDest(f.uop.dst);
            op.pdst = fresh;
            op.old_pdst = old;
            regs_.markPending(fresh);
            --(f.dst_fp ? free_fp : free_int);
        }
        if (is_mem) {
            op.lsq_id =
                lsq_->allocate(idx, f.uop.cls == OpClass::Store,
                               f.uop.mem_addr >> d_shift);
            --lsq_free;
        }

        if (cfg_.phase_adaptive) {
            ilp_tracker_.onRename(f.uop);
            if (ilp_tracker_.sampleReady())
                controlQueues(now);
        }

        // The op becomes issue-eligible after the synchronizer plus
        // the dispatch pipe of the target domain (7/9 integer cycles;
        // this is the "+integer" half of the mispredict penalty).
        DomainId q_dom = is_mem ? DomainId::Integer : dom;
        Tick visible =
            crossingTo(q_dom, now) +
            static_cast<Tick>(cfg_.dispatchDepth()) *
                timing_.clock(q_dom).period();
        disp[qi]->push(idx, visible, now);
        --fifo_free[qi];
        if (is_mem) {
            Tick ls_visible =
                crossingTo(DomainId::LoadStore, now) +
                static_cast<Tick>(cfg_.lsDispatchDepth()) *
                    timing_.clock(DomainId::LoadStore).period();
            disp[2]->push(idx, ls_visible, now);
            --fifo_free[2];
        }
        fetch_queue_.pop();
        ++renamed;
    }
    if (renamed == budget && avail > static_cast<size_t>(budget)) {
        // Width-limited with more visible ops queued: rename
        // continues at the very next edge. (Structural breaks are
        // covered by the retire and consumer-pop hooks; an invisible
        // head group is covered by the group-boundary gate in
        // step().)
        feNote(0);
    }
}

// ---------------------------------------------------------------------
// Retire.
// ---------------------------------------------------------------------

void
FrontEnd::doRetire(Tick now)
{
    const std::uint64_t stop_at =
        wl_params_.warmup_instrs + wl_params_.sim_instrs;
    // Nothing to retire and no accounting to update: keep the
    // no-progress front-end edge (the common case) cheap.
    if (rob_.empty() || committed_ >= stop_at)
        return;
    std::uint64_t budget =
        static_cast<std::uint64_t>(cfg_.retire_width);
    std::uint64_t retired_total = 0;

    // Residency statistics are batched per run of retirements under
    // one live configuration: one set of increments per group instead
    // of four counter updates per op. The batch flushes before any
    // control decision that can change the configuration.
    std::uint32_t run = 0;
    auto flushResidency = [&]() {
        if (run == 0)
            return;
        for (const AdaptiveStructure &a : kAdaptiveStructures) {
            residency_[static_cast<size_t>(a.structure)]
                      [static_cast<size_t>(cur_cfg_.*a.index)] += run;
        }
        run = 0;
    };

    // Group-granular retire: bounds that are constant across a run of
    // retirements — width budget, window end, the measurement-start
    // boundary and the control-interval boundary — are hoisted into
    // one chunk size, so the per-op loop checks only the real
    // head gates (completion, visibility, store-buffer space).
    const int d_shift = lsu_->dcacheLineShift();
    StoreBufferPort &sb = ports_->store_buffer;
    int sb_free = static_cast<int>(sb.freeSlots());

    while (committed_ < stop_at && budget != 0) {
        std::uint64_t chunk =
            std::min(budget, stop_at - committed_);
        if (!measuring_) {
            chunk = std::min(
                chunk, wl_params_.warmup_instrs - committed_);
        }
        if (cfg_.phase_adaptive) {
            chunk = std::min(chunk, cfg_.cache_interval_instrs -
                                        interval_commits_);
        }

        std::uint64_t done = 0;
        while (done < chunk) {
            if (rob_.empty())
                break;
            InFlightOp &op = rob_[rob_.headIndex()];

            if (op.uop.cls == OpClass::Store) {
                if (!op.store_ready)
                    break; // store-ready port wakes the front end.
                if (sb_free == 0)
                    break; // the store-buffer pop port wakes us.
                sb.push(op.uop.mem_addr >> d_shift, now);
                --sb_free;
                lsq_->popFront();
            } else {
                if (!op.completed())
                    break; // completion port wakes the front end.
                Tick vis = timing_.visibleAt(
                    op.complete_at, op.domain, DomainId::FrontEnd);
                if (vis > now) {
                    feNote(vis); // exact visibility gate.
                    break;
                }
                if (op.is_mem)
                    lsq_->popFront();
            }

            regs_.release(op.old_pdst);
            rob_.retireHead();
            ++done;
        }

        committed_ += done;
        budget -= done;
        retired_total += done;
        if (measuring_)
            run += static_cast<std::uint32_t>(done);
        if (cfg_.phase_adaptive)
            interval_commits_ += done;

        if (!measuring_ &&
            committed_ >= wl_params_.warmup_instrs) {
            measuring_ = true;
            if (on_measure_start_)
                on_measure_start_(now);
            // The boundary op retires into the measured residency
            // accounting (its commit count does not, matching the
            // reference accounting order).
            run += 1;
        }
        if (cfg_.phase_adaptive &&
            interval_commits_ >= cfg_.cache_interval_instrs) {
            interval_commits_ = 0;
            flushResidency(); // controlCaches may change the config.
            controlCaches(now);
        }

        if (done < chunk)
            break; // a head gate ended the run.
    }
    if (budget == 0 && committed_ < stop_at && !rob_.empty()) {
        // Width-limited: the head run continues at the very next
        // edge.
        feNote(0);
    }
    flushResidency();
    if (retired_total != 0)
        last_commit_time_ = now;
}

// ---------------------------------------------------------------------
// Phase-adaptive control orchestration. The cache-interval boundary
// is observed at retire (this domain), but each structure's
// controller state lives with its owning domain unit: the I-cache
// damper here, the D-cache pair's in the load/store unit, the issue
// queues' in their clusters.
// ---------------------------------------------------------------------

void
FrontEnd::controlCaches(Tick now)
{
    const DCachePairConfig &dc = dcachePairConfig(cur_cfg_.dcache);
    Tick fe_period = timing_.clock(DomainId::FrontEnd).period();
    Tick ls_period = timing_.clock(DomainId::LoadStore).period();

    Tick i_miss_extra =
        2 * fe_period + static_cast<Tick>(dc.l2_a_lat) * ls_period;
    CacheDecision di = chooseICache(l1i_->interval(), i_miss_extra);
    CacheDecision dd = lsu_->decideDCache();
    l1i_->resetInterval();
    lsu_->resetDCacheIntervals();

    int prop_i =
        cacheClearlyBetter(di, cur_cfg_.icache,
                           cfg_.icache_hysteresis)
            ? di.best_index
            : cur_cfg_.icache;
    if (damp_icache_.vote(prop_i, cur_cfg_.icache,
                          cfg_.cache_persistence)) {
        reconfig_->request(Structure::ICache, prop_i, now,
                           committed_);
    }
    lsu_->voteDCache(dd, now, committed_);
}

void
FrontEnd::controlQueues(Tick now)
{
    IlpSample sample = ilp_tracker_.takeSample();
    int_cluster_->control(sample, now, committed_);
    fp_cluster_->control(sample, now, committed_);
}

// ---------------------------------------------------------------------
// Step and sleep.
// ---------------------------------------------------------------------

Tick
FrontEnd::step(Tick now)
{
    if (pending_->active)
        reconfig_->applyPending(id_, now);
    fe_next_ = kTickMax;
    doRetire(now);
    doRename(now);
    doFetch(now);
    // Group-boundary gate: queued ops (including ones fetch pushed
    // this very edge, which rename ran too early to see) whose group
    // becomes visible later wake rename exactly at that boundary. A
    // visible-but-unconsumed head means rename was structurally
    // blocked, which retire progress or consumer-pop ports unblock —
    // no timed wake.
    if (!fetch_queue_.empty()) {
        Tick v = fetch_queue_.frontVisibleAt();
        if (v > now)
            feNote(v);
    }
    if (inv_interval_ != 0 && --inv_countdown_ == 0) {
        inv_countdown_ = inv_interval_;
        if (validate_)
            validate_();
    }
    // The stages recorded the exact next-progress tick while they ran
    // (fe_next_): retire-visibility times, fetch-group visibility
    // boundaries, I-cache line fills and redirect resumes. Everything
    // else is blocked on a cross-domain event, all of which arrive
    // through port wakes.
    return fe_next_;
}

} // namespace gals
