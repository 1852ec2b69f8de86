#include "replay.hh"

#include <algorithm>
#include <memory>

#include "cache/accounting_cache.hh"
#include "cache/shared_l2.hh"
#include "core/ports.hh"
#include "predictor/hybrid_predictor.hh"
#include "timing/frequency_model.hh"
#include "workload/generator.hh"

namespace perfbench
{

using namespace gals;

namespace
{

constexpr std::uint64_t KB = 1024;
/** Ops per nextBatch call: the front end's own refill size. */
constexpr int kOpBatch = 32;
/** Minimum spacing of replayed L2 requests in simulated time. */
constexpr Tick kL2RequestSpacingPs = 1'000;

/** The per-core structures a machine builds (mirrors the FrontEnd
 * and LoadStoreUnit constructors for the initial configuration). */
struct CoreStructures
{
    std::unique_ptr<AccountingCache> l1i;
    std::unique_ptr<AccountingCache> l1d;
    std::unique_ptr<HybridPredictor> predictor;
};

CoreStructures
buildCore(const MachineConfig &m)
{
    CoreStructures c;
    const DCachePairConfig &dc = dcachePairConfig(m.adaptive.dcache);
    if (m.mode == ClockingMode::MCD) {
        const ICacheConfig &ic = icacheConfig(m.adaptive.icache);
        c.l1i = std::make_unique<AccountingCache>("l1i", 64 * KB, 4);
        c.l1i->setPartition(ic.org.assoc, m.phase_adaptive);
        c.predictor = std::make_unique<HybridPredictor>(ic.predictor);
        c.l1d = std::make_unique<AccountingCache>("l1d", 256 * KB, 8);
        c.l1d->setPartition(dc.l1_adapt.assoc, m.phase_adaptive);
    } else {
        const OptICacheConfig &ic = optICacheConfig(m.sync_icache_opt);
        c.l1i = std::make_unique<AccountingCache>(
            "l1i", ic.org.size_bytes, ic.org.assoc);
        c.l1i->setPartition(ic.org.assoc, false);
        c.predictor = std::make_unique<HybridPredictor>(ic.predictor);
        c.l1d = std::make_unique<AccountingCache>(
            "l1d", dc.l1_opt.size_bytes, dc.l1_opt.assoc);
        c.l1d->setPartition(dc.l1_opt.assoc, false);
    }
    return c;
}

/** Shared-L2 geometry of `chip` (mirrors the Chip's own). */
SharedL2::Params
sharedL2Params(const ChipConfig &chip,
               const std::vector<WorkloadParams> &workloads)
{
    const MachineConfig &m = chip.machine;
    const DCachePairConfig &dc = dcachePairConfig(m.adaptive.dcache);
    SharedL2::Params p;
    if (m.mode == ClockingMode::MCD) {
        p.size_bytes = 2048 * KB;
        p.ways = 8;
        p.a_ways = dc.l2_adapt.assoc;
        p.phase_adaptive = m.phase_adaptive;
    } else {
        p.size_bytes = dc.l2_opt.size_bytes;
        p.ways = dc.l2_opt.assoc;
        p.a_ways = dc.l2_opt.assoc;
    }
    p.row = m.adaptive.dcache;
    p.cores = chip.cores;
    p.banks = chip.l2_banks;
    p.bank_mshrs = chip.l2_bank_mshrs;
    p.bank_occupancy_ps = chip.l2_bank_occupancy_ps;
    p.shared_base = kSharedBase;
    for (const WorkloadParams &wl : workloads)
        p.shared_bytes = std::max(p.shared_bytes, wl.shared_bytes);
    p.coh_delay_ps = chip.coh_delay_ps;
    return p;
}

void
countOutcome(HitWhere w, LayerReplay &out)
{
    if (w == HitWhere::APartition)
        ++out.a_hits;
    else if (w == HitWhere::BPartition)
        ++out.b_hits;
    else
        ++out.misses;
}

/** Run `body` inside a span of `log`; returns its duration in ns. */
template <typename Fn>
double
timedSpan(SpanLog &log, const char *name, int parent, long leaf, Fn body)
{
    Span s{name, nowNs(), 0, parent, leaf};
    body();
    s.end_ns = nowNs();
    log.add(s);
    return static_cast<double>(s.durationNs());
}

/** Replay one core; appends its L1D miss addresses to `misses`. */
void
replayCore(const MachineConfig &m, const WorkloadParams &wl,
           SpanLog &log, int parent, long leaf, LayerReplay &out,
           std::vector<Addr> &misses)
{
    const std::uint64_t n = wl.warmup_instrs + wl.sim_instrs;
    std::vector<MicroOp> ops(
        (n + kOpBatch - 1) / kOpBatch * kOpBatch);
    SyntheticWorkload gen(wl);
    out.gen_ns += timedSpan(log, "workload.nextBatch", parent, leaf, [&] {
        for (std::size_t i = 0; i < ops.size(); i += kOpBatch)
            gen.nextBatch(ops.data() + i, kOpBatch);
    });
    out.gen_ops += ops.size();
    ops.resize(n);

    // Per-layer input streams, extracted outside the timed loops.
    CoreStructures core = buildCore(m);
    std::vector<std::pair<Addr, bool>> branches;
    std::vector<Addr> fetch_lines;
    std::vector<Addr> data;
    Addr last_line = ~Addr{0};
    for (const MicroOp &op : ops) {
        Addr line = op.pc >> core.l1i->lineShift();
        if (line != last_line) {
            fetch_lines.push_back(op.pc);
            last_line = line;
        }
        if (op.cls == OpClass::Branch)
            branches.emplace_back(op.pc, op.taken);
        else if (isMemOp(op.cls))
            data.push_back(op.mem_addr);
    }

    std::uint64_t wrong = 0;
    out.pred_ns += timedSpan(log, "predictor.predict_update", parent,
                             leaf, [&] {
        for (const auto &[pc, taken] : branches) {
            BranchPrediction p = core.predictor->predict(pc);
            wrong += core.predictor->update(pc, p, taken) ? 0 : 1;
        }
    });
    out.branches += branches.size();
    out.mispredicts += wrong;

    std::vector<HitWhere> where(fetch_lines.size());
    out.l1i_ns += timedSpan(log, "cache.l1i.access", parent, leaf, [&] {
        for (std::size_t i = 0; i < fetch_lines.size(); ++i)
            where[i] = core.l1i->access(fetch_lines[i]).where;
    });
    out.l1i_accesses += fetch_lines.size();
    for (HitWhere w : where)
        countOutcome(w, out);

    where.assign(data.size(), HitWhere::Miss);
    out.l1d_ns += timedSpan(log, "cache.l1d.access", parent, leaf, [&] {
        for (std::size_t i = 0; i < data.size(); ++i)
            where[i] = core.l1d->access(data[i]).where;
    });
    out.l1d_accesses += data.size();
    for (std::size_t i = 0; i < data.size(); ++i) {
        countOutcome(where[i], out);
        if (where[i] == HitWhere::Miss)
            misses.push_back(data[i]);
    }
}

} // namespace

void
replayLeaf(const ChipConfig &chip,
           const std::vector<WorkloadParams> &workloads, SpanLog &log,
           int parent, long leaf, LayerReplay &out)
{
    std::vector<std::vector<Addr>> misses(workloads.size());
    for (std::size_t c = 0; c < workloads.size(); ++c) {
        replayCore(chip.machine, workloads[c], log, parent, leaf, out,
                   misses[c]);
    }

    // Interleave the cores' miss streams round-robin on a strictly
    // increasing request time, which keeps the port's same-tick
    // publication-order rule trivially satisfied. Each core waits for
    // its previous reply, as a blocking core would, so fills in flight
    // stay bounded by the core count instead of queueing without end
    // at the memory channel.
    SharedL2 l2(sharedL2Params(chip, workloads));
    InterconnectPort port(l2, chip.cores);
    const MachineConfig &m = chip.machine;
    const Tick period = periodPsFromGHz(
        m.mode == ClockingMode::MCD
            ? m.domainFreqGHz(DomainId::LoadStore, m.adaptive)
            : m.synchronousFreqGHz());
    std::size_t total = 0;
    for (const auto &v : misses)
        total += v.size();
    std::vector<Tick> ready(misses.size(), 0);
    out.l2_ns += timedSpan(log, "cache.l2.requestLine", parent, leaf, [&] {
        Tick now = 0;
        std::vector<std::size_t> next(misses.size(), 0);
        for (std::size_t issued = 0; issued < total;) {
            for (std::size_t c = 0; c < misses.size(); ++c) {
                if (next[c] == misses[c].size())
                    continue;
                now = std::max(now + kL2RequestSpacingPs, ready[c]);
                ready[c] = port.requestLine(static_cast<int>(c),
                                            misses[c][next[c]++], now,
                                            period, now)
                               .done;
                ++issued;
            }
        }
    });
    out.l2_accesses += total;
}

} // namespace perfbench
