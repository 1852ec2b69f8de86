#include "core/ports.hh"

#include <algorithm>

#include "cache/shared_l2.hh"
#include "core/machine_config.hh"
#include "obs/trace.hh"
#include "timing/frequency_model.hh"

namespace gals
{

namespace
{

/** Dispatch FIFO capacity: the synchronizer queue plus the dispatch
 * pipe occupancy at full decode width. */
size_t
dispatchCapacity(const MachineConfig &cfg, int pipe_depth)
{
    return static_cast<size_t>(cfg.dispatch_fifo_entries +
                               cfg.decode_width * pipe_depth);
}

} // namespace

CorePorts::CorePorts(WakeHub &hub, CoreTiming &timing,
                     const MachineConfig &cfg, RegisterFiles &regs,
                     IssueQueue &iq_int, IssueQueue &iq_fp,
                     const Rob &rob, Lsq &lsq)
    : disp_int(hub, DomainId::FrontEnd, DomainId::Integer,
               dispatchCapacity(cfg, cfg.dispatchDepth())),
      disp_fp(hub, DomainId::FrontEnd, DomainId::FloatingPoint,
              dispatchCapacity(cfg, cfg.dispatchDepth())),
      disp_ls(hub, DomainId::FrontEnd, DomainId::LoadStore,
              dispatchCapacity(cfg, cfg.lsDispatchDepth())),
      store_buffer(hub, cfg.store_buffer_entries),
      completion(hub, timing, regs, iq_int, iq_fp, rob),
      redirect(hub, timing),
      agen(hub, timing, lsq),
      store_ready(hub, DomainId::LoadStore, DomainId::FrontEnd),
      reclock(hub)
{}

// ---------------------------------------------------------------------
// InterconnectPort: the cross-core L2 request/response channel.
// ---------------------------------------------------------------------

InterconnectPort::InterconnectPort(SharedL2 &l2, int cores)
    : l2_(l2), cores_(cores)
{
    GALS_ASSERT(cores >= 1 && cores <= kMaxCores,
                "interconnect core count out of range");
    GALS_ASSERT(l2.params().cores >= cores,
                "shared L2 sized for fewer cores than the "
                "interconnect serves");
}

void
InterconnectPort::bankPublish(int bank, int consumer, Tick now)
{
    SharedL2::Bank &b = l2_.banks_[static_cast<size_t>(bank)];
    GALS_ASSERT(
        b.last_pub < now ||
            (b.last_pub == now && b.last_pub_domain <= consumer),
        "publication order violation: bank %d state published at "
        "t=%llu by global domain %d consumed by lower-indexed global "
        "domain %d at the same tick",
        bank, static_cast<unsigned long long>(now), b.last_pub_domain,
        consumer);
    b.last_pub = now;
    b.last_pub_domain = consumer;
}

L2Reply
InterconnectPort::request(int core, DomainId consumer_local, Addr addr,
                          Tick t_req, Tick period, Tick now)
{
    GALS_ASSERT(core >= 0 && core < cores_,
                "interconnect request from an unknown core");
    const int bank = l2_.bankOf(addr);
    const int consumer =
        core * kNumDomains + static_cast<int>(consumer_local);
    bankPublish(bank, consumer, now);

    SharedL2::Bank &b = l2_.banks_[static_cast<size_t>(bank)];

    // Cross-core bank arbitration: delayed only behind *another*
    // core's occupancy window (own bandwidth is modeled in-core).
    Tick start = t_req;
    if (b.owner != core && b.owner != -1 && b.busy_until > start) {
        start = b.busy_until;
        ++l2_.bank_conflicts_;
        if (obs::tracing()) {
            obs::Tracer::instance().sim(
                consumer, obs::Ev::BankConflict, now,
                static_cast<std::uint64_t>(bank));
        }
    }
    b.busy_until = start + l2_.p_.bank_occupancy_ps;
    b.owner = core;

    // Prune completed fills (merge checks and fill-slot pressure only
    // care about fills still in flight at `now`). Guarded: most
    // requests find the bank's fill list empty, and this sits on
    // every L2 access.
    if (!b.fills.empty()) {
        std::erase_if(b.fills, [now](const SharedL2::Fill &f) {
            return f.done <= now;
        });
    }

    const DCachePairConfig &dc = dcachePairConfig(l2_.row_);
    const int probe = serialProbeCycles(dc.l2_a_lat, dc.l2_b_lat,
                                        l2_.cache_.bEnabled());
    AccessOutcome out = l2_.access(core, addr);
    const Addr line = addr >> l2_.cache_.lineShift();

    L2Reply r;
    if (out.where != HitWhere::Miss) {
        int lat = out.where == HitWhere::APartition ? dc.l2_a_lat : probe;
        r.hit = true;
        r.done = start + static_cast<Tick>(lat) * period;
        // Secondary access to another core's in-flight line: the tag
        // is already installed (accounting-cache semantics), but the
        // data cannot be forwarded before the fill arrives. Own-core
        // same-line timing is left to the core's L1D and MSHRs.
        Tick fill_done = 0;
        for (const SharedL2::Fill &f : b.fills) {
            if (f.line == line && f.core != core)
                fill_done = std::max(fill_done, f.done);
        }
        if (fill_done > r.done) {
            r.done = fill_done;
            ++l2_.fill_merges_;
            if (obs::tracing()) {
                obs::Tracer::instance().sim(
                    consumer, obs::Ev::FillMerge, now,
                    static_cast<std::uint64_t>(bank));
            }
        }
    } else {
        // Miss: probe both live partitions, then fill from memory
        // through one of this bank's fill slots, arbitrated across
        // cores — the miss waits while `bank_mshrs` fills from other
        // cores are still in flight.
        Tick issue_at = start + static_cast<Tick>(probe) * period;
        if (l2_.p_.bank_mshrs > 0) {
            Tick other_done[kMaxCores * kMaxCoreMshrs];
            int k = 0;
            for (const SharedL2::Fill &f : b.fills) {
                if (f.core != core && f.done > issue_at) {
                    GALS_ASSERT(k < static_cast<int>(
                                        std::size(other_done)),
                                "bank %d carries more than %zu "
                                "other-core in-flight fills (per-core "
                                "MSHR counts beyond the model's "
                                "sizing)",
                                bank, std::size(other_done));
                    other_done[k++] = f.done;
                }
            }
            if (k >= l2_.p_.bank_mshrs) {
                // Wait for releases until only bank_mshrs-1 other
                // fills remain: the (k - bank_mshrs + 1)-th earliest
                // release.
                std::sort(other_done, other_done + k);
                issue_at = other_done[k - l2_.p_.bank_mshrs];
                ++l2_.bank_mshr_waits_;
                if (obs::tracing()) {
                    obs::Tracer::instance().sim(
                        consumer, obs::Ev::MshrWait, now,
                        static_cast<std::uint64_t>(bank));
                }
            }
        }
        r.done = l2_.memory_.issueFill(issue_at);
        r.hit = false;
        b.fills.push_back(SharedL2::Fill{line, r.done, core});
        if (obs::tracing()) {
            obs::Tracer::instance().sim(
                consumer, obs::Ev::L2Fill, now,
                static_cast<std::uint64_t>(bank), r.done);
        }
    }

    // Coherence tail: a D-side request for a shared-region line
    // installs the line in the requester's L1D, so the directory
    // registers it as a sharer (a conservative superset — silent L1
    // evictions are not reported). If another core's store to the
    // line is still settling, the data cannot be forwarded before the
    // ownership transfer completes, hit or miss.
    if (consumer_local == DomainId::LoadStore && l2_.coherent() &&
        l2_.inShared(addr)) {
        SharedL2::DirEntry &e = l2_.dirEntry(addr);
        e.sharers |= static_cast<std::uint16_t>(1u << core);
        if (e.last_writer >= 0 && e.last_writer != core &&
            e.settle > r.done) {
            r.done = e.settle;
            ++l2_.ownership_transfers_;
            if (obs::tracing()) {
                obs::Tracer::instance().sim(
                    consumer, obs::Ev::OwnershipWait, now, e.settle);
            }
        }
    }
    return r;
}

L2Reply
InterconnectPort::requestLine(int core, Addr addr, Tick t_req,
                              Tick period, Tick now)
{
    return request(core, DomainId::LoadStore, addr, t_req, period,
                   now);
}

L2Reply
InterconnectPort::requestIcacheLine(int core, Addr pc, Tick t_req,
                                    Tick period, Tick now)
{
    return request(core, DomainId::FrontEnd, pc, t_req, period, now);
}

void
InterconnectPort::publishStore(int core, Addr addr, Tick now)
{
    if (!l2_.coherent() || !l2_.inShared(addr))
        return;
    GALS_ASSERT(core >= 0 && core < cores_,
                "coherence publication from an unknown core");
    const int publisher =
        core * kNumDomains + static_cast<int>(DomainId::LoadStore);
    // Directory state is shared bank state: the tripwire rejects a
    // same-tick publication after a higher-indexed touch, exactly as
    // for a request.
    bankPublish(l2_.bankOf(addr), publisher, now);

    const Addr line_base = addr & ~static_cast<Addr>(
                                      l2_.cache_.lineBytes() - 1);
    const Tick when = now + l2_.p_.coh_delay_ps;
    SharedL2::DirEntry &e = l2_.dirEntry(addr);
    e.last_writer = static_cast<std::int8_t>(core);
    e.settle = when;

    // Invalidate every remote sharer: each message wakes that core's
    // load/store unit at the delivery time. `when` is strictly after
    // `now` (coh_delay > 0), so the cross-core publication-order rule
    // holds for any consumer index. Messages are appended to the
    // inbox in (pub_tick, publisher) order, the global step order.
    static_assert(kMaxCores <= 16,
                  "DirEntry::sharers is a 16-bit core mask");
    const std::uint16_t self = static_cast<std::uint16_t>(1u << core);
    std::uint16_t remote =
        static_cast<std::uint16_t>(e.sharers & ~self);
    e.sharers = self;
    for (int c = 0; remote != 0; ++c, remote >>= 1) {
        if (!(remote & 1u))
            continue;
        const int consumer =
            c * kNumDomains + static_cast<int>(DomainId::LoadStore);
        ++l2_.invalidations_sent_;
        if (obs::tracing()) {
            obs::Tracer::instance().sim(
                publisher, obs::Ev::CohInvalidate, now,
                static_cast<std::uint64_t>(c), line_base);
        }
        l2_.inboxes_[static_cast<size_t>(c)].msgs.push_back(
            SharedL2::CohMsg{line_base, when});
        if (fabric_ != nullptr)
            fabric_->wakeRaw(consumer, when);
    }
}

int
InterconnectPort::consumeInvalidations(int core, Tick now,
                                       AccountingCache &l1d)
{
    if (!l2_.coherent())
        return 0;
    SharedL2::Inbox &in = l2_.inboxes_[static_cast<size_t>(core)];
    int n = 0;
    while (in.head < in.msgs.size() &&
           in.msgs[in.head].deliver_at <= now) {
        l1d.invalidate(in.msgs[in.head].line_base);
        ++in.head;
        ++n;
    }
    if (in.head == in.msgs.size() && in.head != 0) {
        in.msgs.clear();
        in.head = 0;
    }
    if (n > 0 && obs::tracing()) {
        // Delivery lands inside the consumer core's load/store step
        // at `now`, so its own track's publication order holds.
        obs::Tracer::instance().sim(
            core * kNumDomains +
                static_cast<int>(DomainId::LoadStore),
            obs::Ev::CohDeliver, now, static_cast<std::uint64_t>(n));
    }
    return n;
}

Tick
InterconnectPort::nextCoherenceAt(int core) const
{
    if (!l2_.coherent())
        return kTickMax;
    const SharedL2::Inbox &in =
        l2_.inboxes_[static_cast<size_t>(core)];
    return in.head < in.msgs.size() ? in.msgs[in.head].deliver_at
                                    : kTickMax;
}

const IntervalCounts &
InterconnectPort::interval(int core) const
{
    return l2_.interval(core);
}

void
InterconnectPort::resetInterval(int core)
{
    l2_.resetInterval(core);
}

std::uint64_t
InterconnectPort::accesses(int core) const
{
    return l2_.accesses(core);
}

std::uint64_t
InterconnectPort::misses(int core) const
{
    return l2_.misses(core);
}

std::uint64_t
InterconnectPort::bHits(int core) const
{
    return l2_.bHits(core);
}

void
InterconnectPort::reconfigure(int core, int target)
{
    // The shared partition and latency row follow core 0's D-cache
    // controller only; other cores' votes reconfigure their L1.
    if (core != 0)
        return;
    l2_.setRow(target, dcachePairConfig(target).l2_adapt.assoc);
}

} // namespace gals
