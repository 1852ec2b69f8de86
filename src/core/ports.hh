/**
 * @file
 * The cross-domain port layer.
 *
 * Domain units never wake each other directly: every cross-domain
 * publication — dispatch FIFO traffic, register completions, branch
 * resolutions, address-generation handoffs, store-buffer fills and
 * drains, epoch-bump broadcasts, re-lock landings — goes through one
 * of the typed ports below. The ports are the *only* code that knows
 * the publication-order rule, so no domain can publish or wake around
 * it (enforced by scripts/check_port_confinement.sh, which greps for
 * the rule's entry points outside this layer).
 *
 * ## The publication order rule
 *
 * On equal ticks the reference kernel steps lower domain indices
 * first. A state change *published* by domain A's step at tick `t` is
 * therefore first consumable by domain B at `t` when `B > A` (B steps
 * after A at `t`), but only strictly after `t` when `B < A` — B's
 * step at `t` already ran, before the publication existed. Waking a
 * stale lower-indexed domain *at* `t` would make the scheduler
 * deliver its `t` edge after the publisher's, and the domain would
 * observe state the reference kernel's step at `t` provably did not
 * see. `WakeHub::consumableAt` encodes the rule; `WakePort::publish`
 * applies it, and `WakePort::publishAt` asserts that an explicit wake
 * time respects it (the port-layer unit tests exercise the
 * rejection).
 */

#ifndef GALS_CORE_PORTS_HH
#define GALS_CORE_PORTS_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "clock/sync_fifo.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "core/domain.hh"
#include "core/regfile.hh"
#include "core/structures.hh"

namespace gals
{

/** Most cores one chip composition can carry. */
constexpr int kMaxCores = 16;

/** Upper bound on domains one scheduler/fabric instance can serve
 * (a core uses four; a chip uses four per core). */
constexpr int kMaxSchedDomains = kMaxCores * kNumDomains;

/** Per-core in-flight fill (MSHR) ceiling assumed by the fill-slot
 * arbitration's stack sizing — a bound on each core's L1D MSHR
 * count, not on the shared banks'. */
constexpr int kMaxCoreMshrs = 16;

/**
 * Chip-level wake storage shared by every port of every core:
 * per-domain earliest-possible-work bounds (indexed by *global*
 * domain index, `core * kNumDomains + local`) plus the event-kernel
 * calendar keys the scheduler picks its next domain from. Only ports
 * write wake state — through a per-core WakeHub window whose raw
 * primitive forwards here — and the scheduler reads and re-keys it
 * between steps. A single-core chip has a fabric of four domains,
 * so its one window is the identity mapping.
 *
 * ## The packed calendar
 *
 * Each calendar key packs `(tick << kIndexBits) | global index`, and
 * a parked domain keeps its index under an all-ones tick field. The
 * pick is then a plain unsigned minimum over the keys, and it is
 * exactly the reference kernel's order: keys of distinct domains
 * differ in their index bits, so the minimum is unique; an earlier
 * tick always wins, because `(t << b) | i < (t + 1) << b` for every
 * index `i`; and on equal ticks the lower index wins. When every
 * domain is parked the minimum is domain 0's parked key, which the
 * scheduler detects through key().
 */
class WakeFabric
{
  public:
    /** Low key bits holding the global domain index. */
    static constexpr int kIndexBits = 8;
    static_assert(kMaxSchedDomains <= (1 << kIndexBits),
                  "calendar index field too narrow for the fabric");
    static_assert(kMaxSchedDomains % 4 == 0,
                  "head() scans the keys in blocks of four");

    WakeFabric(const Clock *clocks, int count)
        : clocks_(clocks), count_(count)
    {
        GALS_ASSERT(count >= 1 && count <= kMaxSchedDomains,
                    "WakeFabric domain count out of range");
        wake_.fill(0);
        // Every slot parked, the padding past count_ included: head()
        // scans in blocks of four and must never pick a pad slot.
        for (int d = 0; d < kMaxSchedDomains; ++d)
            park(d);
    }

    int domainCount() const { return count_; }

    /** True while the event kernel is driving (reference runs skip
     * the calendar bookkeeping). */
    void setEventMode(bool on) { event_mode_ = on; }

    /** Reset for an event-kernel run: every domain eligible at its
     * next clock edge. */
    void
    beginEventRun()
    {
        for (int d = 0; d < count_; ++d) {
            wake_[static_cast<size_t>(d)] = 0;
            setKey(d, clocks_[static_cast<size_t>(d)].nextEdge());
        }
    }

    // Scheduler-side accessors (the calendar lives here so the hot
    // wake path updates it without an extra indirection).
    Tick bound(int d) const { return wake_[static_cast<size_t>(d)]; }
    void setBound(int d, Tick t) { wake_[static_cast<size_t>(d)] = t; }

    /** Calendar tick of domain `d` (kTickMax while parked). */
    Tick
    key(int d) const
    {
        Tick t = key_[static_cast<size_t>(d)] >> kIndexBits;
        return t == kParkedTick ? kTickMax : t;
    }
    void
    setKey(int d, Tick t)
    {
        key_[static_cast<size_t>(d)] = pack(d, t);
    }
    void
    park(int d)
    {
        key_[static_cast<size_t>(d)] =
            (kParkedTick << kIndexBits) | static_cast<Tick>(d);
    }

    /** Earliest-keyed domain (lowest global index on ties, matching
     * the reference kernel's scan order exactly): a branchless
     * minimum over the packed keys, four independent accumulators. */
    int
    head() const
    {
        Tick m0 = key_[0], m1 = key_[1], m2 = key_[2], m3 = key_[3];
        for (size_t i = 4; i < static_cast<size_t>(count_); i += 4) {
            m0 = std::min(m0, key_[i]);
            m1 = std::min(m1, key_[i + 1]);
            m2 = std::min(m2, key_[i + 2]);
            m3 = std::min(m3, key_[i + 3]);
        }
        return static_cast<int>(std::min(std::min(m0, m1),
                                         std::min(m2, m3)) &
                                kIndexMask);
    }

  private:
    friend class WakeHub;
    friend class InterconnectPort; // cross-core coherence wakes.

    static constexpr Tick kIndexMask = (Tick{1} << kIndexBits) - 1;
    /** Tick field of a parked key: all ones. */
    static constexpr Tick kParkedTick = kTickMax >> kIndexBits;

    /** Packed calendar key of domain `d` at tick `t`. */
    static Tick
    pack(int d, Tick t)
    {
        GALS_ASSERT(t < kParkedTick,
                    "calendar tick %llu exceeds the packed key width",
                    static_cast<unsigned long long>(t));
        return (t << kIndexBits) | static_cast<Tick>(d);
    }

    /**
     * Record that global domain `gd` may have work at `t`. Lazy key:
     * the clock may sit on a stale (earlier) edge; the scheduler
     * resolves the true first-edge-at-or-after-wake when the domain
     * reaches the head of the calendar. (Keying at the exact
     * extrapolated edge here is a measured pessimization: the
     * surfacing pass consumes the idle edges either way, so the
     * extrapolation division would be pure added cost.)
     */
    void
    wakeRaw(int gd, Tick t)
    {
        size_t i = static_cast<size_t>(gd);
        if (t >= wake_[i])
            return;
        wake_[i] = t;
        if (!event_mode_)
            return;
        Tick key = pack(gd, std::max(clocks_[i].nextEdge(), t));
        if (key < key_[i])
            key_[i] = key;
    }

    std::array<Tick, kMaxSchedDomains> wake_{};
    std::array<Tick, kMaxSchedDomains> key_{};
    const Clock *clocks_;
    int count_;
    bool event_mode_ = true;
};

/**
 * One core's window into the wake fabric. Every port of a core holds
 * a WakeHub and addresses it with the core-local DomainId; the window
 * offsets into the fabric's global arrays, so the same port code
 * serves every core of a Chip (core 0 at base 0).
 * The publication-order rule generalizes across cores because the
 * global index order (core-major, local order preserved) *is* the
 * reference kernel's tie-break order.
 */
class WakeHub
{
  public:
    WakeHub(WakeFabric &fabric, int base, int count)
        : fabric_(fabric), base_(base), count_(count)
    {
        GALS_ASSERT(base >= 0 && count >= 1 &&
                        base + count <= fabric.domainCount(),
                    "WakeHub window out of fabric range");
    }

    /** Domains in this window (a core's four). */
    int domainCount() const { return count_; }

  private:
    friend class WakePort;
    friend class DispatchPort;
    friend class CompletionPort;
    friend class RedirectPort;
    friend class AgenPort;
    friend class StoreBufferPort;
    friend class EpochBumpPort;
    friend class ReclockPort;

    /**
     * First tick at which a state change published by domain `src`'s
     * step at `now` is consumable by domain `dst` (the publication
     * order rule above). Local indices: both domains belong to this
     * window's core, and the local order equals the global order
     * under the window's constant offset.
     */
    static Tick
    consumableAt(DomainId src, DomainId dst, Tick now)
    {
        return static_cast<int>(dst) < static_cast<int>(src)
                   ? now + 1
                   : now;
    }

    /**
     * Wake tick for a consumer of a value that `src`'s step at `now`
     * produces at `when`: the value's synchronizer visibility in
     * `dst`, never earlier than the rule above allows. The consumer
     * cannot use the value sooner, so waking it earlier only buys a
     * step that finds the value still in flight. A period change
     * landing in between re-wakes it through the epoch-bump
     * broadcast.
     */
    static Tick
    visibleWakeAt(const CoreTiming &timing, DomainId src, DomainId dst,
                  Tick when, Tick now)
    {
        return std::max(timing.visibleAt(when, src, dst),
                        consumableAt(src, dst, now));
    }

    /** Forward a wake of core-local domain `dd` into the fabric. */
    void
    wakeRaw(DomainId dd, Tick t)
    {
        fabric_.wakeRaw(base_ + static_cast<int>(dd), t);
    }

    WakeFabric &fabric_;
    int base_;
    int count_;
};

/**
 * One-way publication channel from a fixed source domain to a fixed
 * destination domain. The port, not the caller, decides the earliest
 * consumable tick.
 */
class WakePort
{
  public:
    WakePort(WakeHub &hub, DomainId src, DomainId dst)
        : hub_(hub), src_(src), dst_(dst)
    {}

    DomainId src() const { return src_; }
    DomainId dst() const { return dst_; }

    /** Publish a state change made by `src`'s step at `now`: the
     * destination wakes at the first tick the rule allows. */
    void
    publish(Tick now)
    {
        hub_.wakeRaw(dst_, WakeHub::consumableAt(src_, dst_, now));
    }

    /**
     * Publish with an explicit future wake time (a synchronizer
     * crossing or completion visibility computed by the caller).
     * Asserts the time respects the publication order rule — a wake
     * at `now` toward a lower-indexed domain is exactly the
     * divergence class the rule exists to prevent.
     */
    void
    publishAt(Tick now, Tick when)
    {
        GALS_ASSERT(when >= WakeHub::consumableAt(src_, dst_, now),
                    "publication order violation: wake of domain %d "
                    "at t=%llu from domain %d's step at t=%llu",
                    static_cast<int>(dst_),
                    static_cast<unsigned long long>(when),
                    static_cast<int>(src_),
                    static_cast<unsigned long long>(now));
        hub_.wakeRaw(dst_, when);
    }

  private:
    WakeHub &hub_;
    DomainId src_;
    DomainId dst_;
};

/**
 * A dispatch FIFO crossing from the front end into an execution
 * domain: the bounded synchronizer queue plus both wake directions
 * (entries becoming visible wake the consumer; pops from a full FIFO
 * wake the producer, which blocks rename only when the FIFO is full).
 */
class DispatchPort
{
  public:
    DispatchPort(WakeHub &hub, DomainId producer, DomainId consumer,
                 size_t capacity)
        : fifo_(capacity), to_consumer_(hub, producer, consumer),
          to_producer_(hub, consumer, producer)
    {}

    // Producer side.
    size_t freeSlots() const { return fifo_.freeSlots(); }
    /** Enqueue an entry consumable at `visible` and wake the
     * consuming domain for it. */
    void
    push(size_t idx, Tick visible, Tick now)
    {
        fifo_.push(idx, visible);
        to_consumer_.publishAt(now, visible);
    }

    // Consumer side.
    bool empty() const { return fifo_.empty(); }
    size_t size() const { return fifo_.size(); }
    size_t capacity() const { return fifo_.capacity(); }
    bool frontReady(Tick now) const { return fifo_.frontReady(now); }
    Tick frontVisibleAt() const { return fifo_.frontVisibleAt(); }

    /**
     * Drain visible entries: f(entry) consumes one entry or returns
     * false to stop (consumer structurally full). When any entry left
     * a previously full FIFO, the producing domain is woken per the
     * publication order rule — rename blocks only on a full FIFO, so
     * only that transition needs the wake.
     */
    template <typename F>
    void
    consume(Tick now, F f)
    {
        bool was_full = fifo_.freeSlots() == 0;
        bool any = false;
        while (fifo_.frontReady(now)) {
            if (!f(fifo_.front()))
                break;
            fifo_.pop();
            any = true;
        }
        if (any && was_full)
            to_producer_.publish(now);
    }

  private:
    SyncFifo<size_t> fifo_;
    WakePort to_consumer_;
    WakePort to_producer_;
};

/**
 * The register completion/wake channel. A producing domain reports a
 * completed physical register; the port walks the waiter chains of
 * exactly that register in both issue queues and wakes the domains
 * that actually had a waiter, plus the front end when the completion
 * can unblock the ROB head — each when the value becomes visible
 * there. A woken waiter still joins its ready ring at once, in age
 * order; its cluster evaluates it at exactly the edge where the
 * reference scan first finds it ready.
 */
class CompletionPort
{
  public:
    CompletionPort(WakeHub &hub, const CoreTiming &timing,
                   RegisterFiles &regs, IssueQueue &iq_int,
                   IssueQueue &iq_fp, const Rob &rob)
        : hub_(hub), timing_(timing), regs_(regs), iq_int_(iq_int),
          iq_fp_(iq_fp), rob_(rob)
    {}

    /**
     * regs.complete + push-based wakeup. The waiter chains move
     * exactly the ops waiting on this register onto their queue's
     * ready ring; a domain with no waiter of `ref` keeps sleeping
     * (`now` = the edge performing the completion, in the `producer`
     * domain's step).
     */
    void
    complete(PhysRef ref, Tick when, DomainId producer,
             size_t rob_idx, Tick now)
    {
        regs_.complete(ref, when, producer);
        if (iq_int_.wakeWaiters(ref))
            wake(DomainId::Integer, when, producer, now);
        if (iq_fp_.wakeWaiters(ref))
            wake(DomainId::FloatingPoint, when, producer, now);
        // Retire blocks only on the ROB head: a younger op's
        // completion cannot unblock the front end, and once the head
        // run reaches an already-completed op the same retire call
        // evaluates it without a wake. The head retires no earlier
        // than its result is visible to the front end (the retire
        // gate's visibleAt check; the producer is the op's own
        // domain).
        if (rob_idx == rob_.headIndex())
            wake(DomainId::FrontEnd, when, producer, now);
    }

  private:
    void
    wake(DomainId consumer, Tick when, DomainId producer, Tick now)
    {
        hub_.wakeRaw(consumer, WakeHub::visibleWakeAt(
                                   timing_, producer, consumer, when,
                                   now));
    }

    WakeHub &hub_;
    const CoreTiming &timing_;
    RegisterFiles &regs_;
    IssueQueue &iq_int_;
    IssueQueue &iq_fp_;
    const Rob &rob_;
};

/**
 * The branch-resolution channel from an execution domain back to the
 * front end. The resolving cluster publishes the completion time of
 * the mispredicted branch; the port owns the resume-time memo the
 * front end sleeps on, including its epoch guard (the resume tick is
 * a grid extrapolation of the resolving completion, so a PLL re-lock
 * landing while the halt is pending must recompute it).
 */
class RedirectPort
{
  public:
    RedirectPort(WakeHub &hub, CoreTiming &timing)
        : hub_(hub), timing_(timing)
    {}

    /** Front end: a mispredicted branch entered the window; fetch
     * halts until resolve() supplies the resume time. */
    void
    arm()
    {
        resume_ = kTickMax;
        src_ = kTickMax;
    }

    /** Execution cluster: the mispredicted branch completes at
     * `complete` in `resolving`'s domain during its step at `now`. */
    void
    resolve(Tick complete, DomainId resolving, Tick now)
    {
        src_ = complete;
        dom_ = resolving;
        epoch_ = timing_.epoch();
        resume_ = timing_.visibleAt(complete, resolving,
                                    DomainId::FrontEnd);
        hub_.wakeRaw(DomainId::FrontEnd,
                     std::max(resume_,
                              WakeHub::consumableAt(
                                  resolving, DomainId::FrontEnd,
                                  now)));
    }

    /**
     * Front end: the tick fetch may resume at (kTickMax while
     * unresolved). Recomputed on epoch mismatch only while still
     * pending: past production times must not be re-extrapolated
     * (see docs/kernel.md).
     */
    Tick
    resumeAt(Tick now)
    {
        if (resume_ != kTickMax && resume_ > now &&
            epoch_ != timing_.epoch()) {
            resume_ = timing_.visibleAt(src_, dom_,
                                        DomainId::FrontEnd);
            epoch_ = timing_.epoch();
        }
        return resume_;
    }

  private:
    WakeHub &hub_;
    CoreTiming &timing_;
    Tick resume_ = 0;
    Tick src_ = kTickMax;
    DomainId dom_ = DomainId::Integer;
    std::uint32_t epoch_ = 0;
};

/**
 * The address-generation handoff from the integer cluster to the
 * load/store unit: records the agen completion on the op, clears the
 * LSQ entry's agen wait in place (push wakeup — the walk stops
 * skipping exactly this entry), and wakes the load/store domain when
 * the address becomes visible there (the walk's agen-visibility
 * gate, CoreTiming::visibleAt from Integer to LoadStore).
 */
class AgenPort
{
  public:
    AgenPort(WakeHub &hub, const CoreTiming &timing, Lsq &lsq)
        : hub_(hub), timing_(timing), lsq_(lsq)
    {}

    void
    agenIssued(InFlightOp &op, Tick complete, Tick now)
    {
        op.agen_done = complete;
        LsqEntry &le = lsq_.byId(op.lsq_id);
        if (le.wait_kind == 1)
            le.wait_kind = 0;
        hub_.wakeRaw(DomainId::LoadStore,
                     WakeHub::visibleWakeAt(timing_, DomainId::Integer,
                                            DomainId::LoadStore,
                                            complete, now));
    }

  private:
    WakeHub &hub_;
    const CoreTiming &timing_;
    Lsq &lsq_;
};

/**
 * The post-commit store buffer and its two wake directions: retire
 * (front end) pushes committed stores and wakes the load/store unit
 * to drain them; the drain wakes the front end when it pops from a
 * full buffer (retirement blocks only on a *full* store buffer).
 */
class StoreBufferPort
{
  public:
    StoreBufferPort(WakeHub &hub, int entries)
        : buffer_(static_cast<size_t>(entries)),
          to_lsu_(hub, DomainId::FrontEnd, DomainId::LoadStore),
          to_fe_(hub, DomainId::LoadStore, DomainId::FrontEnd)
    {}

    // Retire (producer) side.
    size_t freeSlots() const { return buffer_.freeSlots(); }
    /** Push a committed store's line, drainable from the push tick
     * on, and wake the drain side. The load/store unit walks every
     * waiting load on each step, so a line that becomes forwardable
     * needs no probe of its own: the wake's walk retries any
     * MSHR-busy load to that line. */
    void
    push(Addr line_addr, Tick now)
    {
        buffer_.push(line_addr, now);
        to_lsu_.publish(now);
    }

    // Drain (consumer) side.
    bool empty() const { return buffer_.empty(); }
    bool full() const { return !buffer_.canPush(); }
    size_t size() const { return buffer_.size(); }
    size_t capacity() const { return buffer_.capacity(); }
    /** A head write exists and may drain at `now`. */
    bool frontReady(Tick now) const { return buffer_.frontReady(now); }
    /** Line address of the head write; only valid when !empty(). */
    Addr front() const { return buffer_.front(); }
    /** Push tick of the head write; only valid when !empty(). */
    Tick frontVisibleAt() const { return buffer_.frontVisibleAt(); }
    /** A pending write to the line (store-to-load forwarding). */
    bool hasLine(Addr line_addr) const
    {
        return buffer_.contains(line_addr);
    }
    /** Pop the drained head write; wakes the front end when the pop
     * freed a slot of a previously full buffer. */
    void
    pop(Tick now)
    {
        bool was_full = full();
        buffer_.pop();
        if (was_full)
            to_fe_.publish(now);
    }

  private:
    SyncFifo<Addr> buffer_;
    WakePort to_lsu_;
    WakePort to_fe_;
};

/**
 * The epoch-bump broadcast: a landed period change stales every
 * memoized grid extrapolation, so sleeping domains must re-derive
 * their gates — but only from the first edge the reference kernel
 * evaluates with the new epoch. The bump becomes visible once the
 * re-clocked domain consumes its landing edge; the publication order
 * rule then decides, per destination, whether that is the landing
 * tick itself or strictly after it. Waking earlier (e.g. at 0) would
 * evaluate new-grid memos at stale edges the reference kernel
 * provably idles through under the old memos.
 */
class EpochBumpPort
{
  public:
    EpochBumpPort(WakeHub &hub, CoreTiming &timing)
        : hub_(hub), timing_(timing)
    {}

    void
    broadcast(int changed, Tick landing)
    {
        timing_.bumpEpoch();
        for (int d = 0; d < hub_.domainCount(); ++d) {
            if (d == changed)
                continue;
            hub_.wakeRaw(static_cast<DomainId>(d),
                         WakeHub::consumableAt(
                             static_cast<DomainId>(changed),
                             static_cast<DomainId>(d), landing));
        }
    }

  private:
    WakeHub &hub_;
    CoreTiming &timing_;
};

/**
 * The reconfiguration channel. A structure change schedules a period
 * change on some domain's clock, and that domain must consume the
 * edge where the change lands even if it is otherwise idle (other
 * domains read its grid for synchronizer timing, so a parked clock
 * must not lag across the change). A change applied at once (the
 * downsize-early side of the re-lock rule) can also unblock the
 * owning domain immediately: an issue queue that grows regains room
 * for its dispatch FIFO, and a full queue does not poll that FIFO.
 * Control decisions run inside the front end's step, so the source
 * domain is fixed.
 */
class ReclockPort
{
  public:
    explicit ReclockPort(WakeHub &hub) : hub_(hub) {}

    void
    schedule(DomainId target, Tick lock_done, Tick now)
    {
        GALS_ASSERT(lock_done >= WakeHub::consumableAt(
                                     DomainId::FrontEnd, target, now),
                    "re-lock landing scheduled before its publication "
                    "is consumable");
        hub_.wakeRaw(target, lock_done);
    }

    /** A structure of `target` changed during the front end's step at
     * `now`: the owning domain re-evaluates at the first tick the
     * publication order rule allows. */
    void
    applied(DomainId target, Tick now)
    {
        hub_.wakeRaw(target, WakeHub::consumableAt(DomainId::FrontEnd,
                                                   target, now));
    }

  private:
    WakeHub &hub_;
};

struct MachineConfig;

/**
 * The full port set of the four-domain core, constructed by its
 * Core (cmp/core.hh) and handed to the domain units at wire-up.
 */
struct CorePorts
{
    CorePorts(WakeHub &hub, CoreTiming &timing,
              const MachineConfig &cfg, RegisterFiles &regs,
              IssueQueue &iq_int, IssueQueue &iq_fp, const Rob &rob,
              Lsq &lsq);

    /** Dispatch FIFOs front end -> each execution domain. The FIFOs
     * model both the synchronizer queue and the dispatch pipe stages,
     * so their capacity covers the pipe occupancy at full decode
     * width. */
    DispatchPort disp_int;
    DispatchPort disp_fp;
    DispatchPort disp_ls;
    StoreBufferPort store_buffer;
    CompletionPort completion;
    RedirectPort redirect;
    AgenPort agen;
    /** ROB-head store-ready publication (load/store -> front end). */
    WakePort store_ready;
    ReclockPort reclock;
};

class AccountingCache;
class SharedL2;
struct IntervalCounts;

/** Reply to one shared-L2 line request. */
struct L2Reply
{
    /** Completion time of the request (requester-grid ps). */
    Tick done = 0;
    /** True when the line was served by the L2 (A or B partition). */
    bool hit = false;
};

/**
 * The cross-core interconnect: the request/response channel between
 * each core's private L1s and the shared banked L2 (cache/shared_l2).
 *
 * This port is the only code allowed to arbitrate the shared banks —
 * the SharedL2 state it mutates is private to it — and the only home
 * of the *cross-core* publication order rule: bank state published by
 * one core's step at tick t is consumable by another core's step at t
 * only when the consumer's global domain index is higher than the
 * publisher's (the reference kernel steps global indices in order on
 * equal ticks, and a chip's global order is core-major with the local
 * FrontEnd < Integer < FloatingPoint < LoadStore order preserved).
 * The scheduler's calendar plus the per-core ports' wake rule make a
 * mis-ordered consumption unreachable; `bankPublish` asserts it on
 * every request as a divergence tripwire, exactly like
 * WakePort::publishAt does for explicit wake times.
 *
 * Arbitration is cross-core only: a requester is never delayed behind
 * its own traffic (its bandwidth is already modeled by its mem ports
 * and L1D MSHRs — charging it again here would double-count the same
 * structural hazard), so on a single-core chip the bank knobs are
 * inert.
 */
class InterconnectPort
{
  public:
    /** @param l2    the shared banked L2 (state owned there).
     *  @param cores cores on the chip (request validation). */
    InterconnectPort(SharedL2 &l2, int cores);

    /**
     * Request a data line for `core`'s load/store unit. `t_req` is
     * the time the request reaches the L2 (after the L1 probe),
     * `period` the requester's load/store clock period (L2 latencies
     * are charged in requester cycles, the unit of the D-cache
     * pair's latency rows), `now` the requesting domain's step tick.
     */
    L2Reply requestLine(int core, Addr addr, Tick t_req, Tick period,
                        Tick now);

    /** Same channel for the front end's I-cache fills ("consumer" is
     * the core's front-end domain; `t_req`/`period` on the
     * load/store grid, as serveIcacheFill's contract specifies). */
    L2Reply requestIcacheLine(int core, Addr pc, Tick t_req,
                              Tick period, Tick now);

    /**
     * A core's D-cache controller chose configuration row `target`
     * during its load/store domain's step. The shared L2's
     * partition and latency row are owned by core 0 (a shared
     * structure cannot follow every core's private decision); other
     * cores' votes reconfigure their L1 only.
     */
    void reconfigure(int core, int target);

    // ------------------------------------------------------------------
    // Cross-core coherence (the first genuine cross-core wakes).
    // ------------------------------------------------------------------

    /**
     * Attach the chip's wake fabric: the delivery target of coherence
     * wakes. Unit tests that never publish may skip this.
     */
    void attachFabric(WakeFabric *fabric) { fabric_ = fabric; }

    /**
     * A store to the coherent shared region drained from `core`'s
     * store buffer during its load/store step at `now`. Updates the
     * line's directory entry (last writer + ownership settle time)
     * and publishes one invalidation per remote sharer, delivered to
     * that core's load/store unit at `now + coh_delay_ps` — a real
     * cross-core wake, obeying the same publication-order rule as
     * every other port. No-op on non-coherent chips or private
     * addresses, so single-core chips and non-sharing workloads
     * carry no coherence traffic.
     */
    void publishStore(int core, Addr addr, Tick now);

    /**
     * Drain the invalidations due for `core`'s L1D at `now` (called
     * at the head of the load/store unit's step): each message whose
     * delivery time has arrived invalidates its line in `l1d`.
     * Returns the number processed — the LSU charges one mem port
     * per message, which is what makes the wake timing-visible.
     */
    int consumeInvalidations(int core, Tick now, AccountingCache &l1d);

    /**
     * Earliest undelivered invalidation bound for `core` (kTickMax
     * when none). Folded into the load/store unit's wakeBound so an
     * intervening step cannot clobber the pending coherence wake.
     */
    Tick nextCoherenceAt(int core) const;

    // Per-core accounting pass-through (the LSU's controller and
    // RunStats paths reach the shared cache only through the port).
    const IntervalCounts &interval(int core) const;
    void resetInterval(int core);
    std::uint64_t accesses(int core) const;
    std::uint64_t misses(int core) const;
    std::uint64_t bHits(int core) const;

  private:
    /**
     * Record (and rule-check) that `consumer` — global domain index —
     * touches the bank's state during its step at `now`. Shared-bank
     * state is both read and published by every request, so the
     * tripwire asserts the reference step order: a same-tick touch by
     * a *lower* global index after a higher one would observe state
     * the reference kernel's step at `now` provably did not see.
     */
    void bankPublish(int bank, int consumer, Tick now);

    L2Reply request(int core, DomainId consumer_local, Addr addr,
                    Tick t_req, Tick period, Tick now);

    SharedL2 &l2_;
    int cores_;
    WakeFabric *fabric_ = nullptr;
};

} // namespace gals

#endif // GALS_CORE_PORTS_HH
