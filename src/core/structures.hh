/**
 * @file
 * In-flight bookkeeping structures of the out-of-order core: the
 * in-flight op record, reorder buffer, resizable issue queue,
 * load/store queue, store buffer, and function-unit pools.
 *
 * None of these know about clocks or domains; the domain units
 * supply all times. Because a mispredicted branch halts fetch until it
 * resolves (no wrong-path execution), nothing here ever needs to be
 * squashed; entries leave only by completing/retiring.
 */

#ifndef GALS_CORE_STRUCTURES_HH
#define GALS_CORE_STRUCTURES_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/regfile.hh"
#include "workload/uop.hh"

namespace gals
{

/** Execution latencies in owning-domain cycles (Alpha-flavored). */
constexpr int
opLatency(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu:  return 1;
      case OpClass::Branch:  return 1;
      case OpClass::IntMul:  return 3;
      case OpClass::IntDiv:  return 20;
      case OpClass::FpAlu:   return 4;
      case OpClass::FpMul:   return 4;
      case OpClass::FpDiv:   return 16;
      default:               return 1; // memory ops: cache-determined.
    }
}

/** Domain in which an op class executes. */
constexpr DomainId
execDomain(OpClass cls)
{
    if (isMemOp(cls))
        return DomainId::LoadStore;
    if (isFpOp(cls))
        return DomainId::FloatingPoint;
    return DomainId::Integer;
}

/** One op in flight from rename to retire. */
struct InFlightOp
{
    MicroOp uop;
    SeqNum seq = 0;

    PhysRef psrc1;
    PhysRef psrc2;
    PhysRef pdst;
    PhysRef old_pdst;

    /** Absolute completion time; kTickMax until known. */
    Tick complete_at = kTickMax;
    /** Memory ops: LSQ allocation id (wakes the entry at agen issue). */
    std::uint64_t lsq_id = 0;
    /**
     * Memory ops: completion time of the address-generation uop
     * issued from the integer queue (kTickMax until issued). The
     * load/store unit may access the cache only once this is visible
     * in its domain.
     */
    Tick agen_done = kTickMax;

    // The 1-byte fields sit together after the 8-byte ones, so the
    // struct carries no interior padding.
    bool in_queue = false;
    DomainId domain = DomainId::Integer;
    /** Memory ops: slot sequence in the LSQ. */
    bool is_mem = false;
    /** Stores: address and data captured, ready to retire. */
    bool store_ready = false;
    /** Branches. */
    bool mispredict = false;

    bool completed() const { return complete_at != kTickMax; }
};

/** Circular reorder buffer. Slots stay valid until retire. */
class Rob
{
  public:
    explicit Rob(int entries)
        : slots_(static_cast<size_t>(entries))
    {}

    bool full() const { return count_ == slots_.size(); }
    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }
    size_t capacity() const { return slots_.size(); }
    /** Slots still allocatable (rename hoists this per batch). */
    size_t freeSlots() const { return slots_.size() - count_; }

    /** Slot index of the op at age position `pos` (0 = oldest). */
    size_t
    indexAt(size_t pos) const
    {
        GALS_ASSERT(pos < count_, "ROB position out of range");
        pos += head_;
        if (pos >= slots_.size())
            pos -= slots_.size();
        return pos;
    }

    /** Allocate the next slot (program order); returns its index. */
    size_t
    alloc()
    {
        GALS_ASSERT(!full(), "ROB overflow");
        size_t idx = tail_;
        if (++tail_ == slots_.size())
            tail_ = 0;
        ++count_;
        return idx;
    }

    /** Index of the oldest op. */
    size_t headIndex() const
    {
        GALS_ASSERT(!empty(), "ROB head of empty buffer");
        return head_;
    }

    /** Pop the oldest op after retirement. */
    void
    retireHead()
    {
        GALS_ASSERT(!empty(), "ROB underflow");
        if (++head_ == slots_.size())
            head_ = 0;
        --count_;
    }

    InFlightOp &operator[](size_t idx) { return slots_[idx]; }
    const InFlightOp &operator[](size_t idx) const
    {
        return slots_[idx];
    }

  private:
    std::vector<InFlightOp> slots_;
    size_t head_ = 0;
    size_t tail_ = 0;
    size_t count_ = 0;
};

/** Waiter-chain link sentinel: slot not chained on this source. */
constexpr std::int32_t kIqNotChained = -2;
/** Waiter-chain link sentinel: end of a chain. */
constexpr std::int32_t kIqChainEnd = -1;

/**
 * One issue-queue slot of the push-based ready list: the ROB index,
 * mirrors of the immutable ROB fields selection needs (so evaluating
 * an entry is slot-local), and the wakeup state that decides which of
 * the queue's side structures the slot currently lives in:
 *
 *  - a *waiting* slot (some source register scoreboard-pending) sits
 *    only on the waiter chains of those registers and costs nothing
 *    until a completion walks the chain;
 *  - a *candidate* slot sits in the age-ordered ready ring, either
 *    needing (re-)evaluation of its source visibilities (a fresh
 *    dispatch, an epoch invalidation) or already proven ready;
 *  - a *timed* slot has an exact ready_at and sits in the
 *    ready_at-ordered timer ring until that tick; the completion that
 *    frees a waiter's last source times it directly.
 *
 * Slots live in a stable pool (ids survive until issue), so the side
 * structures hold 4-byte ids instead of moving slot records.
 */
struct IqSlot
{
    std::uint32_t rob_idx = 0;
    OpClass cls = OpClass::IntAlu;
    bool is_mem = false;
    bool mispredict = false;
    PhysRef psrc1;
    PhysRef psrc2;
    PhysRef pdst;
    /** Program-order age: the selection key of the ready ring. */
    SeqNum seq = 0;
    Tick issue_eligible = 0;
    /**
     * Exact earliest issue tick; valid while the slot is timed (the
     * timer ring is its only reader; a slot found ready at its
     * select-walk edge never computes it). A grid extrapolation, so
     * it is invalidated wholesale on epoch bumps
     * (IssueQueue::invalidateTimes).
     */
    Tick ready_at = 0;
    /** Waiter-chain links, one per source; kIqNotChained while the
     * source is not registered as waiting. Encoded nodes: id * 2 +
     * source index. */
    std::array<std::int32_t, 2> next_wait{kIqNotChained, kIqNotChained};
    /** Candidate needs its sources (re-)folded before selection. */
    bool needs_eval = false;
    bool in_cand = false;
    bool in_timed = false;
    bool live = false;
};

/**
 * Resizable issue queue with a push-based ready list.
 *
 * The queue never scans its occupancy per edge. Instead the wakeup
 * paths push slot ids directly onto the structure that matches what
 * each slot is provably waiting for:
 *
 *  - per-physical-register *waiter chains* (intrusive, heads in
 *    wait_heads_): a completion wakes exactly the ops waiting on that
 *    register (wakeWaiters) and nothing else, folding the ready time
 *    of each one it frees straight into the timer ring;
 *  - the *candidate ring* cand_: age-ordered ids that select walks
 *    oldest-first, at most issue-width successful issues per edge;
 *  - the *timer ring* timed_: ready_at-ordered (min-heap) ids with an
 *    exact ready time; promoteDue moves matured ids to the candidate
 *    ring.
 *
 * The owner supplies source evaluation — it needs the scoreboard and
 * the clock grids: the cluster's select walk for candidates, the
 * completion port's fold for woken waiters (slotReadyAt in
 * core/ports.hh, one function for both); this class owns the data
 * structures and their invariants. The O(queue)
 * rebuild path exists only for clock-epoch bumps (invalidateTimes),
 * which stale every memoized grid extrapolation at once.
 */
class IssueQueue
{
  public:
    explicit IssueQueue(int capacity) : capacity_(capacity) {}

    /** Size the waiter-chain index (one head per physical register).
     * Must be called before addWaiter/wakeWaiters are used. */
    void
    initWaiterIndex(int phys_int, int phys_fp)
    {
        phys_int_ = phys_int;
        wait_heads_.assign(static_cast<size_t>(phys_int + phys_fp),
                           kIqChainEnd);
    }

    bool full() const
    {
        return live_ >= static_cast<size_t>(capacity_);
    }
    size_t size() const { return live_; }
    int capacity() const { return capacity_; }

    /**
     * Change capacity. Occupancy above a smaller capacity is legal;
     * it drains naturally because full() blocks further dispatch.
     */
    void setCapacity(int capacity) { capacity_ = capacity; }

    IqSlot &slot(std::int32_t id)
    {
        return slots_[static_cast<size_t>(id)];
    }
    const IqSlot &slot(std::int32_t id) const
    {
        return slots_[static_cast<size_t>(id)];
    }

    /**
     * Allocate a pool slot (stable until freeSlot). Recycled slots
     * come back structurally clean — freeSlot asserts no ring or
     * chain membership — so only liveness is set here; the caller
     * fills every identity field (rob_idx, cls, flags, sources, seq,
     * issue_eligible) before pushing the slot anywhere.
     */
    std::int32_t
    alloc()
    {
        GALS_ASSERT(!full(), "issue-queue overflow");
        std::int32_t id;
        if (!free_.empty()) {
            id = free_.back();
            free_.pop_back();
        } else {
            id = static_cast<std::int32_t>(slots_.size());
            slots_.emplace_back();
        }
        slot(id).live = true;
        ++live_;
        return id;
    }

    /** Return an issued slot to the pool. Must not be a member of any
     * side structure (select pops it from the ready ring first). */
    void
    freeSlot(std::int32_t id)
    {
        IqSlot &s = slot(id);
        GALS_ASSERT(s.live && !s.in_cand && !s.in_timed &&
                        s.next_wait[0] == kIqNotChained &&
                        s.next_wait[1] == kIqNotChained,
                    "issue-queue free of a referenced slot");
        s.live = false;
        free_.push_back(id);
        --live_;
    }

    // ------------------------------------------------------------------
    // Candidate ring: slot ids in ascending age (seq) order, walked
    // in place by select. Dispatch arrivals append at the tail (they
    // are youngest); the rare out-of-order insert (a timed slot
    // maturing among younger candidates) backs in from the tail. The
    // seq key is cached next to the id so ordering never touches the
    // slot pool.
    // ------------------------------------------------------------------
    bool hasCandidates() const { return !cand_.empty(); }
    size_t candCount() const { return cand_.size(); }

    void
    pushCandidate(std::int32_t id, bool needs_eval)
    {
        IqSlot &s = slot(id);
        GALS_ASSERT(!s.in_cand && !s.in_timed,
                    "candidate push of a slot already in a ring");
        s.needs_eval = needs_eval;
        s.in_cand = true;
        CandEntry e{s.seq, id};
        size_t pos = cand_.size();
        cand_.push_back(e);
        while (pos > 0 && cand_[pos - 1].seq > e.seq) {
            cand_[pos] = cand_[pos - 1];
            --pos;
        }
        cand_[pos] = e;
    }

    /** Select outcome for one walked candidate. */
    enum class CandAction
    {
        Drop, //!< left the ring (issued or parked elsewhere).
        Keep, //!< stays (FU-stalled ready op): retried next edge.
        Stop, //!< issue width exhausted: keep this and all younger.
    };

    /**
     * Walk candidates oldest-first, applying f(id) -> CandAction in
     * place (the reference scan's age order, restricted to the slots
     * that can actually act). f frees issued slots itself; the walk
     * hands each slot to f with its ring membership already cleared
     * and restores it on Keep/Stop.
     */
    template <typename F>
    void
    walkCandidates(F f)
    {
        for (size_t i = 0; i < cand_.size(); ++i) {
            std::int32_t id = cand_[i].id;
            slot(id).in_cand = false;
            CandAction a = f(id);
            if (a == CandAction::Drop) {
                cand_[i].id = -1;
                continue;
            }
            slot(id).in_cand = true;
            if (a == CandAction::Stop)
                break;
        }
        // Compact the survivors (dropped entries tombstoned above;
        // everything from the stop position on is kept wholesale).
        size_t write = 0;
        for (size_t r = 0; r < cand_.size(); ++r) {
            if (cand_[r].id != -1)
                cand_[write++] = cand_[r];
        }
        cand_.resize(write);
    }

    // ------------------------------------------------------------------
    // Timer ring (ready_at-ordered min-heap; the deadline is cached
    // next to the id so sifting never touches the slot pool).
    // ------------------------------------------------------------------
    void
    pushTimed(std::int32_t id)
    {
        IqSlot &s = slot(id);
        GALS_ASSERT(!s.in_cand && !s.in_timed,
                    "timed push of a candidate slot");
        s.in_timed = true;
        timed_.push_back(TimedEntry{s.ready_at, id});
        size_t i = timed_.size() - 1;
        while (i != 0) {
            size_t parent = (i - 1) / 2;
            if (timed_[parent].at <= timed_[i].at)
                break;
            std::swap(timed_[parent], timed_[i]);
            i = parent;
        }
    }

    /** Earliest exact ready time among timed slots (kTickMax: none). */
    Tick
    minTimed() const
    {
        return timed_.empty() ? kTickMax : timed_.front().at;
    }

    /** Move every timed slot due at `now` into the candidate ring. */
    void
    promoteDue(Tick now)
    {
        while (!timed_.empty() && timed_.front().at <= now) {
            std::int32_t id = timed_.front().id;
            timed_.front() = timed_.back();
            timed_.pop_back();
            if (!timed_.empty())
                siftDownTimed();
            slot(id).in_timed = false;
            pushCandidate(id, false);
        }
    }

    // ------------------------------------------------------------------
    // Waiter chains (register wakeup).
    // ------------------------------------------------------------------
    /** Record that slot `id`'s source `si` waits on register `ref`. */
    void
    addWaiter(PhysRef ref, std::int32_t id, int si)
    {
        IqSlot &s = slot(id);
        size_t k = static_cast<size_t>(si);
        // A chained slot stays parked until its last source frees it,
        // so no evaluation ever finds one of its sources chained.
        GALS_ASSERT(s.next_wait[k] == kIqNotChained,
                    "issue-queue waiter chained twice on one source");
        size_t w = waitIndex(ref);
        s.next_wait[k] = wait_heads_[w];
        wait_heads_[w] =
            id * 2 + static_cast<std::int32_t>(k);
    }

    /**
     * A producer of `ref` issued: every op waiting on it leaves the
     * chain. One still chained on its other source stays parked; any
     * other gets its exact ready time from `fold(slot)` at once and
     * joins the timer ring (invalidateTimes re-folds it should a
     * clock-grid change land first). Returns true when the chain held
     * any waiter (the caller wakes the domain); false means no op
     * here cared about this completion.
     */
    template <typename F>
    bool
    wakeWaiters(PhysRef ref, F fold)
    {
        if (ref.index < 0 || wait_heads_.empty())
            return false;
        size_t w = waitIndex(ref);
        std::int32_t node = wait_heads_[w];
        if (node == kIqChainEnd)
            return false;
        wait_heads_[w] = kIqChainEnd;
        while (node != kIqChainEnd) {
            std::int32_t id = node / 2;
            size_t si = static_cast<size_t>(node % 2);
            IqSlot &s = slot(id);
            node = s.next_wait[si];
            s.next_wait[si] = kIqNotChained;
            if (s.next_wait[si ^ 1] != kIqNotChained)
                continue; // still waits on its other source.
            s.ready_at = fold(s);
            pushTimed(id);
        }
        return true;
    }

    /**
     * A clock-grid change landed: every memoized ready time is stale.
     * Timed and candidate slots re-evaluate at this edge, while
     * chained waiters stay parked (their pendingness is not a grid
     * extrapolation; they fold their sources afresh once woken).
     */
    void
    invalidateTimes()
    {
        while (!timed_.empty()) {
            std::int32_t id = timed_.back().id;
            timed_.pop_back();
            slot(id).in_timed = false;
            pushCandidate(id, true);
        }
        for (const CandEntry &e : cand_)
            slot(e.id).needs_eval = true;
    }

    /** Invoke f(id, slot) for every live slot (pool order). */
    template <typename F>
    void
    forEachLive(F f) const
    {
        for (size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].live)
                f(static_cast<std::int32_t>(i), slots_[i]);
        }
    }

    /** Invoke f(fp, reg_index, id, si) for every chained waiter. */
    template <typename F>
    void
    forEachWaiter(F f) const
    {
        for (size_t w = 0; w < wait_heads_.size(); ++w) {
            bool fp = static_cast<int>(w) >= phys_int_;
            int reg = static_cast<int>(w) -
                      (fp ? phys_int_ : 0);
            std::int32_t node = wait_heads_[w];
            while (node != kIqChainEnd) {
                std::int32_t id = node / 2;
                size_t si = static_cast<size_t>(node % 2);
                f(fp, reg, id, static_cast<int>(si));
                node = slots_[static_cast<size_t>(id)].next_wait[si];
            }
        }
    }

  private:
    size_t
    waitIndex(PhysRef ref) const
    {
        GALS_ASSERT(ref.index >= 0 && !wait_heads_.empty(),
                    "waiter index for an always-ready register");
        size_t w = static_cast<size_t>(ref.index) +
                   (ref.fp ? static_cast<size_t>(phys_int_) : 0);
        GALS_ASSERT(w < wait_heads_.size(),
                    "waiter index out of range");
        return w;
    }

    /** Candidate-ring entry: the age key cached next to the id. */
    struct CandEntry
    {
        SeqNum seq;
        std::int32_t id;
    };
    /** Timer-ring entry: the deadline cached next to the id. */
    struct TimedEntry
    {
        Tick at;
        std::int32_t id;
    };

    /** Restore the heap property after replacing the root. */
    void
    siftDownTimed()
    {
        const size_t n = timed_.size();
        size_t i = 0;
        for (;;) {
            size_t best = i;
            size_t l = 2 * i + 1;
            size_t r = 2 * i + 2;
            if (l < n && timed_[l].at < timed_[best].at)
                best = l;
            if (r < n && timed_[r].at < timed_[best].at)
                best = r;
            if (best == i)
                return;
            std::swap(timed_[i], timed_[best]);
            i = best;
        }
    }

    int capacity_;
    int phys_int_ = 0;
    std::vector<IqSlot> slots_;
    std::vector<std::int32_t> free_;
    size_t live_ = 0;
    std::vector<CandEntry> cand_;
    std::vector<TimedEntry> timed_;
    std::vector<std::int32_t> wait_heads_;
};

/** One load/store queue entry (program order). */
struct LsqEntry
{
    size_t rob_idx = 0;
    Addr line_addr = 0;
    /** Arrival at the load/store domain; kTickMax until then. */
    Tick arrived_at = kTickMax;
    /** Monotone allocation id; doubles as the age order. */
    std::uint64_t id = 0;
    bool is_store = false;
    bool issued = false;
    /** Stores: data captured (mirrors InFlightOp::store_ready; read
     * by the per-load disambiguation scan). */
    bool data_ready = false;
};

/**
 * Program-ordered load/store queue.
 *
 * Entries are addressed by a monotone allocation id (the queue only
 * ever pops from the front, so id - firstId() is the position). Three
 * side lists keep the per-edge work proportional to the entries that
 * can still change state, not the queue occupancy:
 *
 *  - pendingStores(): ids of stores whose address generation has
 *    issued and whose data is not yet captured (the store-ready walk
 *    touches only these);
 *  - waitingLoads(): ids of loads whose address generation has issued
 *    and that are not yet issued to the cache;
 *  - a flat age-ordered list of in-queue stores (line, id), so the
 *    per-load disambiguation scan touches only stores.
 *
 * An entry joins its walk list at its agen issue (agenIssued), never
 * at allocation: until then no walk can act on it, and the agen port
 * wakes the load/store domain when it joins. The caller owns
 * compaction of the two id lists (it knows which entries changed
 * state while iterating); the store list is maintained here.
 */
class Lsq
{
  public:
    explicit Lsq(int entries)
        : capacity_(static_cast<size_t>(entries)),
          mask_((capacity_ & (capacity_ - 1)) == 0 ? capacity_ - 1
                                                   : 0),
          slots_(capacity_)
    {}

    bool full() const { return count_ >= capacity_; }
    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }
    size_t capacity() const { return capacity_; }
    /** Entries still allocatable (rename hoists this per batch). */
    size_t freeSlots() const { return capacity_ - count_; }

    /** Allocate the next entry; returns its allocation id. */
    std::uint64_t
    allocate(size_t rob_idx, bool is_store, Addr line_addr)
    {
        GALS_ASSERT(!full(), "LSQ overflow");
        std::uint64_t id = next_id_++;
        LsqEntry &e = byId(id);
        e = LsqEntry{};
        e.rob_idx = rob_idx;
        e.is_store = is_store;
        e.line_addr = line_addr;
        e.id = id;
        ++count_;
        if (is_store)
            stores_.push_back(StoreRec{line_addr, id});
        return id;
    }

    /**
     * Entry `id`'s address generation issued: it joins its walk list
     * in age order. Agen issue mostly follows age, so the sorted
     * insert backs in from the tail, like the candidate ring's.
     */
    void
    agenIssued(std::uint64_t id)
    {
        auto &list = byId(id).is_store ? pending_stores_ : waiting_loads_;
        size_t pos = list.size();
        list.push_back(id);
        while (pos > 0 && list[pos - 1] > id) {
            list[pos] = list[pos - 1];
            --pos;
        }
        list[pos] = id;
    }

    /** Mark the oldest not-yet-arrived entry as arrived. */
    void
    markArrived(Tick when)
    {
        GALS_ASSERT(next_arrival_id_ < next_id_,
                    "LSQ arrival with no waiting entry");
        byId(next_arrival_id_++).arrived_at = when;
    }

    /** Oldest entry (the one the ROB retires next among mem ops). */
    LsqEntry &front()
    {
        GALS_ASSERT(!empty(), "LSQ front of empty queue");
        return byId(first_id_);
    }

    void
    popFront()
    {
        GALS_ASSERT(!empty(), "LSQ pop of empty queue");
        LsqEntry &e = front();
        if (e.is_store) {
            GALS_ASSERT(stores_head_ < stores_.size() &&
                            stores_[stores_head_].id == e.id,
                        "LSQ store index out of sync at pop");
            // Ring-style head advance (the seed erased the vector
            // front, an O(#stores) move per store retire); the dead
            // prefix is reclaimed in amortized O(1).
            ++stores_head_;
            if (stores_head_ == stores_.size()) {
                stores_.clear();
                stores_head_ = 0;
            } else if (stores_head_ >= 16 &&
                       stores_head_ * 2 >= stores_.size()) {
                stores_.erase(stores_.begin(),
                              stores_.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      stores_head_));
                stores_head_ = 0;
            }
        }
        ++first_id_;
        --count_;
    }

    /**
     * Entry lookup by allocation id. Ids map to fixed ring slots, so
     * this is one index operation, not a deque block-map walk.
     */
    LsqEntry &byId(std::uint64_t id) { return slots_[slotOf(id)]; }

    /** Positional access relative to the front (age order). */
    LsqEntry &at(size_t pos) { return byId(first_id_ + pos); }

    /** First id still in the queue (front()'s id). */
    std::uint64_t firstId() const { return first_id_; }

    /** Disambiguation state of the stores older than a load. */
    enum class OlderStores
    {
        None,     //!< no older in-queue store to the line.
        AllReady, //!< at least one, and every one has its data.
        Blocked,  //!< some older store still lacks its data.
    };

    OlderStores
    olderStores(Addr line_addr, std::uint64_t load_id) const
    {
        bool any = false;
        for (size_t i = stores_head_; i < stores_.size(); ++i) {
            const StoreRec &rec = stores_[i];
            if (rec.id >= load_id)
                break; // ids ascend: the rest are younger.
            if (rec.line != line_addr)
                continue;
            if (!byId(rec.id).data_ready)
                return OlderStores::Blocked;
            any = true;
        }
        return any ? OlderStores::AllReady : OlderStores::None;
    }

    /** One in-queue store, in age order (flat: the disambiguation
     * scan touches only this dense list). */
    struct StoreRec
    {
        Addr line = 0;
        std::uint64_t id = 0;
    };

    /** Invoke f(rec) for every in-queue store, oldest first. */
    template <typename F>
    void
    forEachStore(F f) const
    {
        for (size_t i = stores_head_; i < stores_.size(); ++i)
            f(stores_[i]);
    }

    /**
     * Ids of agen-issued stores whose data is not yet captured, in age
     * order (the store-ready walk touches only these; the caller
     * compacts, as with the waiting loads).
     */
    std::vector<std::uint64_t> &pendingStores()
    {
        return pending_stores_;
    }
    const std::vector<std::uint64_t> &pendingStores() const
    {
        return pending_stores_;
    }

    /** Ids of agen-issued loads not yet issued to the cache, in age
     * order. */
    std::vector<std::uint64_t> &waitingLoads()
    {
        return waiting_loads_;
    }
    const std::vector<std::uint64_t> &waitingLoads() const
    {
        return waiting_loads_;
    }

    const LsqEntry &byId(std::uint64_t id) const
    {
        return slots_[slotOf(id)];
    }

  private:
    size_t
    slotOf(std::uint64_t id) const
    {
        return mask_ != 0 ? static_cast<size_t>(id) & mask_
                          : static_cast<size_t>(id % capacity_);
    }

    size_t capacity_;
    size_t mask_;
    std::vector<LsqEntry> slots_;
    size_t count_ = 0;
    std::uint64_t next_id_ = 0;
    std::uint64_t first_id_ = 0;
    std::uint64_t next_arrival_id_ = 0;
    std::vector<StoreRec> stores_;
    size_t stores_head_ = 0;
    std::vector<std::uint64_t> pending_stores_;
    std::vector<std::uint64_t> waiting_loads_;
};

/** Per-domain function units: N pipelined ALUs + 1 mult/div unit. */
struct FuPool
{
    int alus = 4;
    int alu_used = 0;
    int muldiv_used = 0;
    Tick muldiv_busy_until = 0;

    void
    newCycle()
    {
        alu_used = 0;
        muldiv_used = 0;
    }

    /** Try to claim a unit for the op class at time `now`. */
    bool
    claim(OpClass cls, Tick now, Tick complete_at)
    {
        bool muldiv = cls == OpClass::IntMul || cls == OpClass::IntDiv ||
                      cls == OpClass::FpMul || cls == OpClass::FpDiv;
        if (!muldiv) {
            if (alu_used >= alus)
                return false;
            ++alu_used;
            return true;
        }
        if (muldiv_used >= 1 || muldiv_busy_until > now)
            return false;
        ++muldiv_used;
        // Divides occupy the unit to completion (not pipelined).
        if (cls == OpClass::IntDiv || cls == OpClass::FpDiv)
            muldiv_busy_until = complete_at;
        return true;
    }
};

} // namespace gals

#endif // GALS_CORE_STRUCTURES_HH
