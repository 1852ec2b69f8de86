/**
 * @file
 * The L2 of every chip, one core or many: one accounting cache
 * (tag/MRU state shared by every core) in front of the shared
 * main-memory channel, split into address-interleaved banks with
 * per-bank in-flight fill (MSHR) tracking. It is the L2 half of the
 * adaptive D-cache pair; each core's load/store unit holds the L1D
 * half.
 *
 * This class is a *state container*: the cache contents, the bank
 * occupancy/fill state, and the per-core accounting mirrors live
 * here, but every timing decision that arbitrates between cores —
 * bank queuing, fill-slot waits, in-flight merges, and the cross-core
 * publication-order tripwire — is made exclusively by the
 * InterconnectPort (core/ports.hh), which is a friend of this class.
 * Keeping the mutable arbitration state private makes "publish or
 * wake around the port layer" a compile error for the shared L2, the
 * same confinement the grep gate enforces textually for the wake
 * primitives.
 *
 * Arbitration is cross-core only (the port's contract): a core is
 * never delayed behind its own requests, whose bandwidth its load/
 * store unit already models with mem ports and L1D MSHRs. On a
 * single-core chip the bank knobs are therefore inert, which the
 * CMP suite's knob-inertness checks pin.
 *
 * Accounting: the shared AccountingCache keeps chip-global MRU/tag
 * state (that is what "shared" means), while per-core access/miss/
 * B-hit totals and per-core IntervalCounts mirrors are maintained
 * from the access outcomes so that RunStats and each core's D-cache
 * phase controller see exactly the traffic that core generated.
 */

#ifndef GALS_CACHE_SHARED_L2_HH
#define GALS_CACHE_SHARED_L2_HH

#include <cstdint>
#include <vector>

#include "cache/accounting_cache.hh"
#include "cache/main_memory.hh"
#include "common/types.hh"

namespace gals
{

class InterconnectPort;

/** Shared banked L2 + memory channel state of a chip. */
class SharedL2
{
  public:
    struct Params
    {
        /** Cache geometry (the machine mode's L2; see
         * cmp/chip.cc sharedL2Params). */
        std::uint64_t size_bytes = 2048 * 1024;
        int ways = 8;
        int a_ways = 8;
        /** B partition retained (phase-adaptive machines). */
        bool phase_adaptive = false;
        /** Initial (and, for non-adaptive machines, permanent)
         * D-cache configuration row — the latency table used for
         * every request. */
        int row = 0;

        int cores = 1;
        /** Address-interleaved banks (line-granular). */
        int banks = 4;
        /**
         * Per-bank in-flight fill slots arbitrated across cores; a
         * miss waits for a slot only while `bank_mshrs` fills from
         * *other* cores are outstanding in its bank. 0 = unbounded.
         */
        int bank_mshrs = 4;
        /** Bank busy window charged per request for cross-core
         * arbitration (ps). */
        Tick bank_occupancy_ps = 600;

        /**
         * Coherent shared region [shared_base, shared_base +
         * shared_bytes): lines here are tracked by the sharer/owner
         * directory and stores publish invalidations to remote L1s.
         * shared_bytes == 0 (the default) disables coherence
         * entirely — no directory, no traffic, no timing change.
         */
        Addr shared_base = 0;
        std::uint64_t shared_bytes = 0;
        /** Fixed cross-core invalidation/ownership-transfer latency
         * (ps): publication at t is visible remotely at t + delay. */
        Tick coh_delay_ps = 24'000;
    };

    explicit SharedL2(const Params &p);

    // ------------------------------------------------------------------
    // Passive views.
    // ------------------------------------------------------------------
    const Params &params() const { return p_; }
    const AccountingCache &cache() const { return cache_; }
    const MainMemory &memory() const { return memory_; }
    /** Active configuration row (owned by core 0's controller). */
    int row() const { return row_; }
    int bankOf(Addr addr) const
    {
        // Power-of-two bank counts (every config the sweeps and
        // benches use) take the mask path: this sits on every L2
        // request, and the general modulo costs a hardware divide.
        Addr line = addr >> cache_.lineShift();
        if (bank_mask_ != 0 || banks_.size() == 1)
            return static_cast<int>(line & bank_mask_);
        return static_cast<int>(line % static_cast<Addr>(banks_.size()));
    }

    // ------------------------------------------------------------------
    // Per-core accounting (RunStats and the phase controllers).
    // ------------------------------------------------------------------
    std::uint64_t accesses(int core) const
    {
        return per_core_[static_cast<size_t>(core)].accesses;
    }
    std::uint64_t misses(int core) const
    {
        return per_core_[static_cast<size_t>(core)].misses;
    }
    std::uint64_t bHits(int core) const
    {
        return per_core_[static_cast<size_t>(core)].b_hits;
    }
    const IntervalCounts &interval(int core) const
    {
        return per_core_[static_cast<size_t>(core)].interval;
    }
    void resetInterval(int core);

    // ------------------------------------------------------------------
    // Chip-level interconnect statistics.
    // ------------------------------------------------------------------
    /** Requests delayed behind another core's bank occupancy. */
    std::uint64_t bankConflicts() const { return bank_conflicts_; }
    /** Misses that waited for a bank fill slot held by other cores. */
    std::uint64_t bankMshrWaits() const { return bank_mshr_waits_; }
    /** Hits on another core's in-flight line, held to the fill. */
    std::uint64_t fillMerges() const { return fill_merges_; }
    /** Coherence invalidations delivered to remote L1 sharers. */
    std::uint64_t invalidationsSent() const
    {
        return invalidations_sent_;
    }
    /** Shared-line accesses delayed behind another core's store
     * settling (ownership transfer). */
    std::uint64_t ownershipTransfers() const
    {
        return ownership_transfers_;
    }

    /** True when `addr` falls in the coherent shared region. */
    bool inShared(Addr addr) const
    {
        return addr >= p_.shared_base &&
               addr - p_.shared_base < p_.shared_bytes;
    }
    /** True when coherence traffic can exist on this chip at all. */
    bool coherent() const
    {
        return p_.shared_bytes != 0 && p_.cores > 1;
    }

  private:
    friend class InterconnectPort;

    /** One in-flight line fill (for merges and fill-slot pressure). */
    struct Fill
    {
        Addr line;
        Tick done;
        int core;
    };

    /** Per-bank arbitration state (mutated only by the port). */
    struct Bank
    {
        Tick busy_until = 0;
        int owner = -1;
        /** Cross-core publication-order tripwire (see the port). */
        Tick last_pub = 0;
        int last_pub_domain = -1;
        std::vector<Fill> fills;
    };

    struct PerCore
    {
        std::uint64_t accesses = 0;
        std::uint64_t b_hits = 0;
        std::uint64_t misses = 0;
        IntervalCounts interval;
    };

    /**
     * Directory entry for one line of the coherent shared region.
     * Sharer bits are a conservative superset of the lines actually
     * resident in each core's L1D (silent L1 evictions are not
     * reported, so a sharer may receive a spurious — deterministic,
     * and in real directories common — invalidation).
     */
    struct DirEntry
    {
        /** Bitmask of cores whose L1D may hold the line (wide
         * enough for kMaxCores = 16). */
        std::uint16_t sharers = 0;
        /** Core that last stored to the line (-1: none yet). */
        std::int8_t last_writer = -1;
        /** Until when the last store's ownership transfer is in
         * flight: other cores' loads/fills of the line are held to
         * this point. */
        Tick settle = 0;
    };

    /** One queued invalidation bound for a core's L1D. */
    struct CohMsg
    {
        Addr line_base;
        Tick deliver_at;
    };

    /**
     * Per-core invalidation inboxes. Appended in publication order
     * ((pub_tick, publisher) — the global step order), and since
     * coh_delay is a single fixed chip parameter the deliver_at
     * sequence per inbox is monotone: the LSU drains a simple FIFO.
     */
    struct Inbox
    {
        std::vector<CohMsg> msgs;
        size_t head = 0;
    };

    /** Shared tag/MRU access plus the per-core mirrors (called only
     * by the port, which owns the surrounding arbitration). */
    AccessOutcome access(int core, Addr addr);

    /** Directory slot of a shared-region line (entries are sized at
     * construction from shared_bytes; caller guarantees inShared). */
    DirEntry &dirEntry(Addr addr)
    {
        return directory_[static_cast<size_t>(
            (addr - p_.shared_base) >> cache_.lineShift())];
    }

    Params p_;
    AccountingCache cache_;
    MainMemory memory_;
    std::vector<Bank> banks_;
    /** banks-1 when the bank count is a power of two, else 0. */
    Addr bank_mask_ = 0;
    std::vector<PerCore> per_core_;
    /** One entry per shared-region line (empty when not coherent). */
    std::vector<DirEntry> directory_;
    /** Per-core pending invalidations (mutated only by the port). */
    std::vector<Inbox> inboxes_;
    int row_;
    std::uint64_t bank_conflicts_ = 0;
    std::uint64_t bank_mshr_waits_ = 0;
    std::uint64_t fill_merges_ = 0;
    std::uint64_t invalidations_sent_ = 0;
    std::uint64_t ownership_transfers_ = 0;
};

} // namespace gals

#endif // GALS_CACHE_SHARED_L2_HH
