/**
 * @file
 * The batched fetch-group queue between the fetch and rename stages.
 *
 * Every op fetched at one front-end edge shares a single visibility
 * time (`now + feDepth * period`, the front-end pipe latency), so the
 * fetch queue stores that time once per *group* instead of once per
 * op. Rename consumes ops in order and gates only on the head group's
 * visibility; `visibleOps()` gives it the whole consumable prefix in
 * one walk over the (few) queued groups, so the rename loop runs
 * without per-op visibility checks.
 *
 * Ops carry their decode-invariant properties (execution domain,
 * memory/destination classification), computed once at fetch, so
 * neither rename nor the sleep-gate derivation re-derives them.
 *
 * Storage is two flat rings (ops, groups) sized at construction: no
 * allocation after the constructor, O(1) push/pop.
 */

#ifndef GALS_CORE_FETCH_GROUP_HH
#define GALS_CORE_FETCH_GROUP_HH

#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "workload/uop.hh"

namespace gals
{

/** One fetched op waiting for rename, with decode-invariant fields. */
struct FetchedOp
{
    MicroOp uop;
    bool mispredict = false;

    // Decode-invariant classification, filled at fetch so rename and
    // the front-end sleep gate never recompute it.
    DomainId dom = DomainId::Integer;
    bool is_mem = false;
    bool needs_dst = false;
    bool dst_fp = false;
};

/** Bounded fetch queue storing visibility per fetch group. */
class FetchGroupQueue
{
  public:
    explicit FetchGroupQueue(size_t op_capacity)
        : capacity_(op_capacity), ops_(op_capacity),
          groups_(op_capacity)
    {}

    bool canPush() const { return count_ < capacity_; }
    /** Ops that can still be accepted. */
    size_t freeOps() const { return capacity_ - count_; }
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    size_t capacity() const { return capacity_; }

    /**
     * Enqueue an op consumable at `visible_at`. Consecutive pushes
     * with the same visibility time (one fetch group) share one group
     * record.
     */
    void
    push(const FetchedOp &op, Tick visible_at)
    {
        GALS_ASSERT(canPush(), "push into full fetch queue");
        ops_[wrap(op_head_ + count_)] = op;
        ++count_;
        if (group_count_ != 0) {
            Group &back =
                groups_[wrap(group_head_ + group_count_ - 1)];
            if (back.visible_at == visible_at) {
                ++back.count;
                return;
            }
        }
        groups_[wrap(group_head_ + group_count_)] =
            Group{visible_at, 1};
        ++group_count_;
    }

    /** True when the head op exists and its group is visible. */
    bool
    frontReady(Tick now) const
    {
        return count_ != 0 && groups_[group_head_].visible_at <= now;
    }

    /** Head op; only valid when !empty(). */
    FetchedOp &front() { return ops_[op_head_]; }
    const FetchedOp &front() const { return ops_[op_head_]; }

    /** Visibility time of the head group; only valid when !empty(). */
    Tick frontVisibleAt() const
    {
        return groups_[group_head_].visible_at;
    }

    /**
     * Number of ops in the consumable prefix at `now` (the leading
     * groups whose visibility has passed), saturated at `limit`:
     * rename sizes its whole batch from this one call and never needs
     * to know more than decode-width-and-a-bit, so the walk stops as
     * soon as the prefix provably covers the batch.
     */
    size_t
    visibleOps(Tick now, size_t limit) const
    {
        size_t n = 0;
        for (size_t g = 0; g < group_count_ && n < limit; ++g) {
            const Group &grp = groups_[wrap(group_head_ + g)];
            if (grp.visible_at > now)
                break;
            n += grp.count;
        }
        return n < limit ? n : limit;
    }

    /** Remove the head op (and its group once drained). */
    void
    pop()
    {
        GALS_ASSERT(count_ != 0, "pop from empty fetch queue");
        op_head_ = wrap(op_head_ + 1);
        --count_;
        Group &head = groups_[group_head_];
        if (--head.count == 0) {
            group_head_ = wrap(group_head_ + 1);
            --group_count_;
        }
    }

    /** Number of distinct fetch groups currently queued. */
    size_t groupCount() const { return group_count_; }

    /**
     * Structural invariants (the differential harness calls this):
     * group op counts are positive and sum to the op count, and
     * occupancy respects capacity.
     */
    bool
    checkConsistent() const
    {
        if (count_ > capacity_ || group_count_ > capacity_)
            return false;
        size_t total = 0;
        for (size_t g = 0; g < group_count_; ++g) {
            const Group &grp = groups_[wrap(group_head_ + g)];
            if (grp.count == 0)
                return false;
            total += grp.count;
        }
        return total == count_;
    }

  private:
    struct Group
    {
        Tick visible_at = 0;
        std::uint32_t count = 0;
    };

    size_t
    wrap(size_t pos) const
    {
        return pos >= capacity_ ? pos - capacity_ : pos;
    }

    size_t capacity_;
    std::vector<FetchedOp> ops_;
    std::vector<Group> groups_;
    size_t op_head_ = 0;
    size_t count_ = 0;
    size_t group_head_ = 0;
    size_t group_count_ = 0;
};

} // namespace gals

#endif // GALS_CORE_FETCH_GROUP_HH
