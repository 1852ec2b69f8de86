/**
 * @file
 * A bounded FIFO crossing a clock-domain boundary.
 *
 * Entries carry the absolute time at which they become visible to the
 * consumer (computed with syncVisibleAt at push time). The consumer
 * pops entries only at edges at or after their visibility time, in
 * order. Entries leave only by being consumed: the simulator never
 * squashes a dispatch FIFO.
 *
 * Capacity is fixed at construction, so storage is a flat ring: no
 * per-push allocation and O(1) head access with plain index
 * arithmetic (unlike std::deque's block map).
 */

#ifndef GALS_CLOCK_SYNC_FIFO_HH
#define GALS_CLOCK_SYNC_FIFO_HH

#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace gals
{

/** Bounded cross-domain FIFO with per-entry visibility times. */
template <typename T>
class SyncFifo
{
  public:
    explicit SyncFifo(size_t capacity)
        : capacity_(capacity), slots_(capacity)
    {}

    /** True when another entry can be accepted. */
    bool canPush() const { return count_ < capacity_; }

    /** Entries that can still be accepted (batched producers hoist
     * this once and count down locally). */
    size_t freeSlots() const { return capacity_ - count_; }

    /** Number of queued entries (visible or not). */
    size_t size() const { return count_; }

    bool empty() const { return count_ == 0; }

    size_t capacity() const { return capacity_; }

    /** Enqueue an entry that becomes consumable at `visible_at`. */
    void
    push(T value, Tick visible_at)
    {
        GALS_ASSERT(canPush(), "push into full SyncFifo");
        slots_[wrap(head_ + count_)] =
            Entry{visible_at, std::move(value)};
        ++count_;
    }

    /** True when the head entry exists and is visible at `now`. */
    bool
    frontReady(Tick now) const
    {
        return count_ != 0 && slots_[head_].visible_at <= now;
    }

    /** Head entry; only valid when !empty(). */
    T &front() { return slots_[head_].value; }
    const T &front() const { return slots_[head_].value; }

    /**
     * Visibility time of the head entry (the only gate the consumer
     * waits on; later entries cannot be consumed before it). Only
     * valid when !empty(). Used by the event kernel to compute how
     * long the consuming domain may sleep.
     */
    Tick frontVisibleAt() const { return slots_[head_].visible_at; }

    /** True when any queued entry, visible or not, equals `v` (a
     * linear scan: the FIFOs hold a few entries in a flat ring). */
    bool
    contains(const T &v) const
    {
        for (size_t i = 0; i < count_; ++i) {
            if (slots_[wrap(head_ + i)].value == v)
                return true;
        }
        return false;
    }

    /** Remove the head entry. */
    void
    pop()
    {
        GALS_ASSERT(count_ != 0, "pop from empty SyncFifo");
        head_ = wrap(head_ + 1);
        --count_;
    }

  private:
    struct Entry
    {
        Tick visible_at = 0;
        T value{};
    };

    size_t
    wrap(size_t pos) const
    {
        return pos >= capacity_ ? pos - capacity_ : pos;
    }

    size_t capacity_;
    std::vector<Entry> slots_;
    size_t head_ = 0;
    size_t count_ = 0;
};

} // namespace gals

#endif // GALS_CLOCK_SYNC_FIFO_HH
