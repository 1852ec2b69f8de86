#include "cache/accounting_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gals
{

namespace
{
bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}
} // namespace

AccountingCache::AccountingCache(std::string name,
                                 std::uint64_t size_bytes, int ways,
                                 int line_bytes)
    : name_(std::move(name)), ways_(ways), line_bytes_(line_bytes),
      a_ways_(ways)
{
    GALS_ASSERT(ways_ >= 1, "cache needs at least one way");
    GALS_ASSERT(line_bytes_ > 0 && isPowerOfTwo(
                    static_cast<std::uint64_t>(line_bytes_)),
                "line size must be a power of two");
    std::uint64_t way_bytes = size_bytes / static_cast<unsigned>(ways_);
    GALS_ASSERT(way_bytes % static_cast<unsigned>(line_bytes_) == 0,
                "way size not a multiple of the line size");
    num_sets_ = static_cast<int>(way_bytes /
                                 static_cast<unsigned>(line_bytes_));
    GALS_ASSERT(num_sets_ > 0 && isPowerOfTwo(
                    static_cast<std::uint64_t>(num_sets_)),
                "set count must be a positive power of two");
    line_shift_ = 0;
    while ((1 << line_shift_) < line_bytes_)
        ++line_shift_;
    set_shift_ = 0;
    while ((1 << set_shift_) < num_sets_)
        ++set_shift_;

    size_t cells =
        static_cast<size_t>(num_sets_) * static_cast<size_t>(ways_);
    mru_.resize(cells);
    for (size_t i = 0; i < cells; i += static_cast<size_t>(ways_)) {
        for (int w = 0; w < ways_; ++w)
            mru_[i + static_cast<size_t>(w)] =
                static_cast<std::int8_t>(w);
    }
    tag_.assign(cells, 0);
    valid_.assign(cells, 0);
    interval_.mru_hits.assign(static_cast<size_t>(ways_), 0);
}

void
AccountingCache::setPartition(int a_ways, bool b_enabled)
{
    GALS_ASSERT(a_ways >= 1 && a_ways <= ways_,
                "A partition of %d ways outside [1, %d]", a_ways, ways_);
    a_ways_ = a_ways;
    b_enabled_ = b_enabled;
    if (!b_enabled_) {
        // Without a B partition, blocks beyond the A ways are not
        // retained; drop them so they cannot produce phantom hits.
        for (int s = 0; s < num_sets_; ++s) {
            size_t base = static_cast<size_t>(s) *
                          static_cast<size_t>(ways_);
            for (int k = a_ways_; k < ways_; ++k) {
                valid_[base + static_cast<size_t>(
                                  mru_[base + static_cast<size_t>(
                                                  k)])] = 0;
            }
        }
    }
}

int
AccountingCache::setIndex(Addr addr) const
{
    return static_cast<int>((addr >> line_shift_) &
                            static_cast<unsigned>(num_sets_ - 1));
}

Addr
AccountingCache::tagOf(Addr addr) const
{
    return addr >> (line_shift_ + set_shift_);
}

AccessOutcome
AccountingCache::access(Addr addr)
{
    size_t base = static_cast<size_t>(setIndex(addr)) *
                  static_cast<size_t>(ways_);
    std::int8_t *mru = &mru_[base];
    Addr *tags = &tag_[base];
    std::uint8_t *valid = &valid_[base];
    Addr tag = tagOf(addr);

    ++interval_.accesses;
    ++total_accesses_;

    int found_pos = -1;
    for (int k = 0; k < ways_; ++k) {
        int w = mru[k];
        if (valid[w] && tags[w] == tag) {
            found_pos = k;
            break;
        }
    }

    AccessOutcome out{};
    if (found_pos >= 0) {
        out.mru_pos = found_pos;
        if (found_pos < a_ways_) {
            out.where = HitWhere::APartition;
            ++total_a_hits_;
        } else {
            // Without a B partition this cannot happen: blocks beyond
            // the A ways were invalidated at reconfiguration time and
            // evicted on replacement since.
            GALS_ASSERT(b_enabled_, "B-partition hit with B disabled");
            out.where = HitWhere::BPartition;
            ++total_b_hits_;
        }
        ++interval_.mru_hits[static_cast<size_t>(found_pos)];

        // Move to MRU position 0 (this is the A/B swap when the block
        // was in B: the LRU block of A becomes the MRU block of B).
        std::int8_t way = mru[found_pos];
        for (int k = found_pos; k > 0; --k)
            mru[k] = mru[k - 1];
        mru[0] = way;
        return out;
    }

    out.where = HitWhere::Miss;
    out.mru_pos = ways_;
    ++interval_.misses;
    ++total_misses_;

    // Replace the LRU block when B is enabled; with B disabled only
    // the A partition exists, so replace the LRU block *of A* and
    // leave the (invalid) B positions untouched.
    int victim_pos = b_enabled_ ? ways_ - 1 : a_ways_ - 1;
    std::int8_t way = mru[victim_pos];
    tags[way] = tag;
    valid[way] = 1;
    for (int k = victim_pos; k > 0; --k)
        mru[k] = mru[k - 1];
    mru[0] = way;
    return out;
}

bool
AccountingCache::invalidate(Addr addr)
{
    size_t base = static_cast<size_t>(setIndex(addr)) *
                  static_cast<size_t>(ways_);
    Addr tag = tagOf(addr);
    for (int w = 0; w < ways_; ++w) {
        size_t i = base + static_cast<size_t>(w);
        if (valid_[i] && tag_[i] == tag) {
            valid_[i] = 0;
            return true;
        }
    }
    return false;
}

void
AccountingCache::resetInterval()
{
    std::fill(interval_.mru_hits.begin(), interval_.mru_hits.end(), 0);
    interval_.misses = 0;
    interval_.accesses = 0;
}

std::pair<std::uint64_t, std::uint64_t>
AccountingCache::reconstruct(const IntervalCounts &counts, int a_ways)
{
    std::uint64_t a_hits = 0;
    std::uint64_t b_hits = 0;
    for (size_t k = 0; k < counts.mru_hits.size(); ++k) {
        if (static_cast<int>(k) < a_ways)
            a_hits += counts.mru_hits[k];
        else
            b_hits += counts.mru_hits[k];
    }
    return {a_hits, b_hits};
}

} // namespace gals
