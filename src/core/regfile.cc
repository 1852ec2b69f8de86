#include "core/regfile.hh"

#include "common/logging.hh"

namespace gals
{

RegisterFiles::RegisterFiles(int phys_int, int phys_fp)
{
    GALS_ASSERT(phys_int > kNumIntRegs && phys_fp > kNumFpRegs,
                "physical files must exceed the logical registers");
    int_state_.resize(static_cast<size_t>(phys_int));
    fp_state_.resize(static_cast<size_t>(phys_fp));
    map_.resize(kNumLogicalRegs);

    // Initial mapping: logical i -> physical i; the rest are free.
    // Logical 0 (int zero) and kFirstFpReg (fp zero) stay unmapped.
    for (int l = 0; l < kNumIntRegs; ++l) {
        if (l == kZeroReg)
            map_[static_cast<size_t>(l)] = PhysRef{-1, false};
        else
            map_[static_cast<size_t>(l)] =
                PhysRef{static_cast<std::int16_t>(l), false};
    }
    for (int l = 0; l < kNumFpRegs; ++l) {
        int logical = kFirstFpReg + l;
        if (l == 0)
            map_[static_cast<size_t>(logical)] = PhysRef{-1, true};
        else
            map_[static_cast<size_t>(logical)] =
                PhysRef{static_cast<std::int16_t>(l), true};
    }
    for (int p = kNumIntRegs; p < phys_int; ++p)
        free_int_.push_back(static_cast<std::int16_t>(p));
    for (int p = kNumFpRegs; p < phys_fp; ++p)
        free_fp_.push_back(static_cast<std::int16_t>(p));
}

bool
RegisterFiles::canAlloc(bool fp) const
{
    return fp ? !free_fp_.empty() : !free_int_.empty();
}

PhysRef
RegisterFiles::lookup(int logical) const
{
    GALS_ASSERT(logical >= 0 && logical < kNumLogicalRegs,
                "logical register %d out of range", logical);
    return map_[static_cast<size_t>(logical)];
}

std::pair<PhysRef, PhysRef>
RegisterFiles::renameDest(int logical)
{
    GALS_ASSERT(logical > 0 && logical < kNumLogicalRegs &&
                    logical != kFirstFpReg,
                "cannot rename the zero register (%d)", logical);
    bool fp = logical >= kFirstFpReg;
    auto &free_list = fp ? free_fp_ : free_int_;
    GALS_ASSERT(!free_list.empty(), "rename with empty free list");

    PhysRef fresh{free_list.back(), fp};
    free_list.pop_back();
    PhysRef old = map_[static_cast<size_t>(logical)];
    map_[static_cast<size_t>(logical)] = fresh;
    return {fresh, old};
}

void
RegisterFiles::release(PhysRef ref)
{
    if (ref.index < 0)
        return;
    auto &state = ref.fp ? fp_state_ : int_state_;
    state[static_cast<size_t>(ref.index)].pending = false;
    (ref.fp ? free_fp_ : free_int_).push_back(ref.index);
}

void
RegisterFiles::markPending(PhysRef ref)
{
    if (ref.index < 0)
        return;
    auto &state = ref.fp ? fp_state_ : int_state_;
    state[static_cast<size_t>(ref.index)].pending = true;
}

void
RegisterFiles::complete(PhysRef ref, Tick when, DomainId producer)
{
    if (ref.index < 0)
        return;
    auto &state = ref.fp ? fp_state_ : int_state_;
    PhysRegState &s = state[static_cast<size_t>(ref.index)];
    s.pending = false;
    s.ready_at = when;
    s.producer = producer;
}

bool
RegisterFiles::checkConsistent() const
{
    auto checkFile = [&](bool fp) {
        const auto &state = fp ? fp_state_ : int_state_;
        const auto &free_list = fp ? free_fp_ : free_int_;
        if (free_list.size() > state.size())
            return false;
        // 0 = unseen, 1 = free-listed, 2 = mapped.
        std::vector<std::uint8_t> seen(state.size(), 0);
        for (std::int16_t idx : free_list) {
            if (idx < 0 || static_cast<size_t>(idx) >= state.size())
                return false;
            if (seen[static_cast<size_t>(idx)] != 0)
                return false; // double free.
            seen[static_cast<size_t>(idx)] = 1;
        }
        for (const PhysRef &ref : map_) {
            if (ref.fp != fp || ref.index < 0)
                continue;
            if (static_cast<size_t>(ref.index) >= state.size())
                return false;
            if (seen[static_cast<size_t>(ref.index)] != 0)
                return false; // mapped twice, or mapped and free.
            seen[static_cast<size_t>(ref.index)] = 2;
        }
        return true;
    };
    return checkFile(false) && checkFile(true);
}

const PhysRegState &
RegisterFiles::state(PhysRef ref) const
{
    static const PhysRegState always_ready{};
    if (ref.index < 0)
        return always_ready;
    const auto &state = ref.fp ? fp_state_ : int_state_;
    return state[static_cast<size_t>(ref.index)];
}

} // namespace gals
