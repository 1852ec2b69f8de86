/**
 * @file
 * McFarling-style hybrid branch predictor, as resized jointly with the
 * I-cache in the paper (Tables 2 and 3).
 *
 * Components:
 *  - gshare: a global branch history table of 2^hg two-bit counters
 *    indexed by the hg-bit global history XORed with the branch PC;
 *  - local: a pattern history table (PHT) of per-branch hl-bit local
 *    histories indexed by PC, selecting into a local BHT of 2^hl
 *    two-bit counters;
 *  - meta: two-bit counters (same count as the gshare table) choosing
 *    between the two components, trained only when they disagree.
 */

#ifndef GALS_PREDICTOR_HYBRID_PREDICTOR_HH
#define GALS_PREDICTOR_HYBRID_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "timing/frequency_model.hh"

namespace gals
{

/** Two-bit saturating counter. */
class SaturatingCounter
{
  public:
    explicit SaturatingCounter(std::uint8_t initial = 1)
        : value_(initial)
    {}

    bool taken() const { return value_ >= 2; }

    void
    update(bool outcome)
    {
        if (outcome) {
            if (value_ < 3)
                ++value_;
        } else {
            if (value_ > 0)
                --value_;
        }
    }

    std::uint8_t raw() const { return value_; }

  private:
    std::uint8_t value_;
};

/** Prediction plus the state needed to train on the outcome. */
struct BranchPrediction
{
    bool taken;         //!< final (meta-selected) direction.
    bool gshare_taken;  //!< gshare component's direction.
    bool local_taken;   //!< local component's direction.
    bool used_local;    //!< which component the meta chose.
};

/** The hybrid predictor. */
class HybridPredictor
{
  public:
    explicit HybridPredictor(const PredictorOrg &org);

    /** Reconfigure to a new organization; all state is cleared. */
    void reconfigure(const PredictorOrg &org);

    /** Predict the direction of the branch at `pc`. */
    BranchPrediction predict(Addr pc) const;

    /**
     * Train on the resolved outcome and update the speculative
     * histories. Returns true when the prediction was correct.
     */
    bool update(Addr pc, const BranchPrediction &pred, bool outcome);

    const PredictorOrg &org() const { return org_; }

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

    /** Zero the lookup/mispredict statistics (not the tables). */
    void resetStats();

  private:
    std::uint32_t gshareIndex(Addr pc) const;
    std::uint32_t metaIndex(Addr pc) const;
    std::uint32_t localPhtIndex(Addr pc) const;

    PredictorOrg org_;
    std::uint32_t global_history_ = 0;

    std::vector<SaturatingCounter> gshare_bht_;
    std::vector<SaturatingCounter> meta_;
    std::vector<std::uint32_t> local_pht_;
    std::vector<SaturatingCounter> local_bht_;

    mutable std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
};

} // namespace gals

#endif // GALS_PREDICTOR_HYBRID_PREDICTOR_HH
