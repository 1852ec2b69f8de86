/**
 * @file
 * PLL re-lock model for dynamic frequency changes.
 *
 * Per the paper (following the XScale clocking circuits): a frequency
 * change requires the PLL to re-lock for a normally distributed time
 * with mean 15us, clamped to 10-20us, and the domain keeps operating
 * through the change. Structure resizing is ordered against the lock
 * window by the caller: downsize at lock start when speeding up,
 * upsize at lock end when slowing down.
 */

#ifndef GALS_CLOCK_PLL_HH
#define GALS_CLOCK_PLL_HH

#include "common/random.hh"
#include "common/types.hh"

namespace gals
{

/** Parameters of the PLL lock-time distribution. */
struct PllParams
{
    double mean_us = 15.0;  //!< mean lock time.
    double sigma_us = 1.7;  //!< standard deviation.
    double min_us = 10.0;   //!< lower clamp.
    double max_us = 20.0;   //!< upper clamp.
};

/** Lock-time generator and busy state for one domain's PLL. */
class Pll
{
  public:
    explicit Pll(const PllParams &params = {}, std::uint64_t seed = 7);

    /** True while a re-lock is in flight at time `now`. */
    bool busy(Tick now) const { return now < lock_done_; }

    /**
     * Begin a re-lock at `now`; returns its completion time. Must not
     * be called while busy.
     */
    Tick startRelock(Tick now);

    /** Number of re-locks performed. */
    std::uint64_t relocks() const { return relocks_; }

  private:
    PllParams params_;
    Pcg32 rng_;
    Tick lock_done_ = 0;
    std::uint64_t relocks_ = 0;
};

} // namespace gals

#endif // GALS_CLOCK_PLL_HH
