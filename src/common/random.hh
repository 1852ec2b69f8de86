/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the simulator (PLL lock times,
 * synthetic workloads) draws from an explicitly seeded Pcg32 stream
 * so that runs are exactly reproducible and independent streams never
 * perturb one another.
 */

#ifndef GALS_COMMON_RANDOM_HH
#define GALS_COMMON_RANDOM_HH

#include <cstdint>

namespace gals
{

/**
 * PCG-XSH-RR 64/32 generator (O'Neill). Small state, good statistical
 * quality, and cheap enough to sit on the workload generation fast path.
 */
class Pcg32
{
  public:
    /** Construct with a seed and an optional independent stream id. */
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** Same state and stream: the two produce the same draws. */
    bool operator==(const Pcg32 &) const = default;

    /** @return the next raw 32-bit draw. */
    std::uint32_t
    next()
    {
        std::uint64_t old = state_;
        state_ = old * 6364136223846793005ULL + inc_;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
    }

    /** @return an unbiased draw in [0, bound). bound must be > 0. */
    std::uint32_t nextBounded(std::uint32_t bound);

    /** @return a draw in [lo, hi] inclusive. */
    int nextRange(int lo, int hi);

    /** @return a uniform double in [0, 1). */
    double nextDouble() { return next() * (1.0 / 4294967296.0); }

    /** @return true with the given probability (clamped to [0,1]). */
    bool
    chance(double probability)
    {
        if (probability <= 0.0)
            return false;
        if (probability >= 1.0)
            return true;
        return nextDouble() < probability;
    }

    /**
     * Threshold form of a uniform roll: `nextDouble() < p` holds
     * exactly when `next() < rollThreshold(p)`. Both u x 2^-32 and
     * p x 2^32 are exact in a double, so u x 2^-32 < p iff the
     * integer u < ceil(p x 2^32), clamped to [0, 2^32] (0 for NaN,
     * which compares false).
     */
    static std::uint64_t rollThreshold(double p);

    /**
     * Threshold form of chance(p), for chanceAt: rollThreshold(p),
     * or a sentinel above 2^32 where chance() takes no draw (p <= 0
     * answers false, p >= 1 true). NaN keeps chance()'s draw that
     * answers false: threshold 0.
     */
    static std::uint64_t chanceThreshold(double p);

    /** chance(p) for `threshold == chanceThreshold(p)`: the same
     * answer and the same draws, without floating point. */
    bool
    chanceAt(std::uint64_t threshold)
    {
        if (threshold > kRollAlways)
            return threshold == kChanceAlways;
        return next() < threshold;
    }

    /**
     * A normal draw via Box-Muller (no cached spare: deterministic
     * stream position regardless of call interleaving).
     */
    double nextGaussian(double mean, double sigma);

  private:
    static constexpr std::uint64_t kRollAlways = 1ULL << 32;
    static constexpr std::uint64_t kChanceNever = kRollAlways + 1;
    static constexpr std::uint64_t kChanceAlways = kRollAlways + 2;

    std::uint64_t state_;
    std::uint64_t inc_;
};

} // namespace gals

#endif // GALS_COMMON_RANDOM_HH
