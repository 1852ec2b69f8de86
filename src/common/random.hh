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
     * A normal draw via Box-Muller (no cached spare: deterministic
     * stream position regardless of call interleaving).
     */
    double nextGaussian(double mean, double sigma);

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

} // namespace gals

#endif // GALS_COMMON_RANDOM_HH
