#include "common/random.hh"

#include <cmath>

#include "common/logging.hh"

namespace gals
{

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state_(0), inc_((stream << 1u) | 1u)
{
    next();
    state_ += seed;
    next();
}

std::uint32_t
Pcg32::nextBounded(std::uint32_t bound)
{
    GALS_ASSERT(bound > 0, "nextBounded requires bound > 0");
    // Lemire-style rejection to avoid modulo bias.
    std::uint32_t threshold = (-bound) % bound;
    for (;;) {
        std::uint32_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

int
Pcg32::nextRange(int lo, int hi)
{
    GALS_ASSERT(lo <= hi, "nextRange lo=%d > hi=%d", lo, hi);
    std::uint32_t span = static_cast<std::uint32_t>(hi - lo) + 1u;
    return lo + static_cast<int>(nextBounded(span));
}

std::uint64_t
Pcg32::rollThreshold(double p)
{
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return kRollAlways;
    return static_cast<std::uint64_t>(std::ceil(p * 4294967296.0));
}

std::uint64_t
Pcg32::chanceThreshold(double p)
{
    if (p <= 0.0)
        return kChanceNever;
    if (p >= 1.0)
        return kChanceAlways;
    return rollThreshold(p);
}

double
Pcg32::nextGaussian(double mean, double sigma)
{
    // Box-Muller; draw u1 away from zero to keep log() finite.
    double u1;
    do {
        u1 = nextDouble();
    } while (u1 <= 1e-12);
    double u2 = nextDouble();
    double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + sigma * mag * std::cos(2.0 * M_PI * u2);
}

} // namespace gals
