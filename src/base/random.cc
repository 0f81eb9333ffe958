/**
 * @file
 * xoshiro256** / splitmix64 implementation.
 */

#include "src/base/random.hh"

#include <cmath>

#include "src/base/logging.hh"
#include "src/ckpt/serializer.hh"

namespace isim {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
mix64(std::uint64_t value)
{
    std::uint64_t state = value;
    return splitMix64(state);
}

Rng::Rng(std::uint64_t s)
{
    seed(s);
}

void
Rng::seed(std::uint64_t s)
{
    for (auto &word : state_)
        word = splitMix64(s);
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    isim_assert(bound > 0);
    // Lemire's nearly-divisionless unbiased bounded generation.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        const std::uint64_t threshold = -bound % bound;
        while (lo < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t
Rng::range(std::uint64_t lo, std::uint64_t hi)
{
    isim_assert(lo <= hi);
    return lo + below(hi - lo + 1);
}

double
Rng::exponential(double mean)
{
    isim_assert(mean > 0.0);
    double u = uniform();
    // Guard against log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

std::uint64_t
Rng::zipf(std::uint64_t n, double theta)
{
    isim_assert(n > 0);
    if (theta <= 0.0)
        return below(n);
    // Power-law inversion: draw u in (0,1], return floor(n * u^(1/a))
    // with a chosen so small ranks dominate. This is an approximation of
    // a Zipf(theta) distribution that preserves its skew profile, which
    // is all footprint modelling needs.
    const double a = 1.0 / (1.0 - std::min(theta, 0.99) * 0.999);
    double u = uniform();
    if (u <= 0.0)
        u = 0x1.0p-53;
    auto rank =
        static_cast<std::uint64_t>(static_cast<double>(n) * std::pow(u, a));
    return rank >= n ? n - 1 : rank;
}

void
Rng::saveState(ckpt::Serializer &s) const
{
    for (std::uint64_t word : state_)
        s.u64(word);
}

void
Rng::restoreState(ckpt::Deserializer &d)
{
    for (std::uint64_t &word : state_)
        word = d.u64();
}

} // namespace isim
