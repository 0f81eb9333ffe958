/**
 * @file
 * xoshiro256** / splitmix64 implementation.
 */

#include "src/base/random.hh"

#include <algorithm>
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
    return zipfRank(next() >> 11, n, zipfExponent(theta));
}

double
zipfExponent(double theta)
{
    return 1.0 / (1.0 - std::min(theta, 0.99) * 0.999);
}

std::uint64_t
zipfRank(std::uint64_t k, std::uint64_t n, double a)
{
    // Power-law inversion: u in (0,1), rank floor(n * u^a) with a > 1
    // chosen so small ranks dominate. This approximates a Zipf(theta)
    // distribution and preserves its skew profile, which is all
    // footprint modelling needs.
    const double u = static_cast<double>(k > 0 ? k : 1) * 0x1.0p-53;
    const auto rank =
        static_cast<std::uint64_t>(static_cast<double>(n) * std::pow(u, a));
    return rank >= n ? n - 1 : rank;
}

ZipfTable::ZipfTable(std::uint64_t n, double theta) : n_(n), theta_(theta)
{
    if (n == 0 || n > maxTabledRanks || theta <= 0.0)
        return;
    const double a = zipfExponent(theta);
    if (!(a >= minTabledExponent))
        return;

    // reaches(k): zipfRank(k) >= r, false then true along k; the draw
    // 2^53 (one past the last) counts as reaching every rank.
    constexpr std::uint64_t end = std::uint64_t{1} << 53;
    std::uint64_t r = 0;
    const auto reaches = [&](std::uint64_t k) {
        return k >= end || zipfRank(k, n, a) >= r;
    };
    thr_.resize(n + 1);
    thr_[0] = 0;
    for (r = 1; r < n; ++r) {
        // The answer lies in [lo, hi]: every draw below thr[r-1] ranks
        // below r - 1. Start from the analytic inverse, gallop to a
        // bracket around it, then bisect.
        std::uint64_t lo = thr_[r - 1], hi = end;
        const double inverse =
            std::ceil(std::pow(static_cast<double>(r) /
                                   static_cast<double>(n),
                               1.0 / a) *
                      0x1.0p53);
        const std::uint64_t guess = std::clamp(
            inverse < 0x1.0p53 ? static_cast<std::uint64_t>(inverse) : end,
            lo, hi);
        if (reaches(guess)) {
            hi = guess;
            for (std::uint64_t step = 1; hi - lo > step; step *= 2) {
                if (!reaches(hi - step)) {
                    lo = hi - step + 1;
                    break;
                }
                hi -= step;
            }
        } else {
            lo = guess + 1;
            for (std::uint64_t step = 1; hi - guess > step; step *= 2) {
                if (reaches(guess + step)) {
                    hi = guess + step;
                    break;
                }
                lo = guess + step + 1;
            }
        }
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (reaches(mid))
                hi = mid;
            else
                lo = mid + 1;
        }
        thr_[r] = lo;
    }
    thr_[n] = ~std::uint64_t{0};

    start_.resize(std::size_t{1} << bucketBits);
    std::uint64_t rank = 0;
    for (std::size_t b = 0; b < start_.size(); ++b) {
        const std::uint64_t first = std::uint64_t{b} << (53 - bucketBits);
        while (thr_[rank + 1] <= first)
            ++rank;
        start_[b] = static_cast<std::uint16_t>(rank);
    }
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
