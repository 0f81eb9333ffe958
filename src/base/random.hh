/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic choice in the simulator draws from an explicitly
 * seeded Rng instance so that whole-simulation runs are reproducible
 * bit-for-bit (required by the trace record/replay tests). The generator
 * is xoshiro256**, seeded via splitmix64 as its authors recommend.
 */

#ifndef ISIM_BASE_RANDOM_HH
#define ISIM_BASE_RANDOM_HH

#include <array>
#include <cstdint>

#include "src/ckpt/fwd.hh"

namespace isim {

/** splitmix64 step; used for seeding and for cheap hash mixing. */
std::uint64_t splitMix64(std::uint64_t &state);

/** Stateless mix of a 64-bit value (finalizer of splitmix64). */
std::uint64_t mix64(std::uint64_t value);

/**
 * xoshiro256** generator. Small, fast, and deterministic across
 * platforms; quality is more than sufficient for workload synthesis.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Re-seed, resetting the stream. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound), bound > 0 (unbiased). */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 random mantissa bits.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

    /**
     * Zipf-like rank in [0, n): rank r is drawn with probability
     * proportional to 1 / (r + 1)^theta. Uses the rejection-inversion
     * free approximation (power-law inversion), adequate for footprint
     * skew modelling.
     */
    std::uint64_t zipf(std::uint64_t n, double theta);

    /** Checkpoint the generator state (position in the stream). */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
};

} // namespace isim

#endif // ISIM_BASE_RANDOM_HH
