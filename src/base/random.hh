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
#include <vector>

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

    /**
     * Zipf-like rank in [0, n): rank r is drawn with probability
     * proportional to 1 / (r + 1)^theta. Uses the rejection-inversion
     * free approximation (power-law inversion, zipfRank), adequate for
     * footprint skew modelling. One std::pow per draw: the simulator's
     * hot paths draw through a ZipfTable, which returns the same ranks
     * from the same stream; this is the reference.
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

/** Exponent `a` of Rng::zipf's power-law inversion for a skew theta > 0. */
double zipfExponent(double theta);

/**
 * Rng::zipf's rank for the 53-bit draw `k` (`next() >> 11`) over n
 * ranks with exponent `a`: min(n-1, floor(n * pow(max(k,1) * 2^-53, a))).
 * The one definition of the skewed draw; ZipfTable is its inverse.
 */
std::uint64_t zipfRank(std::uint64_t k, std::uint64_t n, double a);

/**
 * Rng::zipf(n, theta) without std::pow: the exact inverse of zipfRank,
 * built once per (n, theta). thr[r] is the least 53-bit draw whose rank
 * is >= r, and a 4096-entry array holds the rank at the start of each
 * bucket (the draw's top 12 bits). A draw takes the one next() that
 * Rng::zipf takes, looks up its bucket's start rank and scans thr
 * forward, so ranks and generator state equal Rng::zipf's.
 *
 * Why it is exact: zipfRank is a monotone step function of k whenever
 * the computed pow(u, a) is increasing on the 2^-53 grid of u, because
 * the product with n, the floor and the min are monotone. One grid step
 * raises u^a by a * u^(a-1) * 2^-53 or more (u^a is convex), which is at
 * least a/(2u) >= a/2 ULP of u^a since u < 1. glibc's pow (2.28 and
 * later) is within 0.52 ULP, so the computed pow increases strictly
 * wherever a >= 2.08 (theta >= 0.52; the default skews 0.6-0.9 give a =
 * 2.5-9.9). Below the normal range n * u^a < 1 and the rank is 0 on both
 * sides. The thresholds are then found by bisection on zipfRank itself,
 * so the table is derived from the formula, not a second model. The
 * table falls back to Rng::zipf for theta <= 0 (its uniform below(n)
 * path), a < 2.08, and n above 65536 (or 0).
 */
class ZipfTable
{
  public:
    ZipfTable(std::uint64_t n, double theta);

    /** One draw: Rng::zipf(n, theta)'s rank and stream, exactly. */
    std::uint64_t operator()(Rng &rng) const
    {
        if (thr_.empty()) [[unlikely]]
            return rng.zipf(n_, theta_);
        const std::uint64_t k = rng.next() >> 11;
        std::uint64_t r = start_[k >> (53 - bucketBits)];
        while (thr_[r + 1] <= k)
            ++r;
        return r;
    }

    std::uint64_t ranks() const { return n_; }
    double theta() const { return theta_; }
    /** False when draws fall back to Rng::zipf. */
    bool tabled() const { return !thr_.empty(); }
    /** Least 53-bit draw whose rank is >= r, for r in [0, n); tabled only. */
    std::uint64_t threshold(std::uint64_t r) const { return thr_[r]; }

  private:
    static constexpr unsigned bucketBits = 12;
    static constexpr std::uint64_t maxTabledRanks = 65536;
    static constexpr double minTabledExponent = 2.08;

    std::uint64_t n_;
    double theta_;
    /** n + 1 entries; thr_[n] is a sentinel above every draw. */
    std::vector<std::uint64_t> thr_;
    /** Rank at each bucket's first draw (ranks fit 16 bits when tabled). */
    std::vector<std::uint16_t> start_;
};

} // namespace isim

#endif // ISIM_BASE_RANDOM_HH
