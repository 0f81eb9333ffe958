/**
 * @file
 * Sampled-simulation configuration: the user-facing SampleSpec (the
 * --sample-* axis of RunOptions) and the derived SamplePlan the
 * controller executes. A sampled run carves the measurement phase into
 * alternating fast-forward and timing measurement windows (systematic
 * sampling, fixed-interval or random-offset) and reports every stat
 * with a standard error and 95% confidence interval; the estimator and
 * its failure modes are documented in docs/SAMPLING.md.
 */

#ifndef ISIM_SAMPLE_SPEC_HH
#define ISIM_SAMPLE_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>

namespace isim {
namespace sample {

/** How measurement windows are placed inside each sampling period. */
enum class SampleMode : std::uint8_t
{
    Fixed,  //!< window at the end of every period (fixed interval)
    Random, //!< seed-derived random offset within each period
};

const char *sampleModeName(SampleMode mode);
std::optional<SampleMode> sampleModeFromName(const std::string &name);

/** Sentinel for "derive the warm tier length" (see SampleSpec::warm). */
constexpr std::uint64_t kAutoWarm = ~std::uint64_t{0};

/**
 * The sampling axis as configured (RunOptions --sample-* flags).
 * Disabled unless `measure` is set.
 */
struct SampleSpec
{
    /** Fast-forwarded transactions per period (skip + warm tiers). */
    std::uint64_t ff = 0;
    /** Timing-measured transactions per window (0 = sampling off). */
    std::uint64_t measure = 0;
    /** Window count (0 = derive from the measured transaction count). */
    std::uint64_t windows = 0;
    /**
     * Warm-up transactions immediately before each measurement
     * window, re-warming short-history state (latches, buffer-cache
     * and L2 recency) after the functional skip. kAutoWarm derives
     * min(ff, measure); `ff` warms through the whole fast-forward.
     */
    std::uint64_t warm = kAutoWarm;
    SampleMode mode = SampleMode::Fixed;

    bool enabled() const { return measure != 0; }

    /** The warm tier actually run (resolves kAutoWarm). */
    std::uint64_t resolvedWarm() const;

    /**
     * Fail fast on degenerate configurations: --sample-* without
     * --sample-measure, measure without ff, a single window, or a
     * warm tier longer than the fast-forward.
     */
    void validate() const;
};

/** The schedule a sampled run executes, fully resolved. */
struct SamplePlan
{
    std::uint64_t ff = 0;
    std::uint64_t measure = 0;
    std::uint64_t warm = 0;
    std::uint64_t windows = 0;
    SampleMode mode = SampleMode::Fixed;
};

/**
 * Resolve a spec against the run's measured transaction count:
 * windows default to txns / (ff + measure), and the schedule must fit
 * (windows * (ff + measure) <= txns, at least 2 windows). Fatal on a
 * spec that cannot produce a confidence interval.
 */
SamplePlan derivePlan(const SampleSpec &spec, std::uint64_t txns);

} // namespace sample
} // namespace isim

#endif // ISIM_SAMPLE_SPEC_HH
