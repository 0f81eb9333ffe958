/**
 * @file
 * Hierarchical metrics registry (gem5-style): every counter in the
 * simulator is registered under a dotted path ("node0.l2.miss.
 * remote_dirty", "oltp.latch.contended") with a kind, a unit and a
 * one-line description, so a run can emit a self-describing,
 * machine-diffable stats manifest instead of scattering ad-hoc struct
 * dumps. Stats are registered as *getters* over the live component
 * state — the registry owns no counters itself — and components hang
 * reset hooks on it so Machine::resetStats (the warm-up/measure
 * boundary) clears every registered statistic through one call.
 *
 * Kinds:
 *   Counter      monotonic event count (uint64), reset at the window
 *   Gauge        instantaneous level (double), not reset
 *   Distribution summary of a Histogram (count/sum/min/max/quantiles)
 *   Formula      derived ratio evaluated at dump time (MPKI, rates)
 */

#ifndef ISIM_STATS_REGISTRY_HH
#define ISIM_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/stats/histogram.hh"

namespace isim {

class Breakdown;
class JsonWriter;

namespace stats {

enum class Kind : std::uint8_t { Counter, Gauge, Distribution, Formula };

const char *kindName(Kind kind);

/** Summary of a Histogram at snapshot time. */
struct DistSummary
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double p50 = 0.0; //!< NaN when unresolvable (empty / overflow mass)
    double p95 = 0.0;
    double p99 = 0.0;
};

/** One stat's value at snapshot time, with its metadata. */
struct Sample
{
    std::string name;
    std::string desc;
    std::string unit;
    Kind kind = Kind::Counter;
    std::uint64_t u = 0;  //!< Counter value
    double d = 0.0;       //!< Gauge / Formula value (may be NaN)
    DistSummary dist;     //!< Distribution summary
    /**
     * Formula only: true when the value is a run-total (like
     * cpu.exec_time's ticks) rather than a rate or ratio. Sampled runs
     * (docs/SAMPLING.md) expand extensive formulas to run level the
     * way they expand counters; intensive ones are averaged.
     */
    bool extensive = false;

    /** Canonical scalar value (distributions report their count). */
    double number() const;
};

/** A full registry snapshot, sorted by name. */
using Snapshot = std::vector<Sample>;

/** Linear lookup by exact name; nullptr when absent. */
const Sample *findSample(const Snapshot &snapshot,
                         const std::string &name);

/**
 * Serialize a snapshot as one JSON object keyed by stat name:
 *   "cpu.busy": {"kind": "counter", "unit": "ticks",
 *                "desc": "...", "value": 12345}
 * Distribution values are nested objects; undefined quantiles emit
 * null. The caller owns the enclosing document structure.
 */
void writeSnapshotJson(JsonWriter &w, const Snapshot &snapshot);

/** The registry proper. One per Machine; never shared across runs. */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    using CounterFn = std::function<std::uint64_t()>;
    using GaugeFn = std::function<double()>;
    using HistogramFn = std::function<const Histogram &()>;

    Registry &counter(const std::string &name, const std::string &desc,
                      const std::string &unit, CounterFn get);
    Registry &gauge(const std::string &name, const std::string &desc,
                    const std::string &unit, GaugeFn get);
    /**
     * `extensive` marks a formula whose value is a run-total (see
     * Sample::extensive); the default (false) means a rate or ratio.
     */
    Registry &formula(const std::string &name, const std::string &desc,
                      const std::string &unit, GaugeFn get,
                      bool extensive = false);
    Registry &distribution(const std::string &name,
                           const std::string &desc,
                           const std::string &unit, HistogramFn get);

    /**
     * Register one Gauge per component of a Breakdown under
     * `prefix.<label>` plus `prefix.total`. The Breakdown must
     * outlive the registry.
     */
    Registry &breakdown(const std::string &prefix,
                        const std::string &desc,
                        const std::string &unit, const Breakdown &b);

    /** Hook run by resetAll() (warm-up/measure boundary). */
    void onReset(std::function<void()> hook);

    /** Reset every registered component through the hooks. */
    void resetAll();

    std::size_t size() const { return entries_.size(); }

    /**
     * The getter of the Counter registered as `name`, for readers that
     * sample a few counters often (the epoch recorder). Fatal when no
     * such counter exists.
     */
    CounterFn counterSource(const std::string &name) const;

    /** Evaluate every stat; the result is sorted by name. */
    Snapshot snapshot() const;

    /**
     * Visit every Distribution stat's live histogram, in registration
     * order (deterministic). The sampled-simulation controller uses
     * this to pool per-window histograms across measurement windows.
     */
    void forEachDistribution(
        const std::function<void(const std::string &name,
                                 const Histogram &h)> &fn) const;

  private:
    struct Entry
    {
        std::string name;
        std::string desc;
        std::string unit;
        Kind kind = Kind::Counter;
        CounterFn getCounter;
        GaugeFn getGauge;
        HistogramFn getHistogram;
        bool extensive = false; //!< Formula only; see Sample::extensive
    };

    /** Validates the path and rejects duplicates; fatal on misuse. */
    void add(Entry entry);

    std::vector<Entry> entries_;
    std::unordered_set<std::string> names_;
    std::vector<std::function<void()>> resetHooks_;
};

} // namespace stats
} // namespace isim

#endif // ISIM_STATS_REGISTRY_HH
