/**
 * @file
 * Fixed-bucket histogram for latency / run-length distributions.
 */

#ifndef ISIM_STATS_HISTOGRAM_HH
#define ISIM_STATS_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/ckpt/fwd.hh"

namespace isim {

/**
 * Histogram over [0, bucketWidth * bucketCount) with an overflow
 * bucket; tracks count, sum, min and max so mean and simple quantiles
 * can be reported.
 */
class Histogram
{
  public:
    Histogram() = default;
    Histogram(std::string name, std::uint64_t bucket_width,
              std::size_t bucket_count);

    void sample(std::uint64_t value, std::uint64_t count = 1);

    const std::string &name() const { return name_; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t minValue() const { return count_ ? min_ : 0; }
    std::uint64_t maxValue() const { return max_; }

    std::size_t buckets() const { return counts_.size(); }
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }
    std::uint64_t overflow() const { return overflow_; }

    /**
     * Smallest value v such that at least q of the mass is <= v,
     * resolved to bucket granularity (upper bucket edge). NaN when the
     * quantile is undefined: the histogram is empty, or the requested
     * mass falls inside the overflow bucket, where the histogram has
     * no resolution (reporting max() there would pretend precision
     * the data structure does not have). Tables render NaN as "-".
     */
    double quantile(double q) const;

    void clear();

    /**
     * Accumulate another histogram's samples into this one. The two
     * must share geometry (bucket width and count); fatal on skew.
     * Used by the sampled-simulation controller to pool per-window
     * distribution observations into one run-level histogram.
     */
    void merge(const Histogram &other);

    /**
     * Checkpoint the accumulated samples. The geometry (name, bucket
     * width, bucket count) is configuration, not state: restore
     * verifies it matches and fatals on skew.
     */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    std::string name_;
    std::uint64_t bucketWidth_ = 1;
    std::vector<std::uint64_t> counts_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace isim

#endif // ISIM_STATS_HISTOGRAM_HH
