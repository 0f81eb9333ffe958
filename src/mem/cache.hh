/**
 * @file
 * A single cache level: tag array plus bookkeeping counters. Hierarchy
 * policy (inclusion, write-backs, coherence) lives in the protocol
 * engine; this class only answers "is it here, in what state" and
 * performs fills / invalidations.
 */

#ifndef ISIM_MEM_CACHE_HH
#define ISIM_MEM_CACHE_HH

#include <cstdint>
#include <string>

#include "src/ckpt/fwd.hh"
#include "src/mem/cache_array.hh"

namespace isim {

namespace stats {
class Registry;
}

/** Per-cache occupancy/traffic counters (not timing). */
struct CacheCounters
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t fills = 0;
    std::uint64_t cleanEvictions = 0;
    std::uint64_t dirtyEvictions = 0;
    std::uint64_t invalidationsReceived = 0;

    std::uint64_t misses() const { return accesses - hits; }
    double hitRate() const
    {
        return accesses ? static_cast<double>(hits) / accesses : 0.0;
    }

    /**
     * Register every counter under `prefix` (e.g. "node0.l2"), plus a
     * hit-rate formula. The struct must outlive the registry.
     */
    void registerStats(stats::Registry &r, const std::string &prefix) const;
};

/**
 * One level of cache. Line addresses only; no data payloads.
 */
class Cache
{
  public:
    Cache(std::string name, const CacheGeometry &geometry);

    const std::string &name() const { return name_; }
    const CacheGeometry &geometry() const { return array_.geometry(); }
    const CacheCounters &counters() const { return counters_; }
    void resetCounters() { counters_ = CacheCounters{}; }
    CacheArray &array() { return array_; }
    const CacheArray &array() const { return array_; }

    /**
     * Demand access. Updates LRU and hit/miss counters. Returns the
     * resident line or nullptr on miss.
     */
    CacheLine *access(Addr line_addr)
    {
        ++counters_.accesses;
        CacheLine *line = array_.findLine(line_addr);
        if (line != nullptr) {
            ++counters_.hits;
            array_.touch(*line);
        }
        return line;
    }

    /** Coherence-side probe: no LRU update, no counters. */
    CacheLine *probe(Addr line_addr) { return array_.findLine(line_addr); }
    const CacheLine *probe(Addr line_addr) const
    {
        return array_.findLine(line_addr);
    }

    /**
     * Install a line in the given state, returning the displaced
     * victim (caller handles write-back / inclusion actions).
     */
    Victim fill(Addr line_addr, LineState state);

    /**
     * Remove the line if present; returns its prior state
     * (Invalid if it was not resident).
     */
    LineState invalidateLine(Addr line_addr);

    /**
     * Downgrade Modified -> Shared if present; returns true if the line
     * was present in Modified state.
     */
    bool downgradeLine(Addr line_addr);

    /** Checkpoint counters and the tag array. */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    // ckpt: transient(name_): construction-time label, identical by contract
    std::string name_;
    CacheArray array_;
    CacheCounters counters_;
};

} // namespace isim

#endif // ISIM_MEM_CACHE_HH
