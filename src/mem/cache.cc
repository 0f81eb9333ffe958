/**
 * @file
 * Cache level implementation.
 */

#include "src/mem/cache.hh"

#include <utility>

#include "src/ckpt/serializer.hh"
#include "src/stats/registry.hh"

namespace isim {

void
CacheCounters::registerStats(stats::Registry &r,
                             const std::string &prefix) const
{
    const CacheCounters *c = this;
    r.counter(prefix + ".accesses", "demand accesses", "ops",
              [c] { return c->accesses; });
    r.counter(prefix + ".hits", "demand hits", "ops",
              [c] { return c->hits; });
    r.counter(prefix + ".fills", "lines installed", "lines",
              [c] { return c->fills; });
    r.counter(prefix + ".clean_evictions", "clean lines displaced",
              "lines", [c] { return c->cleanEvictions; });
    r.counter(prefix + ".dirty_evictions", "dirty lines displaced",
              "lines", [c] { return c->dirtyEvictions; });
    r.counter(prefix + ".invals_received",
              "coherence invalidations received", "ops",
              [c] { return c->invalidationsReceived; });
    r.formula(prefix + ".hit_rate", "demand hit rate", "ratio",
              [c] { return c->hitRate(); });
}

Cache::Cache(std::string name, const CacheGeometry &geometry)
    : name_(std::move(name)), array_(geometry)
{
}

Victim
Cache::fill(Addr line_addr, LineState state)
{
    ++counters_.fills;
    Victim victim;
    array_.allocate(line_addr, state, victim);
    if (victim.valid) {
        if (victim.state == LineState::Modified)
            ++counters_.dirtyEvictions;
        else
            ++counters_.cleanEvictions;
    }
    return victim;
}

LineState
Cache::invalidateLine(Addr line_addr)
{
    CacheLine *line = array_.findLine(line_addr);
    if (line == nullptr)
        return LineState::Invalid;
    const LineState prior = line->state;
    ++counters_.invalidationsReceived;
    array_.invalidate(*line);
    return prior;
}

bool
Cache::downgradeLine(Addr line_addr)
{
    CacheLine *line = array_.findLine(line_addr);
    if (line == nullptr || line->state != LineState::Modified)
        return false;
    line->state = LineState::Shared;
    return true;
}

void
Cache::saveState(ckpt::Serializer &s) const
{
    s.u64(counters_.accesses);
    s.u64(counters_.hits);
    s.u64(counters_.fills);
    s.u64(counters_.cleanEvictions);
    s.u64(counters_.dirtyEvictions);
    s.u64(counters_.invalidationsReceived);
    array_.saveState(s);
}

void
Cache::restoreState(ckpt::Deserializer &d)
{
    counters_.accesses = d.u64();
    counters_.hits = d.u64();
    counters_.fills = d.u64();
    counters_.cleanEvictions = d.u64();
    counters_.dirtyEvictions = d.u64();
    counters_.invalidationsReceived = d.u64();
    array_.restoreState(d);
}

} // namespace isim
