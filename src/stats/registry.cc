/**
 * @file
 * Metrics registry implementation.
 */

#include "src/stats/registry.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/base/json.hh"
#include "src/base/logging.hh"

namespace isim {
namespace stats {

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Counter:
        return "counter";
      case Kind::Gauge:
        return "gauge";
      case Kind::Distribution:
        return "distribution";
      case Kind::Formula:
        return "formula";
    }
    isim_panic("unknown stat kind %d", static_cast<int>(kind));
}

double
Sample::number() const
{
    switch (kind) {
      case Kind::Counter:
        return static_cast<double>(u);
      case Kind::Distribution:
        return static_cast<double>(dist.count);
      case Kind::Gauge:
      case Kind::Formula:
        return d;
    }
    return d;
}

const Sample *
findSample(const Snapshot &snapshot, const std::string &name)
{
    for (const auto &s : snapshot)
        if (s.name == name)
            return &s;
    return nullptr;
}

namespace {

/**
 * Dotted paths only: lowercase alnum segments (plus '_' and '-'),
 * separated by single dots. Rejecting anything else keeps stat names
 * grep-able and stable across tools.
 */
bool
validStatName(const std::string &name)
{
    if (name.empty() || name.front() == '.' || name.back() == '.')
        return false;
    char prev = '.';
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                        c == '_' || c == '-' || c == '.';
        if (!ok)
            return false;
        if (c == '.' && prev == '.')
            return false;
        prev = c;
    }
    return true;
}

void
writeNumber(JsonWriter &w, double v)
{
    // Integral values print without a fraction so counters stay exact.
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
        if (v >= 0)
            w.value(static_cast<std::uint64_t>(v));
        else
            w.value(static_cast<std::int64_t>(v));
    } else {
        w.value(v, 6);
    }
}

} // namespace

void
Registry::add(Entry entry)
{
    if (!validStatName(entry.name))
        isim_fatal("invalid stat name '%s' (want dotted lowercase path)",
                   entry.name.c_str());
    if (!names_.insert(entry.name).second)
        isim_fatal("duplicate stat name '%s'", entry.name.c_str());
    entries_.push_back(std::move(entry));
}

Registry &
Registry::counter(const std::string &name, const std::string &desc,
                  const std::string &unit, CounterFn get)
{
    isim_assert(get != nullptr);
    Entry e;
    e.name = name;
    e.desc = desc;
    e.unit = unit;
    e.kind = Kind::Counter;
    e.getCounter = std::move(get);
    add(std::move(e));
    return *this;
}

Registry &
Registry::gauge(const std::string &name, const std::string &desc,
                const std::string &unit, GaugeFn get)
{
    isim_assert(get != nullptr);
    Entry e;
    e.name = name;
    e.desc = desc;
    e.unit = unit;
    e.kind = Kind::Gauge;
    e.getGauge = std::move(get);
    add(std::move(e));
    return *this;
}

Registry &
Registry::formula(const std::string &name, const std::string &desc,
                  const std::string &unit, GaugeFn get, bool extensive)
{
    isim_assert(get != nullptr);
    Entry e;
    e.name = name;
    e.desc = desc;
    e.unit = unit;
    e.kind = Kind::Formula;
    e.getGauge = std::move(get);
    e.extensive = extensive;
    add(std::move(e));
    return *this;
}

Registry &
Registry::distribution(const std::string &name, const std::string &desc,
                       const std::string &unit, HistogramFn get)
{
    isim_assert(get != nullptr);
    Entry e;
    e.name = name;
    e.desc = desc;
    e.unit = unit;
    e.kind = Kind::Distribution;
    e.getHistogram = std::move(get);
    add(std::move(e));
    return *this;
}

void
Registry::onReset(std::function<void()> hook)
{
    isim_assert(hook != nullptr);
    resetHooks_.push_back(std::move(hook));
}

void
Registry::resetAll()
{
    for (auto &hook : resetHooks_)
        hook();
}

Registry::CounterFn
Registry::counterSource(const std::string &name) const
{
    for (const auto &e : entries_) {
        if (e.name == name && e.kind == Kind::Counter)
            return e.getCounter;
    }
    isim_fatal("no counter stat named '%s'", name.c_str());
}

Snapshot
Registry::snapshot() const
{
    Snapshot out;
    out.reserve(entries_.size());
    for (const auto &e : entries_) {
        Sample s;
        s.name = e.name;
        s.desc = e.desc;
        s.unit = e.unit;
        s.kind = e.kind;
        s.extensive = e.extensive;
        switch (e.kind) {
          case Kind::Counter:
            s.u = e.getCounter();
            break;
          case Kind::Gauge:
          case Kind::Formula:
            s.d = e.getGauge();
            break;
          case Kind::Distribution: {
            const Histogram &h = e.getHistogram();
            s.dist.count = h.count();
            s.dist.sum = h.sum();
            s.dist.mean = h.mean();
            s.dist.min = h.minValue();
            s.dist.max = h.maxValue();
            s.dist.p50 = h.quantile(0.50);
            s.dist.p95 = h.quantile(0.95);
            s.dist.p99 = h.quantile(0.99);
            break;
          }
        }
        out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end(),
              [](const Sample &a, const Sample &b) { return a.name < b.name; });
    return out;
}

void
Registry::forEachDistribution(
    const std::function<void(const std::string &name,
                             const Histogram &h)> &fn) const
{
    for (const auto &e : entries_) {
        if (e.kind == Kind::Distribution)
            fn(e.name, e.getHistogram());
    }
}

void
writeSnapshotJson(JsonWriter &w, const Snapshot &snapshot)
{
    w.beginObject();
    for (const auto &s : snapshot) {
        w.key(s.name);
        w.beginObject();
        w.kv("kind", kindName(s.kind));
        w.kv("unit", s.unit);
        w.kv("desc", s.desc);
        w.key("value");
        switch (s.kind) {
          case Kind::Counter:
            w.value(s.u);
            break;
          case Kind::Gauge:
          case Kind::Formula:
            writeNumber(w, s.d);
            break;
          case Kind::Distribution:
            w.beginObject();
            w.kv("count", s.dist.count);
            w.key("sum");
            writeNumber(w, s.dist.sum);
            w.key("mean");
            writeNumber(w, s.dist.mean);
            w.kv("min", s.dist.min);
            w.kv("max", s.dist.max);
            w.key("p50");
            writeNumber(w, s.dist.p50);
            w.key("p95");
            writeNumber(w, s.dist.p95);
            w.key("p99");
            writeNumber(w, s.dist.p99);
            w.endObject();
            break;
        }
        w.endObject();
    }
    w.endObject();
}

} // namespace stats
} // namespace isim
