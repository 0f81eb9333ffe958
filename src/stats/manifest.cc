/**
 * @file
 * Stats manifest serialization, flattening and diffing.
 */

#include "src/stats/manifest.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "src/base/json.hh"
#include "src/base/logging.hh"
#include "src/ckpt/serializer.hh"

namespace isim {
namespace stats {

namespace {

void
writeBarMeta(JsonWriter &w, const BarMeta &meta)
{
    w.beginObject();
    w.kv("key", meta.key);
    w.kv("config_digest", meta.configDigest);
    w.kv("seed", meta.seed);
    w.kv("schema_version", meta.schemaVersion);
    if (meta.simWallMs >= 0.0)
        w.kv("sim_wall_ms", meta.simWallMs, 4);
    if (!meta.status.empty())
        w.kv("status", meta.status);
    if (!meta.sampleMode.empty()) {
        w.kv("sample_mode", meta.sampleMode);
        w.kv("sample_ff", meta.sampleFf);
        w.kv("sample_measure", meta.sampleMeasure);
        w.kv("sample_warm", meta.sampleWarm);
        w.kv("sample_windows", meta.sampleWindows);
    }
    w.endObject();
}

void
writeSampling(JsonWriter &w, const sample::SampleReport &s)
{
    w.beginObject();
    w.kv("mode", sample::sampleModeName(s.mode));
    w.kv("ff", s.ff);
    w.kv("measure", s.measure);
    w.kv("warm", s.warm);
    w.kv("windows", s.windows);
    w.kv("covered", s.covered);
    w.key("stats");
    w.beginObject();
    for (const auto &ci : s.stats) {
        w.key(ci.name);
        w.beginObject();
        w.kv("sem", ci.sem, 6);
        w.kv("ci95", ci.ci95, 6);
        w.kv("windows", s.windows);
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

void
writeEpochRow(JsonWriter &w, const EpochRow &row)
{
    w.beginObject();
    w.kv("epoch", row.epoch);
    w.kv("start", row.start);
    w.kv("end", row.end);
    for (std::size_t i = 0; i < numEpochColumns; ++i)
        w.kv(epochColumns[i].manifest, row.delta[i]);
    w.kv("tps", row.tps(), 4);
    w.endObject();
}

/** Append a flattened leaf unless its value is absent (null / NaN). */
void
pushLeaf(std::vector<FlatStat> &out, const std::string &path,
         const JsonValue &v)
{
    if (v.isNull())
        return;
    isim_assert(v.isNumber(), "stat leaf '%s' is not a number",
                path.c_str());
    if (!std::isfinite(v.number))
        return;
    out.push_back({path, v.number});
}

} // namespace

std::string
hex64(std::uint64_t v)
{
    static const char *kDigits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
        v >>= 4;
    }
    return out;
}

std::string
resultKey(const std::vector<std::uint8_t> &config_bytes,
          std::uint64_t seed)
{
    std::vector<std::uint8_t> bytes = config_bytes;
    for (int i = 0; i < 8; ++i)
        bytes.push_back(static_cast<std::uint8_t>(seed >> (8 * i)));
    const auto version = static_cast<std::uint32_t>(kManifestVersion);
    for (int i = 0; i < 4; ++i)
        bytes.push_back(static_cast<std::uint8_t>(version >> (8 * i)));
    return hex64(ckpt::fnv1a64(bytes.data(), bytes.size()));
}

std::string
resultKey(const std::vector<std::uint8_t> &config_bytes,
          std::uint64_t seed, const sample::SampleSpec &sample)
{
    if (!sample.enabled())
        return resultKey(config_bytes, seed);
    std::vector<std::uint8_t> bytes = config_bytes;
    // Tag byte separates the sampled namespace from any future
    // appended axis, then the resolved schedule (LE) and mode.
    bytes.push_back(0x51); // 'Q'
    const auto push64 = [&bytes](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    push64(sample.ff);
    push64(sample.measure);
    push64(sample.resolvedWarm());
    push64(sample.windows);
    bytes.push_back(static_cast<std::uint8_t>(sample.mode));
    return resultKey(bytes, seed);
}

std::string
configDigest(const std::vector<std::uint8_t> &config_bytes)
{
    return hex64(
        ckpt::fnv1a64(config_bytes.data(), config_bytes.size()));
}

std::string
manifestToJson(const Manifest &m)
{
    std::ostringstream os;
    // prettyDepth 3: one line per bar-level key and per stat entry,
    // inline below that — diffable without being enormous.
    JsonWriter w(os, 3);
    w.beginObject();
    w.kv("schema", kManifestSchema);
    w.kv("version", kManifestVersion);
    w.kv("figure", m.figure);
    w.kv("title", m.title);
    w.key("bars");
    w.beginArray();
    for (const auto &bar : m.bars) {
        w.beginObject();
        w.kv("name", bar.name);
        if (bar.meta.present) {
            w.key("meta");
            writeBarMeta(w, bar.meta);
        }
        w.key("stats");
        writeSnapshotJson(w, bar.stats);
        if (bar.sampling.enabled) {
            w.key("sampling");
            writeSampling(w, bar.sampling);
        }
        if (!bar.epochs.empty()) {
            w.key("epochs");
            w.beginArray();
            for (const auto &row : bar.epochs)
                writeEpochRow(w, row);
            w.endArray();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    return os.str();
}

std::vector<FlatStat>
flattenManifest(const JsonValue &doc)
{
    if (!doc.isObject())
        isim_fatal("stats manifest: document is not a JSON object");
    const JsonValue *schema = doc.get("schema");
    if (!schema || !schema->isString() || schema->text != kManifestSchema)
        isim_fatal("stats manifest: missing or wrong \"schema\" "
                   "(want \"%s\")",
                   kManifestSchema);
    const JsonValue &version = doc.at("version");
    if (!version.isNumber() ||
        static_cast<int>(version.number) > kManifestVersion) {
        isim_fatal("stats manifest: unsupported schema version %g "
                   "(this build understands <= %d)",
                   version.number, kManifestVersion);
    }

    std::vector<FlatStat> out;
    const JsonValue &bars = doc.at("bars");
    isim_assert(bars.isArray(), "stats manifest: \"bars\" is not an array");
    for (const JsonValue &bar : bars.array) {
        const std::string &barName = bar.at("name").text;
        const JsonValue &statsObj = bar.at("stats");
        isim_assert(statsObj.isObject());
        for (const auto &member : statsObj.members) {
            const std::string path = barName + "/" + member.first;
            const JsonValue &value = member.second.at("value");
            if (value.isObject()) {
                // Distribution: one leaf per summary field.
                for (const auto &field : value.members)
                    pushLeaf(out, path + "." + field.first, field.second);
            } else {
                pushLeaf(out, path, value);
            }
        }
    }
    std::sort(out.begin(), out.end(),
              [](const FlatStat &x, const FlatStat &y) {
                  return x.path < y.path;
              });
    return out;
}

std::vector<BarMetaView>
manifestMeta(const JsonValue &doc)
{
    std::vector<BarMetaView> out;
    if (!doc.isObject())
        return out;
    const JsonValue *bars = doc.get("bars");
    if (bars == nullptr || !bars->isArray())
        return out;
    for (const JsonValue &bar : bars->array) {
        const JsonValue *meta = bar.get("meta");
        if (meta == nullptr || !meta->isObject())
            continue;
        BarMetaView view;
        const JsonValue *name = bar.get("name");
        view.bar = name != nullptr && name->isString() ? name->text : "";
        view.meta.present = true;
        if (const JsonValue *v = meta->get("key");
            v != nullptr && v->isString()) {
            view.meta.key = v->text;
        }
        if (const JsonValue *v = meta->get("config_digest");
            v != nullptr && v->isString()) {
            view.meta.configDigest = v->text;
        }
        if (const JsonValue *v = meta->get("seed");
            v != nullptr && v->isNumber()) {
            view.meta.seed = static_cast<std::uint64_t>(v->number);
        }
        if (const JsonValue *v = meta->get("schema_version");
            v != nullptr && v->isNumber()) {
            view.meta.schemaVersion = static_cast<int>(v->number);
        }
        if (const JsonValue *v = meta->get("sim_wall_ms");
            v != nullptr && v->isNumber()) {
            view.meta.simWallMs = v->number;
        } else if (const JsonValue *w = meta->get("wall_ms");
                   w != nullptr && w->isNumber()) {
            // Version-1 manifests: "wall_ms" carried simulated ms.
            view.meta.simWallMs = w->number;
        }
        if (const JsonValue *v = meta->get("status");
            v != nullptr && v->isString()) {
            view.meta.status = v->text;
        }
        if (const JsonValue *v = meta->get("sample_mode");
            v != nullptr && v->isString()) {
            view.meta.sampleMode = v->text;
        }
        if (const JsonValue *v = meta->get("sample_ff");
            v != nullptr && v->isNumber()) {
            view.meta.sampleFf = static_cast<std::uint64_t>(v->number);
        }
        if (const JsonValue *v = meta->get("sample_measure");
            v != nullptr && v->isNumber()) {
            view.meta.sampleMeasure =
                static_cast<std::uint64_t>(v->number);
        }
        if (const JsonValue *v = meta->get("sample_warm");
            v != nullptr && v->isNumber()) {
            view.meta.sampleWarm = static_cast<std::uint64_t>(v->number);
        }
        if (const JsonValue *v = meta->get("sample_windows");
            v != nullptr && v->isNumber()) {
            view.meta.sampleWindows =
                static_cast<std::uint64_t>(v->number);
        }
        out.push_back(std::move(view));
    }
    return out;
}

std::vector<FlatStat>
flattenCi95(const JsonValue &doc)
{
    std::vector<FlatStat> out;
    if (!doc.isObject())
        return out;
    const JsonValue *bars = doc.get("bars");
    if (bars == nullptr || !bars->isArray())
        return out;
    for (const JsonValue &bar : bars->array) {
        const JsonValue *sampling = bar.get("sampling");
        if (sampling == nullptr || !sampling->isObject())
            continue;
        const JsonValue *stats = sampling->get("stats");
        if (stats == nullptr || !stats->isObject())
            continue;
        const JsonValue *name = bar.get("name");
        const std::string barName =
            name != nullptr && name->isString() ? name->text : "";
        for (const auto &member : stats->members) {
            const JsonValue *ci = member.second.get("ci95");
            if (ci == nullptr || !ci->isNumber() ||
                !std::isfinite(ci->number)) {
                continue;
            }
            out.push_back({barName + "/" + member.first, ci->number});
        }
    }
    std::sort(out.begin(), out.end(),
              [](const FlatStat &x, const FlatStat &y) {
                  return x.path < y.path;
              });
    return out;
}

std::vector<std::string>
manifestGaugePaths(const JsonValue &doc)
{
    std::vector<std::string> out;
    if (!doc.isObject())
        return out;
    const JsonValue *bars = doc.get("bars");
    if (bars == nullptr || !bars->isArray())
        return out;
    for (const JsonValue &bar : bars->array) {
        const JsonValue *statsObj = bar.get("stats");
        if (statsObj == nullptr || !statsObj->isObject())
            continue;
        const JsonValue *name = bar.get("name");
        const std::string barName =
            name != nullptr && name->isString() ? name->text : "";
        for (const auto &member : statsObj->members) {
            const JsonValue *kind = member.second.get("kind");
            if (kind != nullptr && kind->isString() &&
                kind->text == "gauge") {
                out.push_back(barName + "/" + member.first);
            }
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<FlatStat>
dropPaths(const std::vector<FlatStat> &flat,
          const std::vector<std::string> &paths)
{
    std::vector<FlatStat> out;
    out.reserve(flat.size());
    for (const FlatStat &s : flat) {
        if (!std::binary_search(paths.begin(), paths.end(), s.path))
            out.push_back(s);
    }
    return out;
}

bool
manifestHasSampling(const JsonValue &doc)
{
    if (!doc.isObject())
        return false;
    const JsonValue *bars = doc.get("bars");
    if (bars == nullptr || !bars->isArray())
        return false;
    for (const JsonValue &bar : bars->array) {
        const JsonValue *sampling = bar.get("sampling");
        if (sampling != nullptr && sampling->isObject())
            return true;
    }
    return false;
}

DiffResult
diffFlattened(const std::vector<FlatStat> &a, const std::vector<FlatStat> &b,
              double tolerance)
{
    DiffResult result;
    std::size_t i = 0;
    std::size_t j = 0;
    // Both inputs are sorted by path (flattenManifest's contract).
    while (i < a.size() || j < b.size()) {
        if (j >= b.size() || (i < a.size() && a[i].path < b[j].path)) {
            result.onlyA.push_back(a[i].path);
            ++i;
        } else if (i >= a.size() || b[j].path < a[i].path) {
            result.onlyB.push_back(b[j].path);
            ++j;
        } else {
            const double va = a[i].value;
            const double vb = b[j].value;
            const double mag = std::max(std::fabs(va), std::fabs(vb));
            const double rel = mag > 0.0 ? std::fabs(vb - va) / mag : 0.0;
            if (rel > tolerance)
                result.diffs.push_back({a[i].path, va, vb, rel});
            ++i;
            ++j;
        }
    }
    return result;
}

namespace {

/** Binary search a sorted (path, value) list; NaN when absent. */
double
lookupFlat(const std::vector<FlatStat> &list, const std::string &path,
           bool *found)
{
    const auto it = std::lower_bound(
        list.begin(), list.end(), path,
        [](const FlatStat &s, const std::string &p) {
            return s.path < p;
        });
    if (it == list.end() || it->path != path) {
        *found = false;
        return 0.0;
    }
    *found = true;
    return it->value;
}

/** Distribution order-statistic fields: no interval-batch CI exists. */
bool
isOrderStatField(const std::string &path)
{
    for (const char *suffix : {".min", ".max", ".p50", ".p95", ".p99"}) {
        const std::size_t n = std::strlen(suffix);
        if (path.size() >= n &&
            path.compare(path.size() - n, n, suffix) == 0) {
            return true;
        }
    }
    return false;
}

} // namespace

DiffResult
diffFlattenedCi(const std::vector<FlatStat> &a,
                const std::vector<FlatStat> &b,
                const std::vector<FlatStat> &ci_a,
                const std::vector<FlatStat> &ci_b, bool any_sampled,
                double tolerance)
{
    DiffResult result;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() || j < b.size()) {
        if (j >= b.size() || (i < a.size() && a[i].path < b[j].path)) {
            if (!(any_sampled && isOrderStatField(a[i].path)))
                result.onlyA.push_back(a[i].path);
            ++i;
        } else if (i >= a.size() || b[j].path < a[i].path) {
            if (!(any_sampled && isOrderStatField(b[j].path)))
                result.onlyB.push_back(b[j].path);
            ++j;
        } else {
            const std::string &path = a[i].path;
            const double va = a[i].value;
            const double vb = b[j].value;
            ++i;
            ++j;
            if (any_sampled && isOrderStatField(path))
                continue;
            bool hasA = false;
            bool hasB = false;
            const double ca = lookupFlat(ci_a, path, &hasA);
            const double cb = lookupFlat(ci_b, path, &hasB);
            const double delta = std::fabs(vb - va);
            const double mag = std::max(std::fabs(va), std::fabs(vb));
            const double rel = mag > 0.0 ? delta / mag : 0.0;
            if (hasA || hasB) {
                // Union-CI overlap: drift within the combined 95%
                // half-widths is statistically clean. The relative
                // tolerance stays as a floor — a deterministic
                // counter's zero-width interval would otherwise flag
                // the small systematic window-boundary bias the
                // tolerance exists to absorb (docs/SAMPLING.md).
                const double allowance = (hasA ? ca : 0.0) +
                                         (hasB ? cb : 0.0);
                if (delta > allowance && rel > tolerance)
                    result.diffs.push_back({path, va, vb, rel});
                continue;
            }
            if (rel > tolerance)
                result.diffs.push_back({path, va, vb, rel});
        }
    }
    return result;
}

} // namespace stats
} // namespace isim
