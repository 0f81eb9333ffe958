/**
 * @file
 * Per-run stats manifest: the schema-versioned stats.json document a
 * figure run emits next to its figure JSON, plus the flatten/diff
 * machinery `tools/isim-stat` and the regression tests use to compare
 * two manifests stat-by-stat.
 *
 * Manifest layout (schema "isim-stats", version 3):
 *
 *   {
 *     "schema": "isim-stats",
 *     "version": 3,
 *     "figure": "fig05",
 *     "title": "...",
 *     "bars": [
 *       {"name": "1x8-1MB",
 *        "meta": {"key": "<16 hex>", "config_digest": "<16 hex>",
 *                 "seed": 7, "schema_version": 3,
 *                 "sim_wall_ms": 12.5},
 *        "stats": {"cpu.busy": {"kind": "counter", "unit": "ticks",
 *                               "desc": "...", "value": 12345}, ...},
 *        "sampling": {"mode": "fixed", "ff": 300, "measure": 50,
 *                     "warm": 50, "windows": 8, "covered": 400,
 *                     "stats": {"cpu.busy": {"sem": 1.5e6,
 *                               "ci95": 3.5e6, "windows": 8}, ...}},
 *        "epochs": [{"epoch": 0, "start": 0, "end": 1000000,
 *                    <one key per epoch column>, "tps": 12000.0},
 *                   ...]}
 *     ]
 *   }
 *
 * "sampling" appears only on sampled bars (docs/SAMPLING.md): the
 * resolved schedule plus a standard error and 95% CI per stat
 * (distribution stats get ".count"/".sum"/".mean" entries).
 *
 * "meta" is the bar's content-address block: "key" is the FNV-1a 64
 * digest of the bar's canonical configuration encoding
 * (ckpt::configBytes) + workload seed + this schema version — the
 * identity the campaign orchestrator caches results under
 * (docs/CAMPAIGN.md) — and "sim_wall_ms" is the *simulated*
 * wall-clock of the measurement window in milliseconds
 * (deterministic, so manifests stay byte-comparable; version-1
 * manifests called it "wall_ms" and still parse). Every META value
 * is deterministic, so every bit-identity guarantee (--jobs, resume)
 * covers it. Older manifests may carry "warmup_mode",
 * "exec_mode" or a host-time "host_wall_ms" in META; readers ignore
 * them. "epochs"
 * is present only when the bar's epochs were recorded (--stats-epoch,
 * on every bar); its keys are the epochColumns of src/stats/epoch.hh,
 * and manifestEpochs() reads them back for `isim-stat timeline`.
 * Distribution values are nested objects; undefined quantiles (NaN)
 * serialize as JSON null.
 */

#ifndef ISIM_STATS_MANIFEST_HH
#define ISIM_STATS_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/sample/report.hh"
#include "src/stats/epoch.hh"
#include "src/stats/registry.hh"

namespace isim {

class JsonValue;

namespace stats {

constexpr const char *kManifestSchema = "isim-stats";
// Version 2: "wall_ms" (simulated ms, despite the name) became
// "sim_wall_ms", and an optional "host_wall_ms" was added (no longer
// written; readers ignore it).
// Version 3: sampled runs (docs/SAMPLING.md) — bars may carry a
// "sampling" block (schedule + per-stat sem/ci95) and the META block
// echoes the sampling schedule. The version participates in
// resultKey(), so each bump deliberately invalidates campaign caches
// built by older schemas.
constexpr int kManifestVersion = 3;

/** Lower-case 16-digit hex rendering of a 64-bit digest. */
std::string hex64(std::uint64_t v);

/**
 * Content-address key of one (configuration, seed) cell: the FNV-1a
 * 64 digest of the canonical configuration encoding
 * (ckpt::configBytes), the workload seed (8 bytes LE) and the
 * manifest schema version (4 bytes LE), as 16 hex digits. Two cells
 * share a key exactly when a cached result of one is a valid result
 * of the other.
 */
std::string resultKey(const std::vector<std::uint8_t> &config_bytes,
                      std::uint64_t seed);

/**
 * resultKey() with the sampling axis folded in: an enabled SampleSpec
 * appends its schedule (ff/measure/warm/windows, LE) and mode byte to
 * the hashed bytes, so sampled and exact cells — and sampled cells
 * with different schedules — never alias in the campaign cache. A
 * disabled spec appends nothing and yields the plain resultKey().
 */
std::string resultKey(const std::vector<std::uint8_t> &config_bytes,
                      std::uint64_t seed,
                      const sample::SampleSpec &sample);

/** FNV-1a 64 of the canonical configuration encoding, as hex. */
std::string configDigest(const std::vector<std::uint8_t> &config_bytes);

/**
 * The per-bar META block: the content-address identity a result is
 * cached and audited under. Emitted into the manifest when `present`
 * (every figure/campaign run sets it; hand-built manifests may not).
 */
struct BarMeta
{
    bool present = false;
    std::string key;          //!< resultKey() of the bar's cell
    std::string configDigest; //!< configDigest() of the bar's config
    std::uint64_t seed = 0;   //!< workload seed the bar ran with
    int schemaVersion = kManifestVersion;
    /**
     * Simulated wall-clock of the measurement window (ms); < 0 =
     * omit. Deterministic. Written as "sim_wall_ms"; the version-1
     * name "wall_ms" is accepted on parse.
     */
    double simWallMs = -1.0;
    /** Campaign merge only ("ok" / "failed"); "" = omit. */
    std::string status;
    /**
     * Sampled-run schedule echo (docs/SAMPLING.md); sampleMode "" =
     * exact run, fields omitted: emitted only when sampling actually
     * shaped the bar's numbers.
     */
    std::string sampleMode;
    std::uint64_t sampleFf = 0;
    std::uint64_t sampleMeasure = 0;
    std::uint64_t sampleWarm = 0;
    std::uint64_t sampleWindows = 0;
};

/** One bar's worth of manifest content. */
struct ManifestBar
{
    std::string name;
    BarMeta meta;
    Snapshot stats;
    std::vector<EpochRow> epochs; //!< empty unless epochs were recorded
    /** Per-stat error bounds; written only when sampling.enabled. */
    sample::SampleReport sampling;
};

struct Manifest
{
    std::string figure;
    std::string title;
    std::vector<ManifestBar> bars;
};

/** Serialize the manifest document (jsonValidate-clean by contract). */
std::string manifestToJson(const Manifest &m);

/**
 * One numeric leaf of a parsed manifest, addressed as
 * "<bar>/<stat>" (scalars) or "<bar>/<stat>.<field>" (distribution
 * fields, e.g. "1x8-1MB/oltp.txn.latency.p95"). Null-valued leaves
 * (undefined quantiles) are skipped: they compare as absent.
 */
struct FlatStat
{
    std::string path;
    double value = 0.0;
};

/**
 * Flatten a parsed stats.json into sorted (path, value) pairs.
 * Fatal when the document is not an isim-stats manifest or the schema
 * version is newer than this build understands. META blocks are not
 * stats and are skipped; read them with manifestMeta().
 */
std::vector<FlatStat> flattenManifest(const JsonValue &doc);

/** One bar's parsed META block (bars without one are skipped). */
struct BarMetaView
{
    std::string bar;
    BarMeta meta;
};

/**
 * Extract every bar's META block from a parsed manifest, in document
 * order. Manifests predating the META echo yield an empty vector.
 */
std::vector<BarMetaView> manifestMeta(const JsonValue &doc);

/**
 * Decode the "epochs" rows of bar `bar` of a parsed manifest into
 * `rows`, keyed by epochColumns[i].manifest (the derived "tps" is
 * recomputed, not read). Returns false with a message naming the bar
 * in `err` when no bar has that name, the bar has no "epochs" rows,
 * or a row misses a key or holds anything but an exact unsigned
 * integer there: a manifest is outside input.
 */
bool manifestEpochs(const JsonValue &doc, const std::string &bar,
                    std::vector<EpochRow> &rows, std::string &err);

/**
 * Flatten every bar's "sampling" block into sorted
 * ("<bar>/<stat>", ci95) pairs. Exact manifests yield an empty
 * vector. Null / non-finite ci95 entries are skipped — a stat
 * without a finite CI compares like an unsampled one.
 */
std::vector<FlatStat> flattenCi95(const JsonValue &doc);

/** Whether any bar of a parsed manifest carries a sampling block. */
bool manifestHasSampling(const JsonValue &doc);

/**
 * Every gauge stat of a parsed manifest as a sorted "<bar>/<stat>"
 * list. CI-aware diffs (isim-stat diff --ci) exclude gauges when one
 * side was sampled: a sampled run reports a gauge as its mean level
 * over the measurement windows, an exact run as its end-of-run level
 * — different estimands that no confidence interval reconciles
 * (docs/SAMPLING.md).
 */
std::vector<std::string> manifestGaugePaths(const JsonValue &doc);

/** `flat` minus the stats whose path is in sorted `paths`. */
std::vector<FlatStat> dropPaths(const std::vector<FlatStat> &flat,
                                const std::vector<std::string> &paths);

/** One stat whose value differs between two manifests. */
struct StatDiff
{
    std::string path;
    double a = 0.0;
    double b = 0.0;
    double rel = 0.0; //!< |b-a| / max(|a|, |b|)
};

struct DiffResult
{
    std::vector<StatDiff> diffs;  //!< beyond tolerance, sorted by path
    std::vector<std::string> onlyA;
    std::vector<std::string> onlyB;

    bool clean() const
    {
        return diffs.empty() && onlyA.empty() && onlyB.empty();
    }
};

/**
 * Compare two flattened manifests. A pair differs when its relative
 * delta |b-a| / max(|a|,|b|) exceeds `tolerance` (so tolerance 0
 * demands bit-identical values). Stats present on one side only are
 * reported separately and always make the result unclean.
 */
DiffResult diffFlattened(const std::vector<FlatStat> &a,
                         const std::vector<FlatStat> &b,
                         double tolerance = 0.0);

/**
 * CI-aware comparison (isim-stat diff --ci): a pair whose absolute
 * delta is within the union of the two sides' 95% intervals
 * (ciA + ciB, missing = 0) is clean; pairs with no CI on either side
 * fall back to the relative `tolerance`. The tolerance also floors
 * CI pairs — a deterministic counter's zero-width interval would
 * otherwise flag the small systematic window-boundary bias sampling
 * necessarily carries. When `any_sampled`, order-statistic
 * distribution fields (.min/.max/.p50/.p95/.p99) are excluded from
 * the comparison entirely — the interval-batch estimator provides no
 * error bound for order statistics (docs/SAMPLING.md, "when the CI
 * lies"). Callers comparing sampled against exact manifests should
 * also drop gauge paths (manifestGaugePaths + dropPaths), as
 * isim-stat does.
 */
DiffResult diffFlattenedCi(const std::vector<FlatStat> &a,
                           const std::vector<FlatStat> &b,
                           const std::vector<FlatStat> &ci_a,
                           const std::vector<FlatStat> &ci_b,
                           bool any_sampled, double tolerance = 0.0);

} // namespace stats
} // namespace isim

#endif // ISIM_STATS_MANIFEST_HH
