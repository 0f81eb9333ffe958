/**
 * @file
 * isim-stat: inspect and compare stats.json manifests.
 *
 * A figure run with --stats-out=FILE (or --json-dir=DIR)
 * writes the schema-versioned stats manifest this tool consumes:
 *
 *   isim-stat dump  stats.json                every stat, one per line
 *   isim-stat grep  PATTERN stats.json        stats whose path matches
 *   isim-stat diff  a.json b.json [--tolerance=R] [--ci]
 *   isim-stat timeline stats.json BAR         BAR's epoch rows as CSV
 *
 * `diff` compares two manifests stat-by-stat and exits 1 when any
 * stat drifted beyond the relative tolerance (default 0: values must
 * be bit-identical) or is present on one side only — the shape CI
 * regression gates want. With `--ci`, a stat that carries a 95%
 * confidence interval on either side (sampled runs, docs/SAMPLING.md)
 * passes when the delta is within the union of the two intervals;
 * stats without a CI fall back to the relative tolerance. PATTERN is
 * a plain substring match on the flattened "<bar>/<stat>" path.
 * `timeline` prints the "epochs" rows a --stats-epoch run recorded
 * for one bar as the timeline CSV (obs::writeTimelineCsv), and exits
 * 1 when the bar or its rows are missing or malformed.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/json.hh"
#include "src/obs/export.hh"
#include "src/stats/manifest.hh"

namespace {

using namespace isim;

int
usage(std::ostream &os, int rc)
{
    os << "usage: isim-stat <command> ...\n\n"
          "commands:\n"
          "  dump FILE                   every stat as `path value`\n"
          "  grep PATTERN FILE           stats whose path contains "
          "PATTERN\n"
          "  diff A B [--tolerance=R] [--ci]\n"
          "                              compare two manifests; exit "
          "1 on drift,\n"
          "                              2 when either side has no "
          "stats rows\n"
          "  timeline FILE BAR           BAR's epoch rows (--stats-epoch) "
          "as CSV\n\n"
          "options:\n"
          "  --tolerance=R   relative tolerance for diff "
          "(|b-a|/max(|a|,|b|) <= R\n"
          "                  passes; default 0 = bit-identical)\n"
          "  --ci            accept drift within the union of the two "
          "sides'\n"
          "                  sampled 95% confidence intervals "
          "(docs/SAMPLING.md);\n"
          "                  order-statistic fields (.p50/.p95/...) "
          "and gauges\n"
          "                  are skipped; --tolerance floors CI "
          "pairs\n";
    return rc;
}

/** Read and parse a manifest file into its document tree. */
JsonValue
loadDoc(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "isim-stat: cannot open '" << path << "'\n";
        std::exit(1);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    JsonValue doc;
    std::string err;
    if (!jsonParse(buffer.str(), doc, &err)) {
        std::cerr << "isim-stat: " << path << ": " << err << "\n";
        std::exit(1);
    }
    return doc;
}

/** Sorted-vector CI lookup ("<bar>/<stat>" -> ci95); NaN if absent. */
const stats::FlatStat *
findCi(const std::vector<stats::FlatStat> &ci, const std::string &path)
{
    const auto it = std::lower_bound(
        ci.begin(), ci.end(), path,
        [](const stats::FlatStat &s, const std::string &p) {
            return s.path < p;
        });
    return it != ci.end() && it->path == path ? &*it : nullptr;
}

void
printStat(const stats::FlatStat &s, const stats::FlatStat *ci)
{
    char line[320];
    if (ci != nullptr) {
        std::snprintf(line, sizeof(line), "%-64s %.17g ±%.6g\n",
                      s.path.c_str(), s.value, ci->value);
    } else {
        std::snprintf(line, sizeof(line), "%-64s %.17g\n",
                      s.path.c_str(), s.value);
    }
    std::fputs(line, stdout);
}

double
parseTolerance(const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || v < 0.0) {
        std::cerr << "isim-stat: --tolerance: expected a non-negative "
                     "number, got '"
                  << text << "'\n";
        std::exit(2);
    }
    return v;
}

int
cmdDump(const std::string &path, const std::string &pattern)
{
    const JsonValue doc = loadDoc(path);
    // Bars that carry a META block print it first, so cache keys are
    // auditable next to the stats they address. Sampled bars append
    // their schedule.
    if (pattern.empty()) {
        for (const stats::BarMetaView &view : stats::manifestMeta(doc)) {
            char line[512];
            std::string sampled;
            if (!view.meta.sampleMode.empty()) {
                sampled = " sampled=" + view.meta.sampleMode + ":ff" +
                          std::to_string(view.meta.sampleFf) + "+m" +
                          std::to_string(view.meta.sampleMeasure) +
                          "x" + std::to_string(view.meta.sampleWindows);
            }
            std::snprintf(line, sizeof(line),
                          "META %s key=%s config=%s seed=%llu "
                          "schema=%d%s%s%s\n",
                          view.bar.c_str(), view.meta.key.c_str(),
                          view.meta.configDigest.c_str(),
                          static_cast<unsigned long long>(
                              view.meta.seed),
                          view.meta.schemaVersion, sampled.c_str(),
                          view.meta.status.empty() ? "" : " status=",
                          view.meta.status.c_str());
            std::fputs(line, stdout);
        }
    }
    // Sampled manifests annotate each bounded stat with its ±95% CI.
    const std::vector<stats::FlatStat> ci = stats::flattenCi95(doc);
    std::size_t shown = 0;
    for (const stats::FlatStat &s : stats::flattenManifest(doc)) {
        if (!pattern.empty() &&
            s.path.find(pattern) == std::string::npos) {
            continue;
        }
        printStat(s, findCi(ci, s.path));
        ++shown;
    }
    if (!pattern.empty() && shown == 0) {
        std::cerr << "isim-stat: no stat matches '" << pattern
                  << "'\n";
        return 1;
    }
    return 0;
}

int
cmdDiff(const std::string &pathA, const std::string &pathB,
        double tolerance, bool use_ci)
{
    const JsonValue docA = loadDoc(pathA);
    const JsonValue docB = loadDoc(pathB);
    std::vector<stats::FlatStat> a = stats::flattenManifest(docA);
    std::vector<stats::FlatStat> b = stats::flattenManifest(docB);
    const bool anySampled =
        use_ci && (stats::manifestHasSampling(docA) ||
                   stats::manifestHasSampling(docB));
    if (anySampled) {
        // Gauges are levels, not rates: a sampled manifest reports the
        // mean level over its windows, an exact one the end-of-run
        // level. No CI reconciles those, so CI-aware diffs skip them.
        std::vector<std::string> gauges =
            stats::manifestGaugePaths(docA);
        std::vector<std::string> gaugesB =
            stats::manifestGaugePaths(docB);
        gauges.insert(gauges.end(), gaugesB.begin(), gaugesB.end());
        std::sort(gauges.begin(), gauges.end());
        a = stats::dropPaths(a, gauges);
        b = stats::dropPaths(b, gauges);
    }
    // Two empty manifests compare "clean" vacuously — which is how a
    // broken producer slips through a CI gate. Zero rows is an
    // error, not a pass.
    if (a.empty() || b.empty()) {
        std::cerr << "isim-stat: '" << (a.empty() ? pathA : pathB)
                  << "' has no stats rows; refusing to compare "
                     "(a diff against nothing proves nothing)\n";
        return 2;
    }
    stats::DiffResult d;
    if (use_ci) {
        d = stats::diffFlattenedCi(a, b, stats::flattenCi95(docA),
                                   stats::flattenCi95(docB),
                                   anySampled, tolerance);
    } else {
        d = stats::diffFlattened(a, b, tolerance);
    }
    for (const stats::StatDiff &diff : d.diffs) {
        char line[320];
        std::snprintf(line, sizeof(line),
                      "%-64s %.17g -> %.17g (rel %.3g)\n",
                      diff.path.c_str(), diff.a, diff.b, diff.rel);
        std::fputs(line, stdout);
    }
    for (const std::string &path : d.onlyA)
        std::cout << path << " only in " << pathA << "\n";
    for (const std::string &path : d.onlyB)
        std::cout << path << " only in " << pathB << "\n";
    if (d.clean()) {
        std::cout << a.size() << " stats match";
        if (tolerance > 0.0)
            std::cout << " (tolerance " << tolerance << ")";
        if (use_ci)
            std::cout << " (CI-aware)";
        std::cout << "\n";
        return 0;
    }
    std::cout << d.diffs.size() << " stats drifted, "
              << d.onlyA.size() + d.onlyB.size()
              << " present on one side only\n";
    return 1;
}

int
cmdTimeline(const std::string &path, const std::string &bar)
{
    const JsonValue doc = loadDoc(path);
    std::vector<stats::EpochRow> rows;
    std::string err;
    if (!stats::manifestEpochs(doc, bar, rows, err)) {
        std::cerr << "isim-stat: " << path << ": " << err << "\n";
        return 1;
    }
    obs::writeTimelineCsv(std::cout, rows);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0)) {
        return usage(std::cout, 0);
    }
    if (argc < 3)
        return usage(std::cerr, 2);

    const std::string command = argv[1];
    if (command == "dump") {
        if (argc != 3)
            return usage(std::cerr, 2);
        return cmdDump(argv[2], "");
    }
    if (command == "grep") {
        if (argc != 4)
            return usage(std::cerr, 2);
        return cmdDump(argv[3], argv[2]);
    }
    if (command == "timeline") {
        if (argc != 4)
            return usage(std::cerr, 2);
        return cmdTimeline(argv[2], argv[3]);
    }
    if (command == "diff") {
        if (argc < 4)
            return usage(std::cerr, 2);
        double tolerance = 0.0;
        bool ci = false;
        for (int i = 4; i < argc; ++i) {
            const char *arg = argv[i];
            const char *prefix = "--tolerance=";
            if (std::strncmp(arg, prefix, std::strlen(prefix)) == 0) {
                tolerance = parseTolerance(arg + std::strlen(prefix));
            } else if (std::strcmp(arg, "--ci") == 0) {
                ci = true;
            } else {
                std::cerr << "isim-stat: unknown option '" << arg
                          << "'\n\n";
                return usage(std::cerr, 2);
            }
        }
        return cmdDiff(argv[2], argv[3], tolerance, ci);
    }
    std::cerr << "isim-stat: unknown command '" << command << "'\n\n";
    return usage(std::cerr, 2);
}
