/**
 * @file
 * isim-bench: wall-clock benchmark of the simulator itself.
 *
 * Times full figure runs (host time, not simulated time) and writes a
 * schema-versioned BENCH_<date>.json so performance of the simulator
 * can be tracked commit over commit:
 *
 *   isim-bench                          bench fig05 + fig06
 *   isim-bench fig10-uni fig10-mp      bench specific figures
 *   isim-bench --quick                 small txn counts (CI smoke)
 *   isim-bench --warm-restore          time the warm-image pipeline
 *   isim-bench --sampled               also time a sampled pass
 *   isim-bench --out=bench.json        explicit output path
 *
 * Per figure, the report separates the phases of the warm-up story:
 *
 *   wall_ms          cold run (warm-up + measurement)
 *   image_build_ms   --warm-restore: cold run that also saves a warm
 *                    image per bar (the pipeline's one-time cost)
 *   restore_ms       --warm-restore: the same figure measured from
 *                    those images (warm-up paid by deserialization)
 *   warm_speedup     wall_ms / restore_ms — the pipeline payoff
 *                    that dominates warm-up-heavy figures (>= 5x)
 *
 * With --sampled (or any explicit --sample-* flag) each figure also
 * runs once under sampled measurement (docs/SAMPLING.md) and the row
 * gains a "sampled" block: the sampled wall clock, the speedup over
 * the cold exact run, and — per bar — the sampled vs exact CPI and
 * total-L2-miss values with the sampled 95% CI and a within-CI
 * verdict. That block is the statistical-accuracy record the CI gate
 * checks: sampling must stay fast AND honest.
 *
 * Where the host time goes is gprof's job (docs/PROFILING.md).
 *
 * The shared run flags (--txns, --warmup, --seed, --jobs, --quiet,
 * ...) apply; --quick is shorthand for a small fixed
 * workload (explicit --txns/--warmup still win). Reports are
 * suppressed — the product is the timing JSON.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/json.hh"
#include "src/base/logging.hh"
#include "src/core/registry.hh"
#include "src/sample/spec.hh"

namespace {

using namespace isim;

constexpr std::uint64_t kQuickTxns = 300;
constexpr std::uint64_t kQuickWarmup = 60;

int
usage(std::FILE *to, const char *argv0)
{
    std::fprintf(
        to,
        "usage: %s [figure-id...] [options]\n"
        "\n"
        "Times figure runs (host wall clock) and writes a "
        "BENCH_<date>.json\nrecord. Default figures: fig05 fig06.\n"
        "\nOptions:\n"
        "  --quick           small workload (%llu txns, %llu warm-up) "
        "for CI smoke\n"
        "  --warm-restore    also time the warm-image pipeline: an "
        "image-building\n"
        "                    pass (image_build_ms) and a restored "
        "rerun (restore_ms,\n"
        "                    warm_speedup)\n"
        "  --sampled         also time a sampled pass "
        "(docs/SAMPLING.md) and record\n"
        "                    per-bar CPI / L2-miss accuracy vs the "
        "exact run; the\n"
        "                    schedule comes from --sample-* (or a "
        "default derived\n"
        "                    from the transaction count)\n"
        "  --out=FILE        output path (default: BENCH_<date>.json)\n"
        "  --date=DATE       date stamp to embed (default: today, "
        "UTC)\n"
        "%s",
        argv0, static_cast<unsigned long long>(kQuickTxns),
        static_cast<unsigned long long>(kQuickWarmup),
        runOptionsHelp());
    return to == stdout ? 0 : 2;
}

std::string
todayUtc()
{
    // isim-lint: allow(determinism): date stamp is metadata only; --date overrides it for reproducible output
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buffer[16];
    std::strftime(buffer, sizeof(buffer), "%Y-%m-%d", &tm);
    return buffer;
}

/** Per-bar accuracy record of the sampled pass. */
struct SampledBar
{
    std::string name;
    double cpiFull = 0.0;
    double cpiSampled = 0.0;
    double cpiCi95 = 0.0;
    double missFull = 0.0;
    double missSampled = 0.0;
    double missCi95 = 0.0;

    double
    cpiRelErr() const
    {
        return cpiFull > 0.0
                   ? std::fabs(cpiSampled - cpiFull) / cpiFull
                   : 0.0;
    }
    bool cpiWithinCi() const
    {
        return std::fabs(cpiSampled - cpiFull) <= cpiCi95;
    }
    bool missWithinCi() const
    {
        return std::fabs(missSampled - missFull) <= missCi95;
    }
};

struct BenchRow
{
    std::string id;
    std::size_t bars = 0;
    double wallMs = 0.0;
    std::uint64_t committedTxns = 0;
    std::uint64_t simulatedNs = 0;
    /** Image-building pass of --warm-restore; < 0 = not measured. */
    double imageBuildMs = -1.0;
    /** Restored rerun of --warm-restore; < 0 = not measured. */
    double restoreMs = -1.0;
    /** Sampled pass of --sampled; < 0 = not measured. */
    double sampledWallMs = -1.0;
    sample::SampleSpec sampleSpec;
    std::vector<SampledBar> sampledBars;
};

std::string
benchToJson(const std::string &date, const RunOptions &options,
            bool quick, bool warm_restore, bool sampled,
            const std::vector<BenchRow> &rows)
{
    std::ostringstream os;
    JsonWriter json(os, 2);
    json.beginObject()
        .kv("schema", "isim-bench")
        // Version 3 added an optional per-figure "prof" breakdown (no
        // longer written); version 4 the "sampled" accuracy/speedup
        // block (--sampled); version 5 dropped "warmup_mode",
        // "timing_wall_ms" and "warmup_speedup".
        .kv("version", std::uint64_t{5})
        .kv("date", date)
        .kv("quick", quick)
        .kv("warm_restore", warm_restore)
        .kv("sampled", sampled)
        .kv("jobs", std::uint64_t{options.jobs})
        .kv("txns", options.txns ? *options.txns : std::uint64_t{0})
        .kv("warmup",
            options.warmup ? *options.warmup : std::uint64_t{0});
    double total = 0.0;
    json.key("figures").beginArray();
    for (const BenchRow &row : rows) {
        total += row.wallMs;
        // Host throughput: simulated transactions retired per second
        // of wall clock — the "how fast is the simulator" number.
        const double txnsPerSec =
            row.wallMs > 0.0 ? 1e3 * static_cast<double>(
                                         row.committedTxns) /
                                   row.wallMs
                             : 0.0;
        json.beginObject()
            .kv("id", row.id)
            .kv("bars", std::uint64_t{row.bars})
            .kv("wall_ms", row.wallMs, 2)
            .kv("committed_txns", row.committedTxns)
            .kv("txns_per_sec", txnsPerSec, 1)
            .kv("simulated_ns", row.simulatedNs);
        if (row.imageBuildMs >= 0.0) {
            // The pipeline split (formerly one warm_wall_ms number):
            // pay image_build_ms once, then every rerun costs
            // restore_ms — warm-up traded for deserialization.
            json.kv("image_build_ms", row.imageBuildMs, 2)
                .kv("restore_ms", row.restoreMs, 2)
                .kv("warm_speedup",
                    row.restoreMs > 0.0 ? row.wallMs / row.restoreMs
                                        : 0.0,
                    2);
        }
        if (row.sampledWallMs >= 0.0) {
            // The sampled pass: wall-clock win over the cold exact
            // run, plus the per-bar accuracy verdicts the CI gate
            // reads (headline metrics within the sampled 95% CI).
            bool allCpi = true;
            bool allMiss = true;
            double maxRelErr = 0.0;
            for (const SampledBar &sb : row.sampledBars) {
                allCpi = allCpi && sb.cpiWithinCi();
                allMiss = allMiss && sb.missWithinCi();
                maxRelErr = std::max(maxRelErr, sb.cpiRelErr());
            }
            json.key("sampled")
                .beginObject()
                .kv("wall_ms", row.sampledWallMs, 2)
                .kv("speedup",
                    row.sampledWallMs > 0.0
                        ? row.wallMs / row.sampledWallMs
                        : 0.0,
                    2)
                .kv("mode", sample::sampleModeName(row.sampleSpec.mode))
                .kv("ff", row.sampleSpec.ff)
                .kv("measure", row.sampleSpec.measure)
                .kv("warm", row.sampleSpec.resolvedWarm())
                .kv("windows", row.sampleSpec.windows)
                .kv("cpi_max_rel_err", maxRelErr, 4)
                .kv("all_cpi_within_ci", allCpi)
                .kv("all_miss_within_ci", allMiss);
            json.key("bars").beginArray();
            for (const SampledBar &sb : row.sampledBars) {
                json.beginObject()
                    .kv("name", sb.name)
                    .kv("cpi_full", sb.cpiFull, 4)
                    .kv("cpi_sampled", sb.cpiSampled, 4)
                    .kv("cpi_ci95", sb.cpiCi95, 4)
                    .kv("cpi_rel_err", sb.cpiRelErr(), 4)
                    .kv("cpi_within_ci", sb.cpiWithinCi())
                    .kv("miss_full", sb.missFull, 1)
                    .kv("miss_sampled", sb.missSampled, 1)
                    .kv("miss_ci95", sb.missCi95, 1)
                    .kv("miss_within_ci", sb.missWithinCi())
                    .endObject();
            }
            json.endArray();
            json.endObject();
        }
        json.endObject();
    }
    json.endArray();
    json.kv("total_wall_ms", total, 2);
    json.endObject();
    os << "\n";
    return os.str();
}

/** Wall-clock one figure run under the given options. */
double
timedRun(const FigureSpec &spec, const RunOptions &options,
         FigureResult *result = nullptr)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    FigureResult r = ExperimentRunner(options).run(spec);
    const Clock::time_point stop = Clock::now();
    if (result != nullptr)
        *result = std::move(r);
    return std::chrono::duration<double, std::milli>(stop - start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts = RunOptions::fromCommandLine(argc, argv);

    bool quick = false;
    bool warmRestore = false;
    bool sampled = false;
    std::string outPath;
    std::string date = todayUtc();
    std::vector<std::string> ids;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage(stdout, argv[0]);
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--warm-restore") {
            warmRestore = true;
        } else if (arg == "--sampled") {
            sampled = true;
        } else if (arg.rfind("--out=", 0) == 0) {
            outPath = arg.substr(6);
        } else if (arg.rfind("--date=", 0) == 0) {
            date = arg.substr(7);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n\n",
                         arg.c_str());
            return usage(stderr, argv[0]);
        } else {
            ids.push_back(arg);
        }
    }
    if (ids.empty())
        ids = {"fig05", "fig06"};
    if (outPath.empty())
        outPath = "BENCH_" + date + ".json";
    if (quick) {
        if (!opts.txns)
            opts.txns = kQuickTxns;
        if (!opts.warmup)
            opts.warmup = kQuickWarmup;
    }
    opts.applyGlobal();

    // Explicit --sample-* flags imply the sampled pass; the cold and
    // warm-restore passes always measure exactly, so the base options
    // never carry the sampling schedule.
    sampled = sampled || opts.sample.enabled();
    sample::SampleSpec sampleSpec = opts.sample;
    opts.sample = sample::SampleSpec{};

    // Resolve every id before burning simulation time on any of them.
    const FigureRegistry &registry = FigureRegistry::instance();
    std::vector<const FigureEntry *> selected;
    for (const std::string &id : ids) {
        const FigureEntry *entry = registry.find(id);
        if (!entry) {
            std::fprintf(stderr,
                         "isim-bench: unknown figure id '%s' (try "
                         "`isim-fig list`)\n",
                         id.c_str());
            return 2;
        }
        selected.push_back(entry);
    }

    std::vector<BenchRow> rows;
    rows.reserve(selected.size());
    const std::string ckptDir = "bench-ckpt.tmp";
    for (const FigureEntry *entry : selected) {
        const FigureSpec spec = entry->make();

        BenchRow row;
        row.id = entry->id;
        row.bars = spec.bars.size();

        // Cold run.
        FigureResult result;
        row.wallMs = timedRun(spec, opts, &result);
        for (const RunResult &r : result.runs) {
            row.committedTxns += r.transactions;
            row.simulatedNs += r.wallTime;
        }

        if (warmRestore) {
            // Image-building pass: the cold run again, saving a warm
            // image per bar — then the restored rerun that skips the
            // warm-up entirely.
            std::filesystem::create_directories(ckptDir);
            RunOptions buildOpts = opts;
            buildOpts.saveCkptDir = ckptDir;
            row.imageBuildMs = timedRun(spec, buildOpts);
            RunOptions restoreOpts = opts;
            restoreOpts.fromCkptDir = ckptDir;
            row.restoreMs = timedRun(spec, restoreOpts);
            std::filesystem::remove_all(ckptDir);
        }

        if (sampled) {
            // Sampled pass: same figure, measurement alternating
            // fast-forward and timing windows. Without explicit
            // --sample-* flags the schedule derives from the
            // transaction count: 8 periods, each measuring 1/8 of its
            // span after a half-window re-warm.
            const std::uint64_t txns =
                opts.txns ? *opts.txns
                          : spec.bars.front().config.workload
                                .transactions;
            sample::SampleSpec ss = sampleSpec;
            if (!ss.enabled()) {
                const std::uint64_t period =
                    std::max<std::uint64_t>(txns / 8, 16);
                ss.measure = std::max<std::uint64_t>(period / 8, 8);
                ss.ff = period - ss.measure;
                ss.warm = ss.measure / 2;
            }
            RunOptions sampleOpts = opts;
            sampleOpts.sample = ss;
            FigureResult sr;
            row.sampledWallMs = timedRun(spec, sampleOpts, &sr);
            row.sampleSpec = ss;
            for (std::size_t i = 0; i < sr.runs.size(); ++i) {
                const RunResult &s = sr.runs[i];
                const RunResult &f = result.runs[i];
                SampledBar sb;
                sb.name = s.name;
                sb.cpiFull = f.stat("cpu.cpi");
                sb.cpiSampled = s.stat("cpu.cpi");
                sb.missFull = f.stat("l2.miss.total");
                sb.missSampled = s.stat("l2.miss.total");
                if (const sample::StatCi *ci =
                        s.sampling.find("cpu.cpi"))
                    sb.cpiCi95 = ci->ci95;
                if (const sample::StatCi *ci =
                        s.sampling.find("l2.miss.total"))
                    sb.missCi95 = ci->ci95;
                // The echo carries the resolved window count.
                row.sampleSpec.windows = s.sampling.windows;
                row.sampledBars.push_back(std::move(sb));
            }
        }

        rows.push_back(row);
        if (row.sampledWallMs >= 0.0) {
            std::printf("%-12s %8.1f ms exact / %8.1f ms sampled "
                        "(%.2fx, cpi err %.1f%%)\n",
                        row.id.c_str(), row.wallMs, row.sampledWallMs,
                        row.sampledWallMs > 0.0
                            ? row.wallMs / row.sampledWallMs
                            : 0.0,
                        100.0 * [&row] {
                            double m = 0.0;
                            for (const SampledBar &sb : row.sampledBars)
                                m = std::max(m, sb.cpiRelErr());
                            return m;
                        }());
        }
        if (row.restoreMs >= 0.0) {
            std::printf("%-12s %8.1f ms cold / %8.1f ms build / "
                        "%8.1f ms restored  (%zu bars, %llu txns)\n",
                        row.id.c_str(), row.wallMs, row.imageBuildMs,
                        row.restoreMs, row.bars,
                        static_cast<unsigned long long>(
                            row.committedTxns));
        } else {
            std::printf("%-12s %8.1f ms  (%zu bars, %llu txns)\n",
                        row.id.c_str(), row.wallMs, row.bars,
                        static_cast<unsigned long long>(
                            row.committedTxns));
        }
    }

    const std::string doc =
        benchToJson(date, opts, quick, warmRestore, sampled, rows);
    std::string err;
    if (!jsonValidate(doc, &err))
        isim_panic("bench JSON does not validate: %s", err.c_str());
    std::ofstream out(outPath);
    if (!out) {
        std::fprintf(stderr, "isim-bench: cannot write '%s'\n",
                     outPath.c_str());
        return 1;
    }
    out << doc;
    if (!out) {
        std::fprintf(stderr, "isim-bench: write to '%s' failed\n",
                     outPath.c_str());
        return 1;
    }
    std::printf("bench written to %s\n", outPath.c_str());
    return 0;
}
